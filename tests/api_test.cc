// qc::api layer: the shared session option table, dataset loading with
// line-numbered diagnostics, the qcp/1 wire codec, and the RunReport
// server section.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/query_api.h"
#include "api/session_options.h"
#include "api/wire.h"
#include "db/database.h"
#include "util/json.h"
#include "util/run_report.h"

namespace qc {
namespace {

// --- Session options ---------------------------------------------------

TEST(SessionOptionsTest, ParseSessionFlagConsumesKnownFlags) {
  const char* argv[] = {"tool",         "--threads",  "4",
                        "--deadline-ms", "250",       "--max-rows",
                        "10",           "--index-cache-mb", "8",
                        "--report-json", "/tmp/r.json", "--on-input-error",
                        "continue",     "positional"};
  const int argc = static_cast<int>(std::size(argv));
  api::SessionOptions opts;
  std::string error;
  int i = 1;
  while (i < argc) {
    int consumed = api::ParseSessionFlag(
        argc, const_cast<char* const*>(argv), i, &opts, &error);
    ASSERT_GE(consumed, 0) << error;
    if (consumed == 0) break;
    i += consumed;
  }
  EXPECT_EQ(std::string(argv[i]), "positional");
  EXPECT_EQ(opts.threads, 4);
  EXPECT_EQ(opts.deadline_ms, 250u);
  EXPECT_EQ(opts.max_rows, 10u);
  EXPECT_EQ(opts.index_cache_mb, 8u);
  EXPECT_EQ(opts.report_json, "/tmp/r.json");
  EXPECT_TRUE(opts.continue_on_input_error);
}

TEST(SessionOptionsTest, BadValueIsAnErrorNotACrash) {
  const char* argv[] = {"tool", "--deadline-ms", "soon"};
  api::SessionOptions opts;
  std::string error;
  EXPECT_EQ(api::ParseSessionFlag(3, const_cast<char* const*>(argv), 1, &opts,
                                  &error),
            -1);
  EXPECT_NE(error.find("--deadline-ms"), std::string::npos) << error;
}

TEST(SessionOptionsTest, SetSessionOptionByWireKey) {
  api::SessionOptions opts;
  std::string error;
  EXPECT_TRUE(api::SetSessionOption(&opts, "deadline_ms", "100", &error));
  EXPECT_TRUE(api::SetSessionOption(&opts, "max_rows", "5", &error));
  EXPECT_TRUE(api::SetSessionOption(&opts, "threads", "2", &error));
  EXPECT_TRUE(api::SetSessionOption(&opts, "on_input_error", "abort", &error));
  EXPECT_EQ(opts.deadline_ms, 100u);
  EXPECT_EQ(opts.max_rows, 5u);
  EXPECT_EQ(opts.threads, 2);
  EXPECT_FALSE(opts.continue_on_input_error);

  EXPECT_FALSE(api::SetSessionOption(&opts, "no_such_knob", "1", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(api::SetSessionOption(&opts, "max_rows", "many", &error));
}

TEST(SessionOptionsTest, TableFlagAndKeySpellingsAgree) {
  for (const api::SessionOptionSpec& spec : api::SessionOptionTable()) {
    // "--index-cache-mb" <-> "index_cache_mb": same words, different
    // separators.
    std::string flag_as_key(spec.flag + 2);
    for (char& c : flag_as_key) {
      if (c == '-') c = '_';
    }
    EXPECT_EQ(flag_as_key, spec.key);
    EXPECT_NE(api::SessionFlagsUsage().find(spec.flag), std::string::npos);
  }
}

TEST(SessionOptionsTest, MakeBudgetArmsLimits) {
  api::SessionOptions opts;
  opts.max_rows = 3;
  auto budget = opts.MakeBudget();
  ASSERT_NE(budget, nullptr);
  EXPECT_EQ(budget->row_limit(), 3u);
  EXPECT_EQ(opts.MakeIndexCache(), nullptr);  // 0 MiB = disabled.
  opts.index_cache_mb = 1;
  auto cache = opts.MakeIndexCache();
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->capacity_bytes(), std::size_t{1} << 20);
}

// --- LoadDataset -------------------------------------------------------

constexpr char kBadDataset[] =
    "query: R(a,b)\n"
    "relation R:\n"   // line 2
    "1 2\n"           // line 3
    "1 2 3\n"         // line 4: arity 3, expected 2
    "x y\n"           // line 5: parse error
    "3 4\n"           // line 6: fine
    "7\n";            // line 7: arity 1

TEST(LoadDatasetTest, AbortSemanticsApplyNothingAndNumberEveryError) {
  db::Database db;
  api::DatasetLoad load = api::LoadDataset(kBadDataset, &db, false);
  EXPECT_FALSE(load.ok);
  EXPECT_FALSE(load.applied);
  EXPECT_FALSE(db.HasRelation("R"));  // Untouched.
  // Every bad statement is reported — not just the first — with its line.
  ASSERT_EQ(load.diagnostics.size(), 3u);
  EXPECT_EQ(load.diagnostics[0].line, 5);  // Parse errors surface in pass 1.
  EXPECT_EQ(load.diagnostics[1].line, 4);
  EXPECT_EQ(load.diagnostics[2].line, 7);
  for (const api::InputDiagnostic& d : load.diagnostics) {
    EXPECT_NE(d.ToString().find("line "), std::string::npos);
  }
}

TEST(LoadDatasetTest, ContinueSemanticsSkipBadRowsAndApplyTheRest) {
  db::Database db;
  api::DatasetLoad load = api::LoadDataset(kBadDataset, &db, true);
  EXPECT_TRUE(load.ok);
  EXPECT_TRUE(load.applied);
  EXPECT_EQ(load.query_text, " R(a,b)");
  ASSERT_TRUE(db.HasRelation("R"));
  EXPECT_EQ(db.NumTuples("R"), 2u);  // 1 2 and 3 4.
  EXPECT_EQ(load.tuples_applied, 2u);
  EXPECT_EQ(load.tuples_skipped, 2u);  // Arity mismatches; the parse error
                                       // never staged a row.
  EXPECT_EQ(load.diagnostics.size(), 3u);
}

TEST(LoadDatasetTest, RepeatedBlockAppendsToExistingRelation) {
  db::Database db;
  ASSERT_TRUE(db.SetRelation("R", 2, {{1, 1}}));
  api::DatasetLoad load = api::LoadDataset(
      "relation R:\n2 2\nrelation S:\n9\nrelation R:\n3 3\n", &db, false);
  EXPECT_TRUE(load.ok);
  EXPECT_EQ(db.NumTuples("R"), 3u);
  EXPECT_EQ(db.NumTuples("S"), 1u);
  EXPECT_EQ(load.tuples_applied, 3u);  // 2 2, 9, 3 3 — the pre-existing
                                       // 1 1 row is not the loader's.
}

TEST(LoadDatasetTest, ExistingArityWinsOverFirstRow) {
  db::Database db;
  ASSERT_TRUE(db.SetRelation("R", 2, {{1, 1}}));
  // First row has arity 3, but R exists with arity 2: the row is the
  // error, not the relation.
  api::DatasetLoad load =
      api::LoadDataset("relation R:\n1 2 3\n", &db, false);
  EXPECT_FALSE(load.ok);
  ASSERT_EQ(load.diagnostics.size(), 1u);
  EXPECT_EQ(load.diagnostics[0].line, 2);
  EXPECT_EQ(db.NumTuples("R"), 1u);
}

TEST(LoadDatasetTest, StageThenApplyMatchesLoadDataset) {
  // The server's in-place mutate path: stage read-only, then apply the
  // resolved blocks. Repeated blocks of a NEW relation must resolve to one
  // create followed by appends, in input order.
  db::Database db;
  ASSERT_TRUE(db.SetRelation("R", 2, {{1, 1}}));
  api::DatasetStaging staging = api::StageDataset(
      "relation T:\n5 6\nrelation R:\n2 2\nrelation T:\n7 8\n", db, false);
  ASSERT_TRUE(staging.load.ok);
  ASSERT_EQ(staging.blocks.size(), 3u);
  EXPECT_TRUE(staging.blocks[0].create);    // First T block creates.
  EXPECT_FALSE(staging.blocks[1].create);   // R exists.
  EXPECT_FALSE(staging.blocks[2].create);   // Second T block appends.
  EXPECT_FALSE(db.HasRelation("T"));        // Staging never touches the db.
  ASSERT_TRUE(api::ApplyDataset(&staging, &db));
  EXPECT_TRUE(staging.load.applied);
  EXPECT_EQ(staging.load.tuples_applied, 3u);
  EXPECT_EQ(db.Tuples("T"), (std::vector<db::Tuple>{{5, 6}, {7, 8}}));
  EXPECT_EQ(db.NumTuples("R"), 2u);
}

TEST(LoadDatasetTest, StagingRejectionRefusesToApply) {
  db::Database db;
  api::DatasetStaging staging =
      api::StageDataset("relation R:\n1 2\n1 2 3\n", db, false);
  EXPECT_FALSE(staging.load.ok);
  db::MutationResult r = api::ApplyDataset(&staging, &db);
  EXPECT_FALSE(r);
  EXPECT_FALSE(db.HasRelation("R"));
}

TEST(LoadDatasetTest, StructuralErrorsAreDiagnosed) {
  db::Database db;
  api::DatasetLoad load = api::LoadDataset(
      "1 2\n"             // line 1: tuple outside any block
      "relation R\n"      // line 2: missing ':'
      "relation  :\n",    // line 3: no name
      &db, false);
  EXPECT_FALSE(load.ok);
  EXPECT_EQ(load.diagnostics.size(), 3u);
}

// --- Wire codec --------------------------------------------------------

TEST(WireTest, EncodeDecodeRoundtrip) {
  api::Frame in;
  in.kind = "query";
  in.Add("id", "42").Add("deadline_ms", "100");
  in.body = "R(a,b), S(b,c)\nwith a newline";

  api::FrameParser parser;
  parser.Feed(api::EncodeFrame(in));
  api::Frame out;
  std::string error;
  ASSERT_EQ(parser.Next(&out, &error), api::FrameParser::Result::kFrame)
      << error;
  EXPECT_EQ(out.kind, "query");
  ASSERT_NE(out.Find("id"), nullptr);
  EXPECT_EQ(*out.Find("id"), "42");
  EXPECT_EQ(out.FindUint("deadline_ms", 0), 100u);
  EXPECT_EQ(out.FindUint("absent", 7), 7u);
  EXPECT_EQ(out.body, in.body);
  EXPECT_EQ(parser.Next(&out, &error), api::FrameParser::Result::kNeedMore);
}

TEST(WireTest, ByteAtATimeFeedStillParses) {
  api::Frame in;
  in.kind = "mutate";
  in.Add("id", "1");
  in.body = "relation R:\n1 2\n";
  const std::string wire = api::EncodeFrame(in);

  api::FrameParser parser;
  api::Frame out;
  std::string error;
  for (char c : wire) {
    parser.Feed(&c, 1);
  }
  ASSERT_EQ(parser.Next(&out, &error), api::FrameParser::Result::kFrame);
  EXPECT_EQ(out.body, in.body);
}

TEST(WireTest, BackToBackFramesDecodeInOrder) {
  api::Frame a, b;
  a.kind = "ping";
  a.Add("id", "1");
  b.kind = "stats";
  b.Add("id", "2");
  api::FrameParser parser;
  parser.Feed(api::EncodeFrame(a) + api::EncodeFrame(b));
  api::Frame out;
  std::string error;
  ASSERT_EQ(parser.Next(&out, &error), api::FrameParser::Result::kFrame);
  EXPECT_EQ(out.kind, "ping");
  ASSERT_EQ(parser.Next(&out, &error), api::FrameParser::Result::kFrame);
  EXPECT_EQ(out.kind, "stats");
}

TEST(WireTest, MalformedMagicPoisonsTheParser) {
  api::FrameParser parser;
  parser.Feed(std::string_view("nope query 0\n.\n"));
  api::Frame out;
  std::string error;
  EXPECT_EQ(parser.Next(&out, &error), api::FrameParser::Result::kError);
  EXPECT_FALSE(error.empty());
  // Poisoned: even valid bytes fail now.
  parser.Feed(api::EncodeFrame(api::Frame{"ping", {}, ""}));
  EXPECT_EQ(parser.Next(&out, &error), api::FrameParser::Result::kError);
}

TEST(WireTest, OversizedBodyDeclarationIsRejected) {
  api::FrameParser parser;
  parser.Feed(std::string_view("qcp query 99999999999\n.\n"));
  api::Frame out;
  std::string error;
  EXPECT_EQ(parser.Next(&out, &error), api::FrameParser::Result::kError);
}

TEST(WireTest, FieldValuesMayContainSpaces) {
  api::Frame in;
  in.kind = "error";
  in.Add("message", "admission queue saturated (8 running, 64 queued)");
  api::FrameParser parser;
  parser.Feed(api::EncodeFrame(in));
  api::Frame out;
  std::string error;
  ASSERT_EQ(parser.Next(&out, &error), api::FrameParser::Result::kFrame);
  EXPECT_EQ(*out.Find("message"),
            "admission queue saturated (8 running, 64 queued)");
}

TEST(WireTest, NewlinesInFieldValuesAreSanitizedNotFramed) {
  api::Frame in;
  in.kind = "error";
  in.Add("message", "two\nlines");
  api::FrameParser parser;
  parser.Feed(api::EncodeFrame(in));
  api::Frame out;
  std::string error;
  // The encoder must not let a value forge a header line.
  ASSERT_EQ(parser.Next(&out, &error), api::FrameParser::Result::kFrame);
  EXPECT_EQ(*out.Find("message"), "two_lines");
}

// --- RunReport server section ------------------------------------------

TEST(RunReportServerSectionTest, EmittedOnlyWhenPresent) {
  util::RunReport report;
  report.tool = "qc_serverd";
  EXPECT_EQ(report.ToJson().find("\"server\""), std::string::npos);

  report.server.present = true;
  report.server.request_id = 42;
  report.server.queue_ms = 1.5;
  report.server.snapshot_epoch = 7;
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"server\""), std::string::npos);
  EXPECT_NE(json.find("\"request_id\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"snapshot_epoch\": 7"), std::string::npos);

  // Emit() into a caller-owned writer is the same serializer ToJson uses.
  util::JsonWriter w;
  report.Emit(w);
  EXPECT_EQ(w.Take(), json);
}

// --- ExecuteQuery ------------------------------------------------------

TEST(QueryApiTest, ExecuteQueryAgainstDatabase) {
  db::Database db;
  ASSERT_TRUE(db.SetRelation("R", 2, {{1, 2}, {2, 3}}));
  ASSERT_TRUE(db.SetRelation("S", 2, {{2, 10}, {3, 11}}));
  api::QueryRequest req;
  req.id = 9;
  req.query_text = "R(a,b), S(b,c)";
  req.want_analysis = true;
  api::QueryResponse resp = api::ExecuteQuery(req, db, nullptr);
  ASSERT_TRUE(resp.input_ok) << resp.error;
  EXPECT_EQ(resp.ExitCode(), 0);
  EXPECT_EQ(resp.result.rows.size(), 2u);
  EXPECT_FALSE(resp.method.empty());
  EXPECT_FALSE(resp.analysis_text.empty());
  EXPECT_EQ(resp.report.server.request_id, 9u);
  EXPECT_FALSE(resp.report.server.present);  // Branding is the server's job.
}

TEST(QueryApiTest, ExecuteQueryInputErrors) {
  db::Database db;
  ASSERT_TRUE(db.SetRelation("R", 2, {{1, 2}}));
  api::QueryRequest req;
  req.query_text = "R(a,b), Missing(b,c)";
  api::QueryResponse resp = api::ExecuteQuery(req, db, nullptr);
  EXPECT_FALSE(resp.input_ok);
  EXPECT_EQ(resp.ExitCode(), 1);
  EXPECT_NE(resp.error.find("Missing"), std::string::npos);

  req.query_text = "R(a,";
  resp = api::ExecuteQuery(req, db, nullptr);
  EXPECT_FALSE(resp.input_ok);
  EXPECT_EQ(resp.ExitCode(), 1);
}

TEST(QueryApiTest, MaxRowsTruncatesWithBudgetExhaustedStatus) {
  db::Database db;
  ASSERT_TRUE(db.SetRelation("R", 2, {{1, 1}, {2, 2}, {3, 3}, {4, 4}}));
  api::QueryRequest req;
  req.query_text = "R(a,b)";
  req.options.max_rows = 2;
  api::QueryResponse resp = api::ExecuteQuery(req, db, nullptr);
  ASSERT_TRUE(resp.input_ok);
  EXPECT_EQ(resp.status, util::RunStatus::kBudgetExhausted);
  EXPECT_EQ(resp.ExitCode(), 5);
  EXPECT_TRUE(resp.result.truncated);
  EXPECT_LE(resp.result.rows.size(), 2u);
}

// --- LoadDatasetFile: I/O failures vs parse failures --------------------
//
// A missing file and a malformed file are different operational events
// (retry/config-fix vs fix-the-data); the api must never blur them into
// one diagnostic.

TEST(LoadDatasetFileTest, MissingFileIsAnIoErrorNotAParseError) {
  db::Database db;
  api::DatasetFileLoad load = api::LoadDatasetFile(
      "/nonexistent/qc_no_such_file.txt", &db, false);
  EXPECT_FALSE(load.io_ok);
  EXPECT_NE(load.io_error.find("qc_no_such_file"), std::string::npos)
      << load.io_error;
  // The underlying errno text travels in the diagnostic.
  EXPECT_NE(load.io_error.find("No such file"), std::string::npos)
      << load.io_error;
  EXPECT_EQ(load.load.tuples_applied, 0u);
}

TEST(LoadDatasetFileTest, ParseErrorStillReportsIoSuccess) {
  const std::string path = ::testing::TempDir() + "qc_api_bad_dataset.txt";
  {
    std::ofstream out(path);
    out << "relation R:\n1 2\nnot a number here\n";
  }
  db::Database db;
  api::DatasetFileLoad load = api::LoadDatasetFile(path, &db, false);
  EXPECT_TRUE(load.io_ok) << load.io_error;  // The read itself worked.
  EXPECT_FALSE(load.load.ok);
  EXPECT_FALSE(load.load.diagnostics.empty());
  std::remove(path.c_str());
}

TEST(LoadDatasetFileTest, CleanFileLoads) {
  const std::string path = ::testing::TempDir() + "qc_api_good_dataset.txt";
  {
    std::ofstream out(path);
    out << "relation R:\n1 2\n3 4\n";
  }
  db::Database db;
  api::DatasetFileLoad load = api::LoadDatasetFile(path, &db, false);
  EXPECT_TRUE(load.io_ok) << load.io_error;
  EXPECT_TRUE(load.load.ok);
  EXPECT_EQ(load.load.tuples_applied, 2u);
  EXPECT_EQ(db.NumTuples("R"), 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qc
