// Interactive/stdin query runner built on the qc::api layer: reads a join
// query plus relation contents in the shared dataset format, loads them via
// api::LoadDataset, and evaluates with api::ExecuteQuery — the same entry
// points qc_serverd serves over the wire, so CLI and daemon cannot drift.
//
// Input format (stdin, or a file given as the positional argument):
//
//   query: R(a,b), S(b,c)
//   relation R:
//   1 2
//   2 3
//   relation S:
//   2 10
//   3 11
//
// Repeating a "relation X:" block appends its tuples to the existing
// relation instead of replacing it. Malformed rows — parse errors, arity
// mismatches — are reported with their 1-based input line number, every bad
// statement (not just the first). `--on-input-error abort` (default)
// rejects the whole input and applies nothing; `--on-input-error continue`
// applies the valid rows and reports each skipped one.
//
// Flags are the shared session set (see --help): --threads, --deadline-ms,
// --max-rows, --index-cache-mb, --report-json, --on-input-error. On
// truncation the status and effort counters are printed and the exit code
// reports the cause (4 deadline, 5 budget, 6 cancelled; 1 is a
// usage/parse/input error). Running with no stdin redirection uses a
// built-in demo input.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <unistd.h>

#include "api/query_api.h"
#include "api/session_options.h"
#include "db/database.h"

namespace {

constexpr char kDemo[] =
    "query: R1(a,b), R2(a,c), R3(b,c)\n"
    "relation R1:\n0 1\n1 2\n2 0\n0 2\n"
    "relation R2:\n0 1\n1 2\n2 0\n0 2\n"
    "relation R3:\n0 1\n1 2\n2 0\n0 2\n";

int Usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s%s [input-file]\n", argv0,
               qc::api::SessionFlagsUsage().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qc;

  api::SessionOptions options;
  const char* input_path = nullptr;
  for (int i = 1; i < argc;) {
    std::string error;
    int consumed = api::ParseSessionFlag(argc, argv, i, &options, &error);
    if (consumed < 0) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return Usage(argv[0]);
    }
    if (consumed > 0) {
      i += consumed;
      continue;
    }
    if (argv[i][0] == '-' && argv[i][1] != '\0') {
      return Usage(argv[0]);
    }
    if (input_path != nullptr) return Usage(argv[0]);
    input_path = argv[i];
    ++i;
  }

  std::string input;
  if (input_path != nullptr) {
    std::ifstream file(input_path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", input_path);
      return 1;
    }
    std::stringstream ss;
    ss << file.rdbuf();
    input = ss.str();
  } else if (isatty(fileno(stdin))) {
    std::printf("(no input; using the built-in triangle demo)\n\n");
    input = kDemo;
  } else {
    std::stringstream ss;
    ss << std::cin.rdbuf();
    input = ss.str();
  }
  if (input.find("query:") == std::string::npos) {
    std::printf("(no query in input; using the built-in triangle demo)\n\n");
    input = kDemo;
  }

  db::Database database;
  api::DatasetLoad load =
      api::LoadDataset(input, &database, options.continue_on_input_error);
  for (const api::InputDiagnostic& d : load.diagnostics) {
    std::fprintf(stderr, "input error: %s\n", d.ToString().c_str());
  }
  if (!load.ok) {
    std::fprintf(stderr, "input rejected (%zu error%s); nothing applied\n",
                 load.diagnostics.size(),
                 load.diagnostics.size() == 1 ? "" : "s");
    return 1;
  }
  if (load.tuples_skipped > 0) {
    std::fprintf(stderr, "(continuing past %zu bad row%s)\n",
                 load.tuples_skipped, load.tuples_skipped == 1 ? "" : "s");
  }

  api::QueryRequest request;
  request.query_text = load.query_text;
  request.options = options;
  request.want_analysis = true;
  // The CLI owns the process-wide Trace, so span collection is safe here
  // (unlike qc_serverd, which serves concurrent requests).
  request.collect_trace = !options.report_json.empty();

  auto cache = options.MakeIndexCache();
  api::QueryResponse resp =
      api::ExecuteQuery(request, database, cache.get());
  if (!resp.input_ok) {
    std::fprintf(stderr, "%s\n", resp.error.c_str());
    return 1;
  }

  std::printf("=== analysis ===\n%s\n", resp.analysis_text.c_str());
  std::printf("\n");
  std::printf("=== answer (via %s): %zu tuples%s ===\n", resp.method.c_str(),
              resp.result.rows.size(),
              resp.result.truncated ? " (truncated)" : "");
  std::string header;
  for (const auto& a : resp.result.attributes) header += a + " ";
  std::printf("%s\n", header.c_str());
  const db::FlatRelation& rows = resp.result.rows;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::string row;
    for (db::Value v : rows.View(i)) row += std::to_string(v) + " ";
    std::printf("%s\n", row.c_str());
    if (i + 1 == 20 && rows.size() > 20) {
      std::printf("... (%zu more)\n", rows.size() - 20);
      break;
    }
  }
  if (resp.status != util::RunStatus::kCompleted) {
    std::printf("\nstatus: %s after %llu output rows (partial answer)\n",
                std::string(util::ToString(resp.status)).c_str(),
                static_cast<unsigned long long>(resp.report.budget.rows_used));
  }
  if (!resp.report.counters.empty()) {
    std::printf("\n=== effort (threads=%d) ===\n%s\n", resp.report.threads,
                resp.report.counters.ToString().c_str());
  }

  resp.report.tool = "query_cli";
  return api::FinishReport(options, resp.report, resp.status);
}
