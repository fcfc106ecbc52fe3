// qc_serverd's engine: admission control, the socket-free HandleRequest
// pipeline (admission → snapshot → execute → stream), and the loopback TCP
// front end with the blocking Client. Suite names match the tsan preset
// filter (Admission*/ServerConcurrency*).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/query_api.h"
#include "api/wire.h"
#include "db/database.h"
#include "server/admission.h"
#include "server/client.h"
#include "server/server.h"
#include "util/fault.h"
#include "util/rng.h"

namespace qc {
namespace {

using server::AdmissionController;
using server::AdmissionOptions;

// --- AdmissionController ------------------------------------------------

TEST(AdmissionTest, AdmitsUpToMaxConcurrent) {
  AdmissionOptions opts;
  opts.max_concurrent = 2;
  opts.queue_capacity = 0;  // No queue: reject on saturation.
  AdmissionController ctl(opts);

  auto d1 = ctl.Admit();
  auto d2 = ctl.Admit();
  EXPECT_EQ(d1.outcome, AdmissionController::Outcome::kAdmitted);
  EXPECT_EQ(d2.outcome, AdmissionController::Outcome::kAdmitted);
  auto d3 = ctl.Admit();
  EXPECT_EQ(d3.outcome, AdmissionController::Outcome::kRejectedSaturated);
  EXPECT_EQ(d3.running, 2);

  ctl.Release();
  EXPECT_EQ(ctl.Admit().outcome, AdmissionController::Outcome::kAdmitted);
  ctl.Release();
  ctl.Release();
  server::AdmissionStats s = ctl.stats();
  EXPECT_EQ(s.admitted, 3u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.running, 0);
}

TEST(AdmissionTest, QueuedWaiterGetsTheFreedSlot) {
  AdmissionOptions opts;
  opts.max_concurrent = 1;
  opts.queue_capacity = 4;
  AdmissionController ctl(opts);
  ASSERT_EQ(ctl.Admit().outcome, AdmissionController::Outcome::kAdmitted);

  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    auto d = ctl.Admit();
    EXPECT_EQ(d.outcome, AdmissionController::Outcome::kAdmitted);
    admitted.store(true);
    ctl.Release();
  });
  // The waiter is queued, not admitted, until the slot frees.
  while (ctl.stats().queued == 0 && !admitted.load()) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(admitted.load());
  ctl.Release();
  waiter.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_GE(ctl.stats().max_queued, 1u);
}

TEST(AdmissionTest, QueueTimeoutReturnsStructuredOutcome) {
  AdmissionOptions opts;
  opts.max_concurrent = 1;
  opts.queue_capacity = 4;
  opts.queue_timeout_ms = 30;
  AdmissionController ctl(opts);
  ASSERT_EQ(ctl.Admit().outcome, AdmissionController::Outcome::kAdmitted);
  auto d = ctl.Admit();  // Queues, then gives up.
  EXPECT_EQ(d.outcome, AdmissionController::Outcome::kTimedOut);
  EXPECT_GE(d.queue_ms, 0.0);
  EXPECT_EQ(ctl.stats().timed_out, 1u);
  ctl.Release();
}

TEST(AdmissionTest, CloseWakesWaitersWithClosed) {
  AdmissionOptions opts;
  opts.max_concurrent = 1;
  opts.queue_capacity = 4;
  AdmissionController ctl(opts);
  ASSERT_EQ(ctl.Admit().outcome, AdmissionController::Outcome::kAdmitted);
  std::thread waiter([&] {
    EXPECT_EQ(ctl.Admit().outcome, AdmissionController::Outcome::kClosed);
  });
  while (ctl.stats().queued == 0) std::this_thread::yield();
  ctl.Close();
  waiter.join();
  EXPECT_EQ(ctl.Admit().outcome, AdmissionController::Outcome::kClosed);
}

// --- HandleRequest: the whole pipeline, no sockets ----------------------

// Dense enough that the triangle query below returns 6 rows — multiple
// batch frames at batch_rows = 2.
constexpr char kTriangleDataset[] =
    "relation R1:\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n2 1\n"
    "relation R2:\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n2 1\n"
    "relation R3:\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n2 1\n";
constexpr char kTriangleQuery[] = "R1(a,b), R2(a,c), R3(b,c)";

server::ServerOptions SmallServerOptions() {
  server::ServerOptions options;
  options.session.index_cache_mb = 4;
  options.batch_rows = 2;  // Force multiple batch frames.
  return options;
}

std::map<std::string, int> CountKinds(const std::vector<api::Frame>& frames) {
  std::map<std::string, int> kinds;
  for (const api::Frame& f : frames) kinds[f.kind]++;
  return kinds;
}

TEST(ServerPipelineTest, QueryStreamsHdrBatchesReportEnd) {
  server::QueryServer server(SmallServerOptions());
  api::Frame mutate;
  mutate.kind = "mutate";
  mutate.Add("id", "1");
  mutate.body = kTriangleDataset;
  std::vector<api::Frame> replies = server.HandleRequest(mutate);
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_EQ(replies[0].kind, "end");
  EXPECT_EQ(replies[0].FindUint("applied", 0), 21u);

  api::Frame query;
  query.kind = "query";
  query.Add("id", "2").Add("want_analysis", "1");
  query.body = kTriangleQuery;
  replies = server.HandleRequest(query);
  auto kinds = CountKinds(replies);
  EXPECT_EQ(kinds["hdr"], 1);
  EXPECT_EQ(kinds["report"], 1);
  EXPECT_EQ(kinds["end"], 1);
  // The dataset has 6 result rows; batch_rows = 2 gives 3 batches.
  EXPECT_EQ(kinds["batch"], 3);
  ASSERT_EQ(replies.front().kind, "hdr");
  const api::Frame& hdr = replies.front();
  EXPECT_EQ(*hdr.Find("status"), "completed");
  EXPECT_EQ(hdr.FindUint("rows", 0), 6u);
  EXPECT_FALSE(hdr.body.empty());  // want_analysis text rides in the hdr.
  ASSERT_EQ(replies.back().kind, "end");
  EXPECT_EQ(replies.back().FindUint("code", 99), 0u);

  // The per-request report is branded and carries the server section.
  const api::Frame* report = nullptr;
  for (const api::Frame& f : replies) {
    if (f.kind == "report") report = &f;
  }
  ASSERT_NE(report, nullptr);
  EXPECT_NE(report->body.find("\"tool\": \"qc_serverd\""), std::string::npos);
  EXPECT_NE(report->body.find("\"server\":"), std::string::npos);
  EXPECT_NE(report->body.find("\"request_id\": 2"), std::string::npos);
  EXPECT_NE(report->body.find("\"snapshot_epoch\":"), std::string::npos);
}

TEST(ServerPipelineTest, PerRequestBudgetTruncates) {
  server::QueryServer server(SmallServerOptions());
  api::Frame mutate;
  mutate.kind = "mutate";
  mutate.body = kTriangleDataset;
  server.HandleRequest(mutate);

  api::Frame query;
  query.kind = "query";
  query.Add("id", "3").Add("max_rows", "1");
  query.body = kTriangleQuery;
  std::vector<api::Frame> replies = server.HandleRequest(query);
  ASSERT_EQ(replies.front().kind, "hdr");
  EXPECT_EQ(*replies.front().Find("status"), "budget-exhausted");
  EXPECT_EQ(*replies.front().Find("truncated"), "1");
  EXPECT_EQ(replies.back().FindUint("code", 0), 5u);
}

TEST(ServerPipelineTest, AdmissionRejectionIsStructured) {
  server::ServerOptions options = SmallServerOptions();
  options.admission.max_concurrent = 0;  // Reject everything.
  options.admission.queue_capacity = 0;
  server::QueryServer server(options);
  api::Frame query;
  query.kind = "query";
  query.Add("id", "4");
  query.body = kTriangleQuery;
  std::vector<api::Frame> replies = server.HandleRequest(query);
  ASSERT_EQ(replies.size(), 1u);
  const api::Frame& err = replies[0];
  EXPECT_EQ(err.kind, "error");
  EXPECT_EQ(err.FindUint("code", 0),
            static_cast<std::uint64_t>(server::kAdmissionRejectedCode));
  EXPECT_EQ(*err.Find("reason"), "admission-rejected");
  ASSERT_NE(err.Find("running"), nullptr);
  ASSERT_NE(err.Find("queue_depth"), nullptr);
  EXPECT_EQ(server.stats().admission.rejected, 1u);
}

TEST(ServerPipelineTest, InputAndProtocolErrors) {
  server::QueryServer server(SmallServerOptions());
  api::Frame query;
  query.kind = "query";
  query.Add("id", "5");
  query.body = "Missing(a,b)";
  std::vector<api::Frame> replies = server.HandleRequest(query);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].kind, "error");
  EXPECT_EQ(replies[0].FindUint("code", 0), 1u);

  query.fields.clear();
  query.Add("id", "6").Add("report_json", "/tmp/forbidden.json");
  replies = server.HandleRequest(query);
  EXPECT_EQ(replies[0].kind, "error");
  EXPECT_EQ(replies[0].FindUint("code", 0), 2u);  // Unknown request field.

  api::Frame bogus;
  bogus.kind = "dance";
  replies = server.HandleRequest(bogus);
  EXPECT_EQ(replies[0].kind, "error");
  EXPECT_EQ(server.stats().protocol_errors, 1u);
}

TEST(ServerPipelineTest, MutateAbortVsContinue) {
  server::QueryServer server(SmallServerOptions());
  api::Frame bad;
  bad.kind = "mutate";
  bad.Add("id", "7");
  bad.body = "relation R:\n1 2\n1 2 3\n";
  std::vector<api::Frame> replies = server.HandleRequest(bad);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].kind, "error");
  EXPECT_EQ(replies[0].FindUint("code", 0), 1u);
  EXPECT_NE(replies[0].body.find("line 3"), std::string::npos);
  const std::uint64_t epoch_after_reject =
      server.database().Epoch();

  bad.Add("on_input_error", "continue");
  replies = server.HandleRequest(bad);
  ASSERT_EQ(replies[0].kind, "end");
  EXPECT_EQ(replies[0].FindUint("applied", 0), 1u);
  EXPECT_EQ(replies[0].FindUint("skipped", 0), 1u);
  EXPECT_GT(server.database().Epoch(), epoch_after_reject);
}

// --- Snapshot isolation through the full pipeline: 8 concurrent client
// threads issue queries while a writer streams appends; every reply must
// be internally consistent with its pinned snapshot_epoch.
TEST(ServerConcurrencyTest, ConcurrentQueriesSeeConsistentSnapshots) {
  server::ServerOptions options;
  options.session.index_cache_mb = 8;
  options.admission.max_concurrent = 16;
  server::QueryServer server(options);
  // R starts empty; the writer appends k-th tuple {k}; a query counts R.
  ASSERT_TRUE(server.database().SetRelation("R", 1, {}));
  const std::uint64_t base_epoch = server.database().Epoch();

  constexpr int kWrites = 200;
  constexpr int kReaders = 8;
  std::atomic<bool> writer_done{false};
  std::atomic<int> mismatches{0};

  std::thread writer([&] {
    for (int i = 0; i < kWrites; ++i) {
      api::Frame mutate;
      mutate.kind = "mutate";
      mutate.body = "relation R:\n" + std::to_string(i) + "\n";
      std::vector<api::Frame> replies = server.HandleRequest(mutate);
      ASSERT_EQ(replies[0].kind, "end");
    }
    writer_done.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      do {
        api::Frame query;
        query.kind = "query";
        query.Add("id", "1");
        query.body = "R(a)";
        std::vector<api::Frame> replies = server.HandleRequest(query);
        if (replies.front().kind != "hdr") {
          mismatches.fetch_add(1);
          continue;
        }
        const api::Frame& hdr = replies.front();
        const std::uint64_t epoch = hdr.FindUint("epoch", 0);
        const std::uint64_t rows = hdr.FindUint("rows", 9999);
        // Epoch base_epoch + k pins exactly k appended tuples: the count a
        // serial run at that version would produce.
        if (rows != epoch - base_epoch) mismatches.fetch_add(1);
        // The streamed batches must agree with the header.
        std::size_t streamed = 0;
        for (const api::Frame& f : replies) {
          if (f.kind == "batch") streamed += f.FindUint("rows", 0);
        }
        if (streamed != rows) mismatches.fetch_add(1);
      } while (!writer_done.load());
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(server.database().Epoch(),
            base_epoch + static_cast<std::uint64_t>(kWrites));
}

// --- Socket end-to-end --------------------------------------------------

TEST(ServerSocketTest, ClientRoundtripOverTcp) {
  server::ServerOptions options = SmallServerOptions();
  server::QueryServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_GT(server.port(), 0);

  server::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  EXPECT_TRUE(client.Ping(&error)) << error;

  server::MutateReply m = client.Mutate(kTriangleDataset);
  ASSERT_TRUE(m.ok) << m.error;
  EXPECT_FALSE(m.rejected);
  EXPECT_EQ(m.applied, 21u);

  server::QueryReply q = client.Query(
      kTriangleQuery, {{"want_analysis", "1"}, {"deadline_ms", "60000"}});
  ASSERT_TRUE(q.ok) << q.error;
  EXPECT_FALSE(q.rejected);
  EXPECT_EQ(q.code, 0);
  EXPECT_EQ(q.status, "completed");
  EXPECT_EQ(q.rows, 6u);
  EXPECT_EQ(q.attributes, (std::vector<std::string>{"a", "b", "c"}));
  // Six rows of "a b c\n" text.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(q.row_text.begin(), q.row_text.end(), '\n')),
            q.rows);
  EXPECT_NE(q.report_json.find("\"tool\": \"qc_serverd\""), std::string::npos);
  EXPECT_FALSE(q.analysis_text.empty());

  std::string stats_json;
  ASSERT_TRUE(client.Stats(&stats_json, &error)) << error;
  EXPECT_NE(stats_json.find("\"queries\": 1"), std::string::npos);

  server.Stop();
}

TEST(ServerSocketTest, ShutdownFrameStopsTheListener) {
  server::QueryServer server(SmallServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  server::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  ASSERT_TRUE(client.Shutdown(&error)) << error;
  server.Wait();  // Returns because the shutdown frame closed the listener.
  EXPECT_TRUE(server.shutdown_requested());
  server.Stop();

  // New connections are refused after shutdown.
  server::Client late;
  EXPECT_FALSE(late.Connect("127.0.0.1", server.port(), &error));
}

// Client always frames correctly; the server must survive peers that do
// not — a raw socket spews garbage and must get a structured error frame
// back, not a hang or a crash.
TEST(ServerSocketTest, GarbageBytesGetProtocolError) {
  server::QueryServer server(SmallServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_GT(::send(fd, garbage, sizeof(garbage) - 1, 0), 0);

  // The server answers with one error frame, then closes the connection.
  api::FrameParser parser;
  api::Frame frame;
  std::string parse_error;
  char buf[4096];
  bool got_error_frame = false;
  while (true) {
    if (parser.Next(&frame, &parse_error) ==
        api::FrameParser::Result::kFrame) {
      got_error_frame = frame.kind == "error";
      break;
    }
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    parser.Feed(buf, static_cast<std::size_t>(n));
  }
  EXPECT_TRUE(got_error_frame);
  ::close(fd);
  server.Stop();
  EXPECT_GE(server.stats().protocol_errors, 1u);
}

// --- FrameParser malformed-frame corpus ---------------------------------
//
// The parser fronts an untrusted TCP peer: every way a header can be
// damaged must end in kNeedMore (incomplete) or a terminal kError — never
// a crash, never a silently misframed body.

TEST(FrameParserCorpusTest, TruncatedHeaderIsNeedMoreUntilComplete) {
  api::FrameParser parser;
  api::Frame frame;
  std::string error;
  parser.Feed("qcp que");  // Header cut mid-kind.
  EXPECT_EQ(parser.Next(&frame, &error), api::FrameParser::Result::kNeedMore);
  parser.Feed("ry 2\nid 1\n.");  // Still no terminating newline.
  EXPECT_EQ(parser.Next(&frame, &error), api::FrameParser::Result::kNeedMore);
  parser.Feed("\nok");
  ASSERT_EQ(parser.Next(&frame, &error), api::FrameParser::Result::kFrame);
  EXPECT_EQ(frame.kind, "query");
  EXPECT_EQ(frame.body, "ok");
}

TEST(FrameParserCorpusTest, MalformedHeadersPoisonTheParser) {
  const char* corpus[] = {
      "nope query 0\n",       // Wrong protocol token.
      "qcp\n",                // Missing kind and length.
      "qcp query\n",          // Missing length.
      "qcp query xyz\n",      // Non-numeric length.
      "qcp query 5 extra\n",  // Trailing token.
  };
  for (const char* bad : corpus) {
    api::FrameParser parser;
    api::Frame frame;
    std::string error;
    parser.Feed(bad);
    EXPECT_EQ(parser.Next(&frame, &error), api::FrameParser::Result::kError)
        << bad;
    // Poisoned: even a perfectly valid frame after the damage is refused,
    // because resync inside a length-prefixed stream is guesswork.
    parser.Feed("qcp ping 0\n.\n");
    EXPECT_EQ(parser.Next(&frame, &error), api::FrameParser::Result::kError)
        << bad;
  }
}

TEST(FrameParserCorpusTest, OversizedBodyLengthIsRejected) {
  api::FrameParser parser;
  api::Frame frame;
  std::string error;
  const std::string huge =
      std::to_string(api::FrameParser::kMaxBodyBytes + 1);
  parser.Feed("qcp mutate " + huge + "\n.\n");
  EXPECT_EQ(parser.Next(&frame, &error), api::FrameParser::Result::kError);
  EXPECT_FALSE(error.empty());
}

TEST(FrameParserCorpusTest, OversizedHeaderLineIsRejected) {
  api::FrameParser parser;
  api::Frame frame;
  std::string error;
  // One header line longer than the cap, never terminated: the parser must
  // reject rather than buffer unboundedly.
  parser.Feed("qcp query 0\n");
  parser.Feed(std::string(api::FrameParser::kMaxHeaderLine + 2, 'k'));
  EXPECT_EQ(parser.Next(&frame, &error), api::FrameParser::Result::kError);
}

TEST(FrameParserCorpusTest, MidFrameEofLeavesPartialFrameUnconsumed) {
  api::FrameParser parser;
  api::Frame frame;
  std::string error;
  parser.Feed("qcp mutate 100\nid 9\n.\npartial body then EOF");
  // The body promises 100 bytes and the connection died early: the frame
  // must never surface. (EOF itself is the transport's signal; the client
  // resets its parser on reconnect — see Client::Connect.)
  EXPECT_EQ(parser.Next(&frame, &error), api::FrameParser::Result::kNeedMore);
  EXPECT_EQ(parser.Next(&frame, &error), api::FrameParser::Result::kNeedMore);
}

TEST(FrameParserCorpusTest, DuplicatedEndOfFieldsMarkerBreaksFraming) {
  api::FrameParser parser;
  api::Frame frame;
  std::string error;
  // First frame is fine; the stray extra ".\n" then reads as the next
  // frame's header line, which is malformed → terminal error.
  parser.Feed("qcp end 0\n.\n.\nqcp ping 0\n.\n");
  ASSERT_EQ(parser.Next(&frame, &error), api::FrameParser::Result::kFrame);
  EXPECT_EQ(frame.kind, "end");
  EXPECT_EQ(parser.Next(&frame, &error), api::FrameParser::Result::kError);
}

TEST(FrameParserCorpusTest, TooManyFieldsRejected) {
  api::FrameParser parser;
  api::Frame frame;
  std::string error;
  std::string msg = "qcp query 0\n";
  for (std::size_t i = 0; i < api::FrameParser::kMaxFields + 1; ++i) {
    msg += "k v\n";
  }
  msg += ".\n";
  parser.Feed(msg);
  EXPECT_EQ(parser.Next(&frame, &error), api::FrameParser::Result::kError);
}

// --- Durability, degradation, and recovery through the pipeline ---------

class WalServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string templ = ::testing::TempDir() + "qc_srv_XXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    dir_ = ::mkdtemp(buf.data());
  }
  void TearDown() override {
    util::FaultRegistry::Global().Clear();
    util::FaultRegistry::Global().ResetStats();
    std::remove((dir_ + "/wal.log").c_str());
    std::remove((dir_ + "/snapshot.dat").c_str());
    std::remove((dir_ + "/snapshot.tmp").c_str());
    ::rmdir(dir_.c_str());
  }

  server::ServerOptions WalOptions() {
    server::ServerOptions options = SmallServerOptions();
    options.wal.dir = dir_;
    options.wal.fsync = db::FsyncPolicy::kOff;  // Tests tear down cleanly.
    return options;
  }

  static std::vector<api::Frame> Mutate(server::QueryServer& server,
                                        const std::string& body,
                                        std::uint64_t request_id = 0) {
    api::Frame f;
    f.kind = "mutate";
    f.Add("id", "1");
    if (request_id != 0) f.Add("request_id", std::to_string(request_id));
    f.body = body;
    return server.HandleRequest(f);
  }

  static std::vector<api::Frame> Query(server::QueryServer& server,
                                       const std::string& text) {
    api::Frame f;
    f.kind = "query";
    f.Add("id", "2");
    f.body = text;
    return server.HandleRequest(f);
  }

  std::string dir_;
};

TEST_F(WalServerTest, MutationsSurviveRestart) {
  {
    server::QueryServer server(WalOptions());
    std::string error;
    ASSERT_TRUE(server.Recover(&error)) << error;
    EXPECT_TRUE(server.stats().wal.enabled);
    std::vector<api::Frame> r = Mutate(server, kTriangleDataset);
    ASSERT_EQ(r[0].kind, "end");
    EXPECT_EQ(r[0].FindUint("applied", 0), 21u);
    EXPECT_GE(server.stats().wal.records_appended, 1u);
  }
  server::QueryServer reborn(WalOptions());
  std::string error;
  ASSERT_TRUE(reborn.Recover(&error)) << error;
  EXPECT_EQ(reborn.recovery().log_records, 1u);
  std::vector<api::Frame> r = Query(reborn, kTriangleQuery);
  ASSERT_EQ(r.front().kind, "hdr");
  EXPECT_EQ(r.front().FindUint("rows", 0), 6u);
}

TEST_F(WalServerTest, RequestIdDedupWithinRunAndAcrossRestart) {
  const char kAppend[] = "relation R1:\n9 9\n";
  {
    server::QueryServer server(WalOptions());
    std::string error;
    ASSERT_TRUE(server.Recover(&error)) << error;
    Mutate(server, kTriangleDataset, 500);
    std::vector<api::Frame> first = Mutate(server, kAppend, 501);
    ASSERT_EQ(first[0].kind, "end");
    EXPECT_EQ(first[0].FindUint("applied", 0), 1u);
    EXPECT_EQ(first[0].FindUint("deduped", 0), 0u);
    // A retry of the same request id must ack without re-applying.
    std::vector<api::Frame> retry = Mutate(server, kAppend, 501);
    ASSERT_EQ(retry[0].kind, "end");
    EXPECT_EQ(retry[0].FindUint("deduped", 0), 1u);
    EXPECT_EQ(retry[0].FindUint("applied", 9), 0u);
    EXPECT_EQ(server.stats().mutations_deduped, 1u);
    std::vector<api::Frame> q = Query(server, "R1(a,b)");
    EXPECT_EQ(q.front().FindUint("rows", 0), 8u);  // 7 + 1, not + 2.
  }
  // The dedup window is WAL-recovered: a post-crash retry still dedups.
  server::QueryServer reborn(WalOptions());
  std::string error;
  ASSERT_TRUE(reborn.Recover(&error)) << error;
  std::vector<api::Frame> retry = Mutate(reborn, kAppend, 501);
  ASSERT_EQ(retry[0].kind, "end");
  EXPECT_EQ(retry[0].FindUint("deduped", 0), 1u);
  std::vector<api::Frame> q = Query(reborn, "R1(a,b)");
  EXPECT_EQ(q.front().FindUint("rows", 0), 8u);
}

TEST_F(WalServerTest, ConcurrentSameRequestIdAppliesExactlyOnce) {
  server::QueryServer server(WalOptions());
  std::string error;
  ASSERT_TRUE(server.Recover(&error)) << error;
  Mutate(server, "relation R1:\n1 1\n", 700);

  // The seen-check and remember run under the MVCC writer lock: racing
  // mutations that share a request id must resolve to exactly one apply,
  // never two (check-then-act outside the lock would let both through).
  constexpr int kThreads = 8;
  std::atomic<int> applied{0};
  std::atomic<int> deduped{0};
  std::atomic<int> other{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      std::vector<api::Frame> r = Mutate(server, "relation R1:\n2 2\n", 701);
      if (r.empty() || r[0].kind != "end") {
        ++other;
      } else if (r[0].FindUint("deduped", 0) == 1u) {
        ++deduped;
      } else {
        applied += static_cast<int>(r[0].FindUint("applied", 0));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(applied.load(), 1);
  EXPECT_EQ(deduped.load(), kThreads - 1);
  EXPECT_EQ(server.stats().mutations_deduped,
            static_cast<std::uint64_t>(kThreads - 1));
  std::vector<api::Frame> q = Query(server, "R1(a,b)");
  EXPECT_EQ(q.front().FindUint("rows", 0), 2u);
}

TEST_F(WalServerTest, CompactionAfterEveryWriteKeepsEveryAckedRequestId) {
  // Regression: the mutate path read the dedup window after its commit had
  // released the writer lock, then compacted under the lock again. A
  // mutate committed in between landed in the compacted snapshot while its
  // request id was in neither the snapshot nor the rotated log; its own
  // compaction then found the log empty. After a restart a retry of it
  // applied twice. Each round starts its writers together so they contend
  // for the writer lock, then restarts and retries every acknowledged id.
  server::ServerOptions options = WalOptions();
  options.wal.compact_bytes = 1;  // Every write compacts.
  constexpr int kRounds = 20;
  constexpr int kWriters = 4;
  auto body = [](std::uint64_t id) {
    return "relation R:\n" + std::to_string(id) + " 1\n";
  };
  auto start = [&options] {
    auto server = std::make_unique<server::QueryServer>(options);
    std::string error;
    EXPECT_TRUE(server->Recover(&error)) << error;
    return server;
  };
  std::unique_ptr<server::QueryServer> server = start();
  ASSERT_EQ(Mutate(*server, "relation R:\n0 0\n", 1)[0].kind, "end");
  std::uint64_t total = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::uint64_t> acked(kWriters, 0);
    std::atomic<int> ready{0};
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        const std::uint64_t id = 1000 + round * kWriters + w;
        ready.fetch_add(1);
        while (ready.load() < kWriters) std::this_thread::yield();
        std::vector<api::Frame> r = Mutate(*server, body(id), id);
        if (!r.empty() && r[0].kind == "end" &&
            r[0].FindUint("applied", 0) == 1u) {
          acked[w] = id;
        }
      });
    }
    for (std::thread& t : writers) t.join();
    server.reset();
    server = start();
    for (std::uint64_t id : acked) {
      ASSERT_NE(id, 0u) << "round " << round;
      ++total;
      std::vector<api::Frame> retry = Mutate(*server, body(id), id);
      ASSERT_EQ(retry[0].kind, "end");
      EXPECT_EQ(retry[0].FindUint("deduped", 0), 1u) << "request id " << id;
    }
  }
  std::vector<api::Frame> q = Query(*server, "R(a,b)");
  EXPECT_EQ(q.front().FindUint("rows", 0), total + 1);
}

TEST_F(WalServerTest, DrainingRejectsNewWorkRetryably) {
  server::QueryServer server(SmallServerOptions());
  Mutate(server, kTriangleDataset);
  server.Drain();
  EXPECT_TRUE(server.draining());

  std::vector<api::Frame> r = Query(server, kTriangleQuery);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].kind, "error");
  EXPECT_EQ(r[0].FindUint("code", 0), 6u);
  EXPECT_EQ(*r[0].Find("reason"), "server-draining");
  EXPECT_EQ(r[0].FindUint("retryable", 0), 1u);

  r = Mutate(server, kTriangleDataset);
  EXPECT_EQ(r[0].kind, "error");
  EXPECT_EQ(r[0].FindUint("code", 0), 6u);
  EXPECT_EQ(server.stats().drain_rejects, 2u);

  // health and stats still answer while draining.
  api::Frame health;
  health.kind = "health";
  std::vector<api::Frame> h = server.HandleRequest(health);
  ASSERT_EQ(h.size(), 1u);
  EXPECT_EQ(h[0].kind, "health-reply");
  EXPECT_EQ(*h[0].Find("status"), "draining");
}

TEST_F(WalServerTest, HealthFrameReportsServingAndDurability) {
  server::QueryServer server(WalOptions());
  std::string error;
  ASSERT_TRUE(server.Recover(&error)) << error;
  api::Frame health;
  health.kind = "health";
  health.Add("id", "42");
  std::vector<api::Frame> h = server.HandleRequest(health);
  ASSERT_EQ(h.size(), 1u);
  ASSERT_EQ(h[0].kind, "health-reply");
  EXPECT_EQ(*h[0].Find("status"), "serving");
  EXPECT_EQ(h[0].FindUint("wal", 0), 1u);
  ASSERT_NE(h[0].Find("epoch"), nullptr);
}

TEST_F(WalServerTest, QueueDeadlineShedsWithStructuredError) {
  server::ServerOptions options = SmallServerOptions();
  options.admission.max_concurrent = 1;
  options.admission.queue_capacity = 4;
  server::QueryServer server(options);
  // 1024 tuples per relation → a 32768-row triangle result streamed at
  // batch_rows=2: each slow query holds the single executor slot for many
  // milliseconds, so a request that queued behind it with deadline_ms=1 is
  // stale by the time it admits.
  std::string dataset;
  for (const char* rel : {"R1", "R2", "R3"}) {
    dataset += std::string("relation ") + rel + ":\n";
    for (int a = 0; a < 32; ++a) {
      for (int b = 0; b < 32; ++b) {
        dataset += std::to_string(a) + " " + std::to_string(b) + "\n";
      }
    }
  }
  Mutate(server, dataset);

  std::atomic<bool> shed_seen{false};
  std::atomic<bool> slow_done{false};
  std::thread slow([&] {
    for (int i = 0; i < 200 && !shed_seen.load(); ++i) {
      Query(server, kTriangleQuery);
    }
    slow_done.store(true);
  });
  std::thread victim([&] {
    while (!shed_seen.load() && !slow_done.load()) {
      // Only bother once the slow query actually holds the slot, so the
      // victim lands in the queue rather than admitting instantly.
      if (server.stats().admission.running == 0) {
        std::this_thread::yield();
        continue;
      }
      api::Frame f;
      f.kind = "query";
      f.Add("id", "9").Add("deadline_ms", "1");
      f.body = kTriangleQuery;
      std::vector<api::Frame> r = server.HandleRequest(f);
      if (r.size() == 1 && r[0].kind == "error" &&
          r[0].Find("reason") != nullptr &&
          *r[0].Find("reason") == "shed-queue-deadline") {
        EXPECT_EQ(r[0].FindUint("code", 0), 4u);
        EXPECT_EQ(r[0].FindUint("retryable", 0), 1u);
        ASSERT_NE(r[0].Find("queue_ms"), nullptr);
        shed_seen.store(true);
      }
    }
  });
  slow.join();
  victim.join();
  EXPECT_TRUE(shed_seen.load());
  EXPECT_GE(server.stats().queue_sheds, 1u);
}

TEST_F(WalServerTest, AllocationFaultBecomesStructuredInternalError) {
  server::QueryServer server(SmallServerOptions());
  Mutate(server, kTriangleDataset);
  std::string cfg_error;
  ASSERT_TRUE(util::FaultRegistry::Global().Configure("arena.alloc:after=0",
                                                      1, &cfg_error))
      << cfg_error;
  std::vector<api::Frame> r = Query(server, kTriangleQuery);
  util::FaultRegistry::Global().Clear();
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].kind, "error");
  EXPECT_EQ(r[0].FindUint("code", 0), 7u);
  EXPECT_EQ(*r[0].Find("reason"), "internal");
  EXPECT_EQ(r[0].FindUint("retryable", 0), 1u);
  // The fault is contained: the same query succeeds once faults clear.
  r = Query(server, kTriangleQuery);
  ASSERT_EQ(r.front().kind, "hdr");
  EXPECT_EQ(r.front().FindUint("rows", 0), 6u);
}

TEST_F(WalServerTest, WalAppendFaultRejectsMutationWithoutStateChange) {
  server::QueryServer server(WalOptions());
  std::string error;
  ASSERT_TRUE(server.Recover(&error)) << error;
  Mutate(server, kTriangleDataset);
  const std::uint64_t epoch = server.database().Epoch();

  std::string cfg_error;
  ASSERT_TRUE(util::FaultRegistry::Global().Configure("wal.write:once=1", 1,
                                                      &cfg_error))
      << cfg_error;
  std::vector<api::Frame> r = Mutate(server, "relation R1:\n5 5\n");
  util::FaultRegistry::Global().Clear();
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].kind, "error");
  EXPECT_EQ(r[0].FindUint("code", 0), 7u);
  EXPECT_EQ(r[0].FindUint("retryable", 0), 1u);
  EXPECT_EQ(server.database().Epoch(), epoch);  // Nothing was applied.
  std::vector<api::Frame> q = Query(server, "R1(a,b)");
  EXPECT_EQ(q.front().FindUint("rows", 0), 7u);
}

// --- Socket-level retry, dedup, and restart recovery --------------------

TEST(ServerSocketTest, ClientRetriesRetryableRejections) {
  server::ServerOptions options = SmallServerOptions();
  options.admission.max_concurrent = 0;  // Everything rejected (code 8).
  options.admission.queue_capacity = 0;
  server::QueryServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  server::Client client;
  server::RetryOptions retry;
  retry.max_retries = 2;
  retry.base_backoff_ms = 1;
  retry.max_backoff_ms = 4;
  client.set_retry(retry);
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;

  server::QueryReply q = client.Query(kTriangleQuery);
  ASSERT_TRUE(q.ok) << q.error;
  EXPECT_TRUE(q.rejected);
  EXPECT_TRUE(q.retryable);
  EXPECT_EQ(q.code, server::kAdmissionRejectedCode);
  EXPECT_EQ(q.attempts, 3);  // Initial try + max_retries.
  EXPECT_GE(server.stats().admission.rejected, 3u);
  server.Stop();
}

TEST(ServerSocketTest, MutationRetryWithRequestIdNeverDoubleApplies) {
  server::QueryServer server(SmallServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  server::Client client;
  server::RetryOptions retry;
  retry.max_retries = 3;
  retry.base_backoff_ms = 1;
  client.set_retry(retry);
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  ASSERT_TRUE(client.Mutate("relation R:\n1\n").ok);

  // Simulate "applied but ack lost": apply once, then retry the same
  // request id from a fresh connection (as a reconnecting client would).
  server::MutateReply first = client.Mutate("relation R:\n2\n", "", 9001);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.applied, 1u);
  server::Client again;
  again.set_retry(retry);
  ASSERT_TRUE(again.Connect("127.0.0.1", server.port(), &error)) << error;
  server::MutateReply second = again.Mutate("relation R:\n2\n", "", 9001);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.deduped);
  EXPECT_EQ(second.applied, 0u);

  server::QueryReply q = client.Query("R(x)");
  ASSERT_TRUE(q.ok) << q.error;
  EXPECT_EQ(q.rows, 2u);  // {1}, {2} — the retry did not double-apply.
  server.Stop();
}

TEST(ServerSocketTest, DefaultClientsAutoGenerateDistinctRequestIds) {
  server::QueryServer server(SmallServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Two clients with identical (default-seed) retry options: their
  // auto-generated idempotency ids must not collide, or the second
  // client's distinct mutation would be deduped away as already applied.
  server::RetryOptions retry;
  retry.max_retries = 1;
  retry.base_backoff_ms = 1;
  server::Client a;
  server::Client b;
  a.set_retry(retry);
  b.set_retry(retry);
  ASSERT_TRUE(a.Connect("127.0.0.1", server.port(), &error)) << error;
  ASSERT_TRUE(b.Connect("127.0.0.1", server.port(), &error)) << error;

  server::MutateReply ra = a.Mutate("relation R:\n1\n");
  ASSERT_TRUE(ra.ok) << ra.error;
  EXPECT_EQ(ra.applied, 1u);
  server::MutateReply rb = b.Mutate("relation R:\n2\n");
  ASSERT_TRUE(rb.ok) << rb.error;
  EXPECT_NE(ra.request_id, rb.request_id);
  EXPECT_FALSE(rb.deduped);
  EXPECT_EQ(rb.applied, 1u);

  server::QueryReply q = a.Query("R(x)");
  ASSERT_TRUE(q.ok) << q.error;
  EXPECT_EQ(q.rows, 2u);
  server.Stop();
}

TEST(ServerSocketTest, HealthProbeOverTcp) {
  server::QueryServer server(SmallServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  server::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  server::HealthReply h = client.Health();
  ASSERT_TRUE(h.ok) << h.error;
  EXPECT_EQ(h.status, "serving");
  EXPECT_FALSE(h.wal);
  server.Stop();
}

// --- Incremental view maintenance through the pipeline ------------------

// Maintained views require alpha-acyclic queries; the triangle query above
// is cyclic by design, so the view tests join the same relations along an
// acyclic chain.
constexpr char kChainQuery[] = "R1(a,b), R2(b,c), R3(c,d)";

static std::vector<api::Frame> RegisterViewFrame(server::QueryServer& server,
                                                 const std::string& name,
                                                 const std::string& kind,
                                                 const std::string& body) {
  api::Frame f;
  f.kind = "view_register";
  f.Add("id", "41").Add("name", name).Add("kind", kind);
  f.body = body;
  return server.HandleRequest(f);
}

static std::vector<api::Frame> ReadViewFrame(server::QueryServer& server,
                                             const std::string& name) {
  api::Frame f;
  f.kind = "view_read";
  f.Add("id", "42").Add("name", name);
  return server.HandleRequest(f);
}

static std::string BatchText(const std::vector<api::Frame>& frames) {
  std::string text;
  for (const api::Frame& f : frames) {
    if (f.kind == "batch") text += f.body;
  }
  return text;
}

// Lex-sorts and dedups row lines: the engine streams rows in evaluation
// order with duplicates, the maintained view stores the normalized
// (sorted, duplicate-free) result — the IVM correctness contract is
// equality after normalization.
static std::string NormalizeRowText(const std::string& text) {
  std::vector<std::string> lines;
  std::string line;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(line);
      line.clear();
    } else {
      line += c;
    }
  }
  std::sort(lines.begin(), lines.end());
  lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

TEST(IvmServerTest, ViewRegisterAndReadRoundTrip) {
  server::QueryServer server(SmallServerOptions());
  api::Frame mutate;
  mutate.kind = "mutate";
  mutate.Add("id", "1");
  mutate.body = kTriangleDataset;
  server.HandleRequest(mutate);

  std::vector<api::Frame> reg =
      RegisterViewFrame(server, "chain", "join", kChainQuery);
  ASSERT_EQ(reg.size(), 1u);
  ASSERT_EQ(reg[0].kind, "end") << *reg[0].Find("message");
  EXPECT_EQ(reg[0].FindUint("code", 9), 0u);

  // The maintained rows equal the query's streamed rows (both normalized
  // row text over the canonical attribute order).
  api::Frame query;
  query.kind = "query";
  query.Add("id", "2");
  query.body = kChainQuery;
  std::vector<api::Frame> qr = server.HandleRequest(query);
  std::string query_rows = NormalizeRowText(BatchText(qr));
  std::vector<api::Frame> read = ReadViewFrame(server, "chain");
  ASSERT_EQ(read.front().kind, "hdr");
  EXPECT_EQ(*read.front().Find("method"), "ivm");
  EXPECT_GT(read.front().FindUint("rows", 0), 0u);
  EXPECT_EQ(BatchText(read), query_rows);

  // A mutation flows into the maintained state; the read epoch advances.
  const std::uint64_t epoch_before = read.front().FindUint("epoch", 0);
  query.fields.clear();
  query.Add("id", "12");
  api::Frame append;
  append.kind = "mutate";
  append.Add("id", "3");
  append.body = "relation R1:\n3 0\n";  // No new triangle from this alone.
  server.HandleRequest(append);
  mutate.fields.clear();
  mutate.Add("id", "4");
  server.HandleRequest(mutate);  // Re-append the whole dataset (dups).
  read = ReadViewFrame(server, "chain");
  ASSERT_EQ(read.front().kind, "hdr");
  EXPECT_GT(read.front().FindUint("epoch", 0), epoch_before);
  query_rows = NormalizeRowText(BatchText(server.HandleRequest(query)));
  EXPECT_EQ(BatchText(read), query_rows);

  // Stats and report carry the ivm section.
  server::ServerStats stats = server.stats();
  EXPECT_EQ(stats.ivm.views, 1u);
  EXPECT_EQ(stats.view_registers, 1u);
  EXPECT_EQ(stats.view_reads, 2u);
  EXPECT_NE(server.StatsJson().find("\"ivm\":"), std::string::npos);
  const api::Frame* report = nullptr;
  for (const api::Frame& f : read) {
    if (f.kind == "report") report = &f;
  }
  ASSERT_NE(report, nullptr);
  EXPECT_NE(report->body.find("\"ivm\":"), std::string::npos);
  EXPECT_NE(report->body.find("\"views\": 1"), std::string::npos);
}

TEST(IvmServerTest, ViewErrorsAreStructured) {
  server::QueryServer server(SmallServerOptions());
  api::Frame mutate;
  mutate.kind = "mutate";
  mutate.Add("id", "1");
  mutate.body = kTriangleDataset;
  server.HandleRequest(mutate);

  // Unknown view.
  std::vector<api::Frame> r = ReadViewFrame(server, "nope");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].kind, "error");
  EXPECT_EQ(r[0].FindUint("code", 0), 1u);

  // Missing name field.
  api::Frame no_name;
  no_name.kind = "view_read";
  no_name.Add("id", "2");
  r = server.HandleRequest(no_name);
  EXPECT_EQ(r[0].kind, "error");
  EXPECT_EQ(r[0].FindUint("code", 0), 2u);

  // Bad kind.
  r = RegisterViewFrame(server, "v", "matrix", "R1(a,b)");
  EXPECT_EQ(r[0].kind, "error");
  EXPECT_EQ(r[0].FindUint("code", 0), 2u);

  // Cyclic query is rejected as input.
  r = RegisterViewFrame(server, "v", "join",
                        "R1(a,b), R2(b,c), R3(c,a)");
  EXPECT_EQ(r[0].kind, "error");
  EXPECT_EQ(r[0].FindUint("code", 0), 1u);

  // Duplicate name.
  ASSERT_EQ(RegisterViewFrame(server, "v", "join", "R1(a,b)")[0].kind,
            "end");
  r = RegisterViewFrame(server, "v", "join", "R1(a,b)");
  EXPECT_EQ(r[0].kind, "error");
  EXPECT_EQ(r[0].FindUint("code", 0), 1u);

  // Draining rejects view traffic retryably.
  server.Drain();
  r = ReadViewFrame(server, "v");
  EXPECT_EQ(r[0].kind, "error");
  EXPECT_EQ(r[0].FindUint("code", 0), 6u);
  EXPECT_EQ(r[0].FindUint("retryable", 0), 1u);
}

TEST(IvmServerTest, ViewRoundtripOverTcp) {
  server::QueryServer server(SmallServerOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  server::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  ASSERT_TRUE(client.Mutate(kTriangleDataset).ok);

  server::ViewRegisterReply reg =
      client.RegisterView("chain", "join", kChainQuery);
  ASSERT_TRUE(reg.ok) << reg.error;
  EXPECT_FALSE(reg.rejected) << reg.message;

  server::QueryReply view = client.ViewRead("chain");
  ASSERT_TRUE(view.ok) << view.error;
  EXPECT_FALSE(view.rejected);
  EXPECT_EQ(view.method, "ivm");
  EXPECT_EQ(view.attributes,
            (std::vector<std::string>{"a", "b", "c", "d"}));
  server::QueryReply q = client.Query(kChainQuery);
  ASSERT_TRUE(q.ok);
  EXPECT_EQ(view.row_text, NormalizeRowText(q.row_text));
  EXPECT_NE(view.report_json.find("\"ivm\":"), std::string::npos);

  server::QueryReply missing = client.ViewRead("nope");
  ASSERT_TRUE(missing.ok) << missing.error;
  EXPECT_TRUE(missing.rejected);
  EXPECT_EQ(missing.code, 1);
  server.Stop();
}

TEST_F(WalServerTest, ViewsSurviveRestartAndCompaction) {
  {
    server::QueryServer server(WalOptions());
    std::string error;
    ASSERT_TRUE(server.Recover(&error)) << error;
    Mutate(server, kTriangleDataset);
    std::vector<api::Frame> reg =
        RegisterViewFrame(server, "tri", "join", kChainQuery);
    ASSERT_EQ(reg[0].kind, "end") << *reg[0].Find("message");
    Mutate(server, "relation R1:\n3 0\n");
  }
  {
    // Restart: the kViewDef log record rebuilds the view against the
    // replayed data.
    server::QueryServer reborn(WalOptions());
    std::string error;
    ASSERT_TRUE(reborn.Recover(&error)) << error;
    EXPECT_EQ(reborn.recovery().view_defs, 1u);
    EXPECT_EQ(reborn.recovery().views_rebuilt, 1u);
    EXPECT_EQ(reborn.recovery().views_failed, 0u);
    std::vector<api::Frame> read = ReadViewFrame(reborn, "tri");
    ASSERT_EQ(read.front().kind, "hdr");
    std::string maintained = BatchText(read);
    EXPECT_EQ(maintained,
              NormalizeRowText(BatchText(Query(reborn, kChainQuery))));

    // Compaction must carry the definition into the snapshot...
    ASSERT_TRUE(reborn.database().CompactWal({}));
    Mutate(reborn, "relation R2:\n3 0\n");
  }
  // ...so a restart after log rotation still rebuilds it.
  server::QueryServer again(WalOptions());
  std::string error;
  ASSERT_TRUE(again.Recover(&error)) << error;
  EXPECT_EQ(again.recovery().views_rebuilt, 1u);
  std::vector<api::Frame> read = ReadViewFrame(again, "tri");
  ASSERT_EQ(read.front().kind, "hdr");
  EXPECT_EQ(BatchText(read),
            NormalizeRowText(BatchText(Query(again, kChainQuery))));
}

TEST_F(WalServerTest, RetriedRequestIdOccupiesOneDedupSlot) {
  // Regression: RememberRequestId must be idempotent. If a replayed-then-
  // retried id were pushed into the eviction order twice, the set and the
  // order deque would desync and the id would fall out of the window
  // early (or evict a newer id in its place).
  server::ServerOptions options = WalOptions();
  options.dedup_window = 4;
  {
    server::QueryServer server(options);
    std::string error;
    ASSERT_TRUE(server.Recover(&error)) << error;
    ASSERT_EQ(Mutate(server, "relation R:\n1 1\n", 100)[0].kind, "end");
  }
  server::QueryServer reborn(options);
  std::string error;
  ASSERT_TRUE(reborn.Recover(&error)) << error;
  // Replay remembered id 100; two retries must still dedup and must not
  // consume extra window slots.
  for (int i = 0; i < 2; ++i) {
    std::vector<api::Frame> retry = Mutate(reborn, "relation R:\n1 1\n", 100);
    ASSERT_EQ(retry[0].kind, "end");
    EXPECT_EQ(retry[0].FindUint("deduped", 0), 1u) << "retry " << i;
  }
  // Exactly window-1 fresh ids: 100 is now the oldest of 4 remembered ids
  // and must still be present. A duplicated push would already have
  // evicted it here.
  for (std::uint64_t id = 101; id <= 103; ++id) {
    std::vector<api::Frame> r = Mutate(reborn, "relation R:\n2 2\n", id);
    ASSERT_EQ(r[0].kind, "end");
    EXPECT_EQ(r[0].FindUint("deduped", 0), 0u);
  }
  std::vector<api::Frame> still = Mutate(reborn, "relation R:\n1 1\n", 100);
  ASSERT_EQ(still[0].kind, "end");
  EXPECT_EQ(still[0].FindUint("deduped", 0), 1u);
  // One more fresh id evicts 100; the next retry genuinely re-applies.
  ASSERT_EQ(Mutate(reborn, "relation R:\n2 2\n", 104)[0].kind, "end");
  std::vector<api::Frame> evicted = Mutate(reborn, "relation R:\n1 1\n", 100);
  ASSERT_EQ(evicted[0].kind, "end");
  EXPECT_EQ(evicted[0].FindUint("deduped", 0), 0u);
  EXPECT_EQ(evicted[0].FindUint("applied", 0), 1u);
}

// --- Streamed replies: frame sink, write buffer, byte identity ----------
//
// Suite names start with ServerSocket so the tsan preset's filter runs the
// concurrent streaming cases too.

/// Relations for the streaming cases: R/S give a ~100k-row acyclic answer,
/// R1/R2/R3 the E17 triangle (3 x 1500 uniform rows over 48 values, where
/// the hybrid planner declines), H a hub graph whose dense core takes the
/// Boolean-MM route, and Z a relation that joins with nothing.
std::string StreamingDataset() {
  util::Rng rng(4242);
  std::string text = "relation R:\n";
  for (int i = 0; i < 10000; ++i) {
    text += std::to_string(i) + " " + std::to_string(rng.NextBounded(1000)) +
            "\n";
  }
  text += "relation S:\n";
  for (int i = 0; i < 10000; ++i) {
    text += std::to_string(rng.NextBounded(1000)) + " " + std::to_string(i) +
            "\n";
  }
  for (const char* name : {"R1", "R2", "R3"}) {
    text += std::string("relation ") + name + ":\n";
    for (int i = 0; i < 1500; ++i) {
      text += std::to_string(rng.NextBounded(48)) + " " +
              std::to_string(rng.NextBounded(48)) + "\n";
    }
  }
  // 17 hubs adjacent to every one of 30 vertices, plus a sparse periphery.
  text += "relation H:\n";
  auto edge = [&text](int u, int v) {
    if (u == v) return;
    text += std::to_string(u) + " " + std::to_string(v) + "\n";
    text += std::to_string(v) + " " + std::to_string(u) + "\n";
  };
  for (int hub = 0; hub < 17; ++hub) {
    for (int v = hub + 1; v < 30; ++v) edge(hub, v);
  }
  for (int i = 0; i < 10; ++i) {
    edge(17 + static_cast<int>(rng.NextBounded(13)),
         17 + static_cast<int>(rng.NextBounded(13)));
  }
  text += "relation Z:\n1000000 1000001\n";
  return text;
}

void LoadStreamingDataset(server::QueryServer& server) {
  api::Frame mutate;
  mutate.kind = "mutate";
  mutate.Add("id", "1");
  mutate.body = StreamingDataset();
  std::vector<api::Frame> replies = server.HandleRequest(mutate);
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_EQ(replies[0].kind, "end") << replies[0].body;
}

api::Frame QueryFrame(std::uint64_t id, const std::string& text,
                      std::vector<std::pair<std::string, std::string>>
                          options = {}) {
  api::Frame f;
  f.kind = "query";
  f.Add("id", std::to_string(id));
  for (auto& [key, value] : options) f.Add(key, value);
  f.body = text;
  return f;
}

/// Writes `requests` into QueryServer::ServeStream over a socketpair and
/// returns every byte the server wrote back, in order.
std::string ServeOverSocketpair(server::QueryServer& server,
                                const std::vector<api::Frame>& requests) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    ADD_FAILURE() << "socketpair failed";
    return "";
  }
  std::thread serving([&server, fd = sv[0]] {
    server.ServeStream(fd);
    ::shutdown(fd, SHUT_WR);
  });
  std::string wire;
  for (const api::Frame& r : requests) wire += api::EncodeFrame(r);
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(sv[1], wire.data() + sent, wire.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(sent, wire.size());
  ::shutdown(sv[1], SHUT_WR);
  std::string out;
  char buf[1 << 16];
  for (ssize_t n; (n = ::recv(sv[1], buf, sizeof(buf), 0)) > 0;) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  serving.join();
  ::close(sv[0]);
  ::close(sv[1]);
  return out;
}

std::vector<api::Frame> ParseFrames(const std::string& wire) {
  api::FrameParser parser;
  parser.Feed(wire);
  std::vector<api::Frame> frames;
  api::Frame frame;
  std::string error;
  while (parser.Next(&frame, &error) == api::FrameParser::Result::kFrame) {
    frames.push_back(frame);
  }
  EXPECT_TRUE(error.empty()) << error;
  return frames;
}

/// What one row-returning reply must carry; the oracle turns it into bytes.
struct ExpectedReply {
  std::uint64_t id = 0;
  std::string status;
  std::string method;
  bool truncated = false;
  std::uint64_t epoch = 0;
  std::vector<std::string> attributes;
  std::vector<db::Tuple> rows;
  std::string analysis;
  std::string report;  ///< Timing-dependent; taken from the observed frame.
  int code = 0;
};

/// The row-wise reply encoding the server used before replies were encoded
/// from columns, kept as the byte oracle: hdr, one batch per 256 rows with
/// every value through std::to_string, report, end, each via EncodeFrame.
std::string RowWiseReply(const ExpectedReply& e) {
  const std::string id = std::to_string(e.id);
  std::string attrs;
  for (const std::string& a : e.attributes) {
    if (!attrs.empty()) attrs += ' ';
    attrs += a;
  }
  api::Frame hdr;
  hdr.kind = "hdr";
  hdr.Add("id", id).Add("status", e.status).Add("method", e.method);
  hdr.Add("rows", std::to_string(e.rows.size()));
  hdr.Add("truncated", e.truncated ? "1" : "0");
  hdr.Add("epoch", std::to_string(e.epoch)).Add("attributes", attrs);
  hdr.body = e.analysis;
  std::string out = api::EncodeFrame(hdr);
  for (std::size_t begin = 0; begin < e.rows.size(); begin += 256) {
    const std::size_t end = std::min(begin + 256, e.rows.size());
    api::Frame batch;
    batch.kind = "batch";
    batch.Add("id", id).Add("rows", std::to_string(end - begin));
    for (std::size_t i = begin; i < end; ++i) {
      std::string line;
      for (db::Value v : e.rows[i]) {
        if (!line.empty()) line += ' ';
        line += std::to_string(v);
      }
      batch.body += line + "\n";
    }
    out += api::EncodeFrame(batch);
  }
  api::Frame report;
  report.kind = "report";
  report.Add("id", id);
  report.body = e.report;
  out += api::EncodeFrame(report);
  api::Frame end;
  end.kind = "end";
  end.Add("id", id).Add("code", std::to_string(e.code));
  return out + api::EncodeFrame(end);
}

/// The rows a reply's batch frames carry, decoded from their text.
std::vector<db::Tuple> DecodeBatchRows(const std::vector<api::Frame>& frames) {
  std::vector<db::Tuple> rows;
  for (const api::Frame& f : frames) {
    if (f.kind != "batch") continue;
    std::size_t pos = 0;
    while (pos < f.body.size()) {
      const std::size_t eol = f.body.find('\n', pos);
      db::Tuple row;
      std::size_t at = pos;
      while (at < eol) {
        std::size_t next = f.body.find(' ', at);
        if (next == std::string::npos || next > eol) next = eol;
        row.push_back(std::stoll(f.body.substr(at, next - at)));
        at = next == eol ? eol : next + 1;
      }
      rows.push_back(row);
      pos = eol + 1;
    }
  }
  return rows;
}

/// Splits a reply sequence at each terminal frame (end or error).
std::vector<std::vector<api::Frame>> SplitReplies(
    const std::vector<api::Frame>& frames) {
  std::vector<std::vector<api::Frame>> replies(1);
  for (const api::Frame& f : frames) {
    replies.back().push_back(f);
    if (f.kind == "end" || f.kind == "error") replies.emplace_back();
  }
  replies.pop_back();
  return replies;
}

/// Flattens JSON text into (key path, value text) pairs in document order.
/// Object keys join with '.', array elements append "[i]", and every object
/// or array also records its own path with "{}" / "[]" so empty sections
/// keep their place. String values keep their quotes. Covers exactly what
/// util::JsonWriter emits.
using JsonPaths = std::vector<std::pair<std::string, std::string>>;

JsonPaths FlattenJson(const std::string& text) {
  JsonPaths out;
  std::size_t pos = 0;
  auto skip_space = [&] {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\n')) ++pos;
  };
  auto read_string = [&] {
    const std::size_t start = pos++;
    while (pos < text.size() && text[pos] != '"') {
      pos += text[pos] == '\\' ? 2 : 1;
    }
    ++pos;
    return text.substr(start, pos - start);
  };
  std::function<void(const std::string&)> value = [&](const std::string& path) {
    skip_space();
    if (pos >= text.size()) return;
    const char open = text[pos];
    if (open != '{' && open != '[') {
      const std::size_t start = pos;
      if (open == '"') {
        read_string();
      } else {
        while (pos < text.size() && text[pos] != ',' && text[pos] != '}' &&
               text[pos] != ']') {
          ++pos;
        }
      }
      out.emplace_back(path, text.substr(start, pos - start));
      return;
    }
    const char close = open == '{' ? '}' : ']';
    out.emplace_back(path, open == '{' ? "{}" : "[]");
    ++pos;
    for (int index = 0;; ++index) {
      skip_space();
      if (pos >= text.size() || text[pos] == close) break;
      if (text[pos] == ',') {
        ++pos;
        skip_space();
      }
      std::string child;
      if (open == '{') {
        const std::string key = read_string();
        child = (path.empty() ? "" : path + ".") +
                key.substr(1, key.size() - 2);
        skip_space();
        ++pos;  // ':'
      } else {
        child = path + "[" + std::to_string(index) + "]";
      }
      value(child);
    }
    ++pos;
  };
  value("");
  return out;
}

/// Value text at `path`, or "" when absent.
std::string JsonAt(const JsonPaths& paths, const std::string& path) {
  for (const auto& [p, v] : paths) {
    if (p == path) return v;
  }
  return "";
}

TEST(ServerSocketStreamTest, RepliesAreByteIdenticalToRowWiseEncoding) {
  server::ServerOptions options;
  options.session.index_cache_mb = 4;
  server::QueryServer server(options);
  LoadStreamingDataset(server);
  {
    api::Frame reg;
    reg.kind = "view_register";
    reg.Add("id", "2").Add("name", "chain").Add("kind", "join");
    reg.body = "R1(a,b), R2(b,c)";
    ASSERT_EQ(server.HandleRequest(reg)[0].kind, "end");
    reg.fields.clear();
    reg.Add("id", "3").Add("name", "hubs").Add("kind", "triangle_count");
    reg.body = "H";
    ASSERT_EQ(server.HandleRequest(reg)[0].kind, "end");
  }

  // One request per reply shape. `method` pins the route each one must
  // take, so the cases keep covering what they are named for.
  struct Case {
    api::Frame request;
    std::string method;
    bool deterministic = true;
  };
  std::vector<Case> cases = {
      {QueryFrame(10, "R(a,b), S(b,c)"), "yannakakis"},
      {QueryFrame(11, "R1(a,b), R2(a,c), R3(b,c)", {{"want_analysis", "1"}}),
       "generic-join"},
      {QueryFrame(12, "H(a,b), H(a,c), H(b,c)"), "hybrid-join"},
      // Serial, so the 1000 surviving rows are the same on every run.
      {QueryFrame(13, "R(a,b), S(b,c)",
                  {{"max_rows", "1000"}, {"threads", "1"}}),
       "yannakakis"},
      {QueryFrame(14, "R1(a,b), R2(b,c), R3(c,d), R1(d,e), R2(e,f)",
                  {{"deadline_ms", "1"}}),
       "", /*deterministic=*/false},
      {QueryFrame(15, "R(a,b), Z(b,c)"), "yannakakis"},
      {QueryFrame(16, "H(a,a)"), "yannakakis"},
      {QueryFrame(17, "R()"), ""},  // Attribute-free atoms: input error.
  };
  for (const char* view : {"chain", "hubs"}) {
    api::Frame read;
    read.kind = "view_read";
    read.Add("id", std::to_string(20 + cases.size())).Add("name", view);
    cases.push_back({read, "ivm"});
  }
  std::vector<api::Frame> requests;
  for (const Case& c : cases) requests.push_back(c.request);

  const std::string wire = ServeOverSocketpair(server, requests);
  const std::vector<std::vector<api::Frame>> replies =
      SplitReplies(ParseFrames(wire));
  ASSERT_EQ(replies.size(), cases.size());

  const db::MvccSnapshot snapshot = server.database().Snapshot();
  std::string oracle;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(cases[i].request.body + " " + cases[i].request.kind);
    const api::Frame& request = cases[i].request;
    const std::vector<api::Frame>& got = replies[i];
    if (got.front().kind == "error") {
      EXPECT_EQ(request.body, "R()");
      ASSERT_EQ(got.size(), 1u);
      oracle += api::EncodeFrame(got.front());
      continue;
    }
    ASSERT_GE(got.size(), 3u);
    ASSERT_EQ(got.front().kind, "hdr");
    ASSERT_EQ(got[got.size() - 2].kind, "report");
    ExpectedReply e;
    e.id = request.FindUint("id", 0);
    e.report = got[got.size() - 2].body;
    if (!cases[i].deterministic) {
      // A deadline trip keeps whatever rows were done: the oracle encodes
      // the decoded rows, so the check is the encoding, not the cut point.
      EXPECT_EQ(*got.front().Find("status"), "deadline-exceeded");
      e.status = "deadline-exceeded";
      e.method = *got.front().Find("method");
      e.truncated = true;
      e.epoch = snapshot.epoch;
      e.attributes = {"a", "b", "c", "d", "e", "f"};
      e.rows = DecodeBatchRows(got);
      e.code = 4;
    } else if (request.kind == "view_read") {
      e.status = "completed";
      e.method = "ivm";
      e.epoch = snapshot.epoch;
      if (*request.Find("name") == "chain") {
        api::QueryRequest qreq;
        qreq.query_text = "R1(a,b), R2(b,c)";
        db::JoinResult rows =
            api::ExecuteQuery(qreq, *snapshot.db, nullptr).result.ToRows();
        rows.Normalize();
        e.attributes = rows.attributes;
        e.rows = rows.tuples;
      } else {
        e.attributes = {"count"};
        api::QueryRequest qreq;
        qreq.query_text = "H(a,b), H(b,c), H(a,c)";
        e.rows = {{static_cast<db::Value>(
            api::ExecuteQuery(qreq, *snapshot.db, nullptr).result.rows.size())}};
      }
    } else {
      api::QueryRequest qreq;
      qreq.query_text = request.body;
      qreq.options = options.session;
      for (const auto& [key, value] : request.fields) {
        if (key == "id") continue;
        if (key == "want_analysis") {
          qreq.want_analysis = true;
          continue;
        }
        std::string err;
        ASSERT_TRUE(api::SetSessionOption(&qreq.options, key, value, &err))
            << err;
      }
      api::QueryResponse resp = api::ExecuteQuery(qreq, *snapshot.db, nullptr);
      const db::JoinResult rows = resp.result.ToRows();
      e.status = std::string(util::ToString(resp.status));
      e.method = resp.method;
      e.truncated = rows.truncated;
      e.epoch = snapshot.epoch;
      e.attributes = rows.attributes;
      e.rows = rows.tuples;
      e.analysis = resp.analysis_text;
      e.code = resp.ExitCode();
    }
    if (!cases[i].method.empty()) {
      EXPECT_EQ(*got.front().Find("method"), cases[i].method);
    }
    oracle += RowWiseReply(e);

    // The collecting adapter yields the same frames (report bodies carry
    // timings, and a deadline trip cuts at a different row each run).
    if (cases[i].deterministic) {
      std::vector<api::Frame> collected = server.HandleRequest(request);
      ASSERT_EQ(collected.size(), got.size());
      for (std::size_t f = 0; f < got.size(); ++f) {
        EXPECT_EQ(collected[f].kind, got[f].kind);
        EXPECT_EQ(collected[f].fields, got[f].fields);
        if (got[f].kind != "report") {
          EXPECT_EQ(collected[f].body, got[f].body);
        }
      }
    }
  }
  EXPECT_GT(replies[0].front().FindUint("rows", 0), 90000u);
  EXPECT_EQ(replies[3].front().FindUint("rows", 0), 1000u);
  EXPECT_EQ(replies[5].front().FindUint("rows", 1), 0u);
  ASSERT_EQ(wire.size(), oracle.size());
  const std::size_t first_diff =
      std::mismatch(wire.begin(), wire.end(), oracle.begin()).first -
      wire.begin();
  EXPECT_EQ(first_diff, wire.size()) << "reply bytes differ from the "
                                        "row-wise encoding at this offset";
}

TEST(ServerSocketStreamTest, ClientRejectsRowCountMismatch) {
  // A hand-built peer: replies whose batches carry fewer rows than hdr
  // announced (a cut or miscounted stream) must fail the round trip, not
  // decode as a shorter answer.
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);

  auto reply = [](std::uint64_t hdr_rows, std::uint64_t batch_rows) {
    api::Frame hdr;
    hdr.kind = "hdr";
    hdr.Add("id", "1").Add("status", "completed").Add("method", "fake");
    hdr.Add("rows", std::to_string(hdr_rows)).Add("truncated", "0");
    hdr.Add("epoch", "0").Add("attributes", "a b");
    api::Frame batch;
    batch.kind = "batch";
    batch.Add("id", "1").Add("rows", std::to_string(batch_rows));
    for (std::uint64_t i = 0; i < batch_rows; ++i) batch.body += "1 2\n";
    api::Frame end;
    end.kind = "end";
    end.Add("id", "1").Add("code", "0");
    return api::EncodeFrame(hdr) + api::EncodeFrame(batch) +
           api::EncodeFrame(end);
  };
  const std::vector<std::string> canned = {reply(5, 2), reply(2, 2),
                                           reply(1, 3)};
  std::thread peer([&] {
    int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    api::FrameParser parser;
    char buf[4096];
    for (const std::string& bytes : canned) {
      api::Frame request;
      std::string error;
      while (parser.Next(&request, &error) !=
             api::FrameParser::Result::kFrame) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) {
          ::close(fd);
          return;
        }
        parser.Feed(buf, static_cast<std::size_t>(n));
      }
      ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    }
    ::close(fd);
  });

  server::Client client;
  std::string error;
  const bool connected =
      client.Connect("127.0.0.1", ntohs(addr.sin_port), &error);
  EXPECT_TRUE(connected) << error;
  if (connected) {
    server::QueryReply short_reply = client.Query("R(a,b)");
    EXPECT_FALSE(short_reply.ok);
    EXPECT_NE(short_reply.error.find("protocol"), std::string::npos)
        << short_reply.error;
    server::QueryReply whole = client.Query("R(a,b)");
    EXPECT_TRUE(whole.ok) << whole.error;
    EXPECT_EQ(whole.rows, 2u);
    server::QueryReply long_reply = client.Query("R(a,b)");
    EXPECT_FALSE(long_reply.ok);
  }
  client.Close();
  ::shutdown(listener, SHUT_RDWR);  // Unblocks accept if never connected.
  peer.join();
  ::close(listener);
}

TEST(ServerSocketStreamTest, WriteFailureMidReplyClosesOnlyThatConnection) {
  server::ServerOptions options;
  options.session.index_cache_mb = 4;
  server::QueryServer server(options);
  LoadStreamingDataset(server);
  const api::Frame query = QueryFrame(7, "R(a,b), S(b,c)");

  // The producer stops at the first frame the sink refuses.
  int offered = 0;
  server.HandleRequest(query, [&offered](const api::Frame&) {
    return ++offered < 3;
  });
  EXPECT_EQ(offered, 3);

  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  server::Client doomed;
  ASSERT_TRUE(doomed.Connect("127.0.0.1", server.port(), &error)) << error;
  util::FaultRegistry& faults = util::FaultRegistry::Global();
  faults.ResetStats();
  // The ~1.5 MB reply leaves in 16 KiB writes; the third one fails, inside
  // the run of batch frames.
  ASSERT_TRUE(faults.Configure("socket.write:once=3", 1, &error)) << error;
  server::QueryReply cut = doomed.Query(query.body);
  EXPECT_FALSE(cut.ok);
  std::uint64_t evals = 0;
  for (const auto& p : faults.stats()) {
    if (p.point == "socket.write") evals = p.evals;
  }
  // No write is attempted after the failed one: the reply stopped there.
  EXPECT_EQ(evals, 3u);
  faults.Clear();
  faults.ResetStats();

  server::Client fresh;
  ASSERT_TRUE(fresh.Connect("127.0.0.1", server.port(), &error)) << error;
  server::QueryReply whole = fresh.Query(query.body);
  ASSERT_TRUE(whole.ok) << whole.error;
  EXPECT_EQ(whole.code, 0);
  EXPECT_GT(whole.rows, 90000u);
  EXPECT_EQ(static_cast<std::uint64_t>(std::count(
                whole.row_text.begin(), whole.row_text.end(), '\n')),
            whole.rows);
  server.Stop();
}

TEST(ServerSocketStreamTest, ConcurrentStreamedRepliesAreComplete) {
  server::ServerOptions options;
  options.session.index_cache_mb = 4;
  options.admission.max_concurrent = 2;
  server::QueryServer server(options);
  LoadStreamingDataset(server);
  // Text of the expected answer, from the collecting adapter.
  const std::string query = "R1(a,b), R2(b,c)";
  const std::vector<api::Frame> reference =
      server.HandleRequest(QueryFrame(1, query));
  const std::uint64_t rows = reference.front().FindUint("rows", 0);
  const std::string expected = BatchText(reference);
  ASSERT_GT(rows, 10000u);

  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  constexpr int kClients = 4;
  std::vector<int> complete(kClients, 0);
  // Reports whose cache section and index_cache.* counters disagree: both
  // must come from one IndexCache::stats() snapshot even while other
  // requests hit the cache in between.
  std::vector<int> torn_reports(kClients, 0);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      server::Client client;
      std::string err;
      if (!client.Connect("127.0.0.1", server.port(), &err)) return;
      for (int i = 0; i < 3; ++i) {
        server::QueryReply r = client.Query(query);
        if (r.ok && r.rows == rows && r.row_text == expected) ++complete[c];
        const JsonPaths report = FlattenJson(r.report_json);
        for (const std::string key : {"hits", "misses", "evictions"}) {
          const std::string section = JsonAt(report, "cache." + key);
          if (section.empty() ||
              section != JsonAt(report, "counters.index_cache." + key)) {
            ++torn_reports[c];
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(complete[c], 3) << c;
    EXPECT_EQ(torn_reports[c], 0) << c;
  }
  server.Stop();
}

// --- Pinned JSON surfaces ---------------------------------------------------

/// Drops "cache.rejected" when present (it must read 0 here): the one key
/// the cache objects may gain without breaking this pin.
JsonPaths WithoutCacheRejected(JsonPaths paths) {
  for (auto it = paths.begin(); it != paths.end(); ++it) {
    if (it->first == "cache.rejected") {
      EXPECT_EQ(it->second, "0");
      paths.erase(it);
      break;
    }
  }
  return paths;
}

/// Compares key paths in order, and values except where `expected` says
/// "*" (wall times, and readings that depend on QC_THREADS or QC_SIMD).
void ExpectPinned(const JsonPaths& actual, const JsonPaths& expected,
                  const std::string& what) {
  const std::size_t n = std::max(actual.size(), expected.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string got = i < actual.size()
                                ? actual[i].first + " = " + actual[i].second
                                : "<missing>";
    const std::string want =
        i < expected.size() ? expected[i].first + " = " + expected[i].second
                            : "<none>";
    const bool match = i < actual.size() && i < expected.size() &&
                       actual[i].first == expected[i].first &&
                       (expected[i].second == "*" ||
                        actual[i].second == expected[i].second);
    EXPECT_TRUE(match) << what << " entry " << i << ": got " << got
                       << ", want " << want;
  }
}

// Pins the key order and every deterministic value of the two JSON surfaces
// a served run explains itself with — the `stats` frame and a query's
// report frame — with every optional section present: an index cache, a
// recovered WAL, a registered view, a fault rule, and a triangle the hybrid
// planner examines. Key order matters to readers that search for the first
// key after a section name.
TEST_F(WalServerTest, StatsFrameAndReportJsonArePinned) {
  server::QueryServer server(WalOptions());
  std::string error;
  ASSERT_TRUE(server.Recover(&error)) << error;
  // A rule that never fires: the points the run evaluates are counted.
  ASSERT_TRUE(util::FaultRegistry::Global().Configure("wal.write:once=1000",
                                                      1, &error))
      << error;
  ASSERT_EQ(Mutate(server, kTriangleDataset)[0].kind, "end");
  ASSERT_EQ(RegisterViewFrame(server, "chain", "join", kChainQuery)[0].kind,
            "end");

  const std::vector<api::Frame> replies = Query(server, kTriangleQuery);
  const api::Frame* report = nullptr;
  for (const api::Frame& f : replies) {
    if (f.kind == "report") report = &f;
  }
  ASSERT_NE(report, nullptr);
  api::Frame stats_request;
  stats_request.kind = "stats";
  stats_request.Add("id", "3");
  const std::vector<api::Frame> stats_reply =
      server.HandleRequest(stats_request);
  ASSERT_EQ(stats_reply.size(), 1u);

  // "*" marks wall times and readings that follow QC_THREADS / QC_SIMD.
  const JsonPaths kReport = {
      {"", "{}"},
      {"tool", "\"qc_serverd\""},
      {"status", "\"completed\""},
      {"exit_code", "0"},
      {"threads", "*"},
      {"wall_ms", "*"},
      {"budget", "{}"},
      {"budget.deadline_armed", "false"},
      {"budget.work_used", "0"},
      {"budget.work_limit", "0"},
      {"budget.rows_used", "0"},
      {"budget.row_limit", "0"},
      {"cache", "{}"},
      {"cache.enabled", "true"},
      {"cache.hits", "0"},
      {"cache.misses", "3"},
      {"cache.evictions", "0"},
      {"cache.bytes", "1026"},
      {"cache.capacity_bytes", "4194304"},
      {"cache.entries", "3"},
      {"stats", "{}"},
      {"stats.simd_level", "*"},
      {"stats.arena_high_water_bytes", "336"},
      {"counters", "{}"},
      {"counters.fault.wal.write.evals", "2"},
      {"counters.fault.wal.write.fires", "0"},
      {"counters.generic_join.gallops", "0"},
      {"counters.generic_join.nodes", "13"},
      {"counters.generic_join.probes", "2"},
      {"counters.generic_join.simd_blocks", "0"},
      {"counters.hybrid.heavy_tuples", "3"},
      {"counters.hybrid.heavy_values", "4"},
      {"counters.index_cache.evictions", "0"},
      {"counters.index_cache.hits", "0"},
      {"counters.index_cache.misses", "3"},
      {"counters.index_cache.rejected", "0"},
      {"counters.trie.nodes", "30"},
      {"gauges", "{}"},
      {"gauges.arena.high_water_bytes", "336"},
      {"gauges.index_cache.bytes", "1026"},
      {"gauges.index_cache.capacity_bytes", "4194304"},
      {"gauges.index_cache.entries", "3"},
      {"gauges.simd.level", "*"},
      {"gauges.threads", "*"},
      {"spans", "[]"},
      {"server", "{}"},
      {"server.request_id", "2"},
      {"server.queue_ms", "*"},
      {"server.snapshot_epoch", "1"},
      {"planner", "{}"},
      {"planner.pattern", "\"triangle\""},
      {"planner.threshold", "2"},
      {"planner.threshold_overridden", "false"},
      {"planner.delegated", "false"},
      {"planner.heavy_values", "4"},
      {"planner.heavy_tuples", "3"},
      {"planner.light_tuples", "0"},
      {"planner.heavy_rows", "0"},
      {"planner.light_rows", "0"},
      {"ivm", "{}"},
      {"ivm.views", "1"},
      {"ivm.updates", "0"},
      {"ivm.dirty_subtree_sweeps", "0"},
      {"ivm.rows_delta_applied", "0"},
      {"ivm.full_recomputes", "1"},
  };
  const JsonPaths kStats = {
      {"", "{}"},
      {"connections", "0"},
      {"requests", "4"},
      {"queries", "1"},
      {"mutations", "1"},
      {"mutations_deduped", "0"},
      {"view_registers", "1"},
      {"view_reads", "0"},
      {"input_errors", "0"},
      {"protocol_errors", "0"},
      {"queue_sheds", "0"},
      {"drain_rejects", "0"},
      {"draining", "false"},
      {"admission", "{}"},
      {"admission.admitted", "1"},
      {"admission.rejected", "0"},
      {"admission.timed_out", "0"},
      {"admission.max_queued", "0"},
      {"admission.running", "0"},
      {"admission.queued", "0"},
      {"mvcc", "{}"},
      {"mvcc.mutations", "1"},
      {"mvcc.snapshots", "1"},
      {"mvcc.snapshot_builds", "1"},
      {"mvcc.wal_rejections", "0"},
      {"ivm", "{}"},
      {"ivm.views", "1"},
      {"ivm.updates", "0"},
      {"ivm.dirty_subtree_sweeps", "0"},
      {"ivm.rows_delta_applied", "0"},
      {"ivm.full_recomputes", "1"},
      {"wal", "{}"},
      {"wal.enabled", "true"},
      {"wal.records_appended", "2"},
      {"wal.bytes_appended", "209"},
      {"wal.syncs", "0"},
      {"wal.compactions", "0"},
      {"wal.log_bytes", "225"},
      {"wal.append_failures", "0"},
      {"wal.recovered", "{}"},
      {"wal.recovered.ran", "true"},
      {"wal.recovered.snapshot_records", "0"},
      {"wal.recovered.log_records", "0"},
      {"wal.recovered.torn_bytes_truncated", "0"},
      {"wal.recovered.duplicate_records_skipped", "0"},
      {"wal.recovered.stale_log_bytes_skipped", "0"},
      {"wal.recovered.request_ids", "0"},
      {"wal.recovered.view_defs", "0"},
      {"wal.recovered.views_rebuilt", "0"},
      {"wal.recovered.views_failed", "0"},
      {"cache", "{}"},
      {"cache.enabled", "true"},
      {"cache.hits", "0"},
      {"cache.misses", "3"},
      {"cache.evictions", "0"},
      {"cache.bytes", "1026"},
      {"cache.capacity_bytes", "4194304"},
      {"cache.entries", "3"},
      {"faults", "{}"},
      {"faults.wal.write", "{}"},
      {"faults.wal.write.evals", "2"},
      {"faults.wal.write.fires", "0"},
  };
  ExpectPinned(WithoutCacheRejected(FlattenJson(report->body)), kReport,
               "report");
  ExpectPinned(WithoutCacheRejected(FlattenJson(stats_reply[0].body)), kStats,
               "stats");
}

}  // namespace
}  // namespace qc
