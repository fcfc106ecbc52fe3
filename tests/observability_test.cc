// Observability-layer tests: the per-budget Poll stride cache (the
// cross-budget starvation regression), the span/trace subsystem's
// determinism and disabled-path cost, the counter-vs-gauge merge semantics
// of Counters, and the RunReport JSON schema. The tsan
// preset runs the Trace suites at QC_THREADS=8.

#include <cctype>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/context.h"
#include "db/agm.h"
#include "db/database.h"
#include "db/generic_join.h"
#include "gtest/gtest.h"
#include "kernels/dispatch.h"
#include "util/budget.h"
#include "util/counters.h"
#include "util/rng.h"
#include "util/run_report.h"
#include "util/timer.h"
#include "util/trace.h"

// Wall-clock bounds are scaled up when a sanitizer instruments the build.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define QC_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define QC_UNDER_SANITIZER 1
#endif
#endif

namespace qc {
namespace {

db::JoinQuery TriangleQuery() {
  db::JoinQuery q;
  q.Add("R1", {"a", "b"}).Add("R2", {"a", "c"}).Add("R3", {"b", "c"});
  return q;
}

// ---------------------------------------------------------------------------
// Budget: the stride cache must be per-(budget, arming), never shared.

// The headline regression: with a process-wide thread_local stride counter,
// 255 polls of far-future budget A left a countdown that budget B's first
// poll decremented — B's already-expired deadline was not checked until up
// to kPollStride more polls. The per-budget epoch tag makes B's first poll
// consult the clock.
TEST(BudgetStarvation, SecondBudgetTripsOnFirstPollAfterPollingAnother) {
  util::Budget a;
  a.ArmDeadlineAfter(3600.0);  // Armed, never trips; engages the stride path.
  for (int i = 0; i < 255; ++i) EXPECT_FALSE(a.Poll());

  util::Budget b;
  b.ArmDeadlineAfter(-1.0);  // Already expired.
  EXPECT_TRUE(b.Poll()) << "budget B's first poll must check its deadline "
                           "even after polling budget A";
  EXPECT_EQ(b.status(), util::RunStatus::kDeadlineExceeded);
  // A is still healthy: its own stride state was not corrupted by B.
  EXPECT_FALSE(a.Poll());
  EXPECT_EQ(a.status(), util::RunStatus::kCompleted);
}

TEST(BudgetStarvation, TwoBudgetInterleavedPollPromptness) {
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    // One far-future budget shared by all workers, plus one pre-expired
    // budget per worker: every worker drains 255 polls of the shared budget
    // on its own thread (populating that thread's stride slot), then its
    // expired budget must trip on the very first poll.
    util::Budget shared;
    shared.ArmDeadlineAfter(3600.0);
    std::vector<std::unique_ptr<util::Budget>> expired;
    for (int t = 0; t < threads; ++t) {
      expired.push_back(std::make_unique<util::Budget>());
      expired.back()->ArmDeadlineAfter(-1.0);
    }
    std::vector<std::thread> workers;
    std::vector<int> first_poll_tripped(threads, 0);
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (int i = 0; i < 255; ++i) shared.Poll();
        first_poll_tripped[t] = expired[t]->Poll() ? 1 : 0;
      });
    }
    for (auto& w : workers) w.join();
    for (int t = 0; t < threads; ++t) {
      EXPECT_EQ(first_poll_tripped[t], 1) << "worker " << t;
      EXPECT_EQ(expired[t]->status(), util::RunStatus::kDeadlineExceeded);
    }
    EXPECT_EQ(shared.status(), util::RunStatus::kCompleted);
  }
}

TEST(BudgetStarvation, RearmRestoresFirstPollPromptness) {
  util::Budget b;
  b.ArmDeadlineAfter(3600.0);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(b.Poll());  // Mid-stride.
  b.ArmDeadlineAfter(-1.0);  // Re-arm with an expired deadline.
  EXPECT_TRUE(b.Poll()) << "re-arming must invalidate the stride cache";
}

TEST(BudgetStarvation, ResetRestoresFirstPollPromptness) {
  util::Budget b;
  b.ArmDeadlineAfter(-1.0);
  EXPECT_TRUE(b.Poll());
  // Reset clears the trip but the (still expired) deadline stays armed; a
  // stale countdown must not grant the next run a free stride.
  b.Reset();
  EXPECT_FALSE(b.Stopped());
  EXPECT_TRUE(b.Poll());
  EXPECT_EQ(b.status(), util::RunStatus::kDeadlineExceeded);
}

// ---------------------------------------------------------------------------
// Trace: determinism across thread counts, tree shape, disabled-path cost.

TEST(TraceDeterminism, SpanTreeIdenticalAcrossThreadCounts) {
  util::Rng rng(1);
  db::JoinQuery q = TriangleQuery();
  db::Database d = db::RandomDatabase(q, 1024, 512, &rng);
  std::string baseline;
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    ExecutionContext ctx;
    ctx.threads = threads;
    util::Trace::Enable();
    db::GenericJoin join(q, d, ctx);
    std::uint64_t count = join.Count();
    util::TraceReport report = util::Trace::Collect();
    util::Trace::Disable();
    ASSERT_GT(count, 0u);
    ASSERT_FALSE(report.empty());
    std::string tree = report.TreeString();
    if (threads == 1) {
      baseline = tree;
      // The instrumented stages are all present.
      EXPECT_NE(report.root.Find("generic_join.build_trie"), nullptr);
      EXPECT_NE(report.root.Find("generic_join.search.root"), nullptr);
      EXPECT_NE(report.root.Find("generic_join.search.level0"), nullptr);
      // Level-0 spans open once per root candidate batch entry, level-1
      // once per expanded level-0 node: counts mirror the search shape.
      const util::TraceNode* level1 =
          report.root.Find("generic_join.search.level1");
      ASSERT_NE(level1, nullptr);
      EXPECT_GT(level1->count, 0u);
    } else {
      EXPECT_EQ(tree, baseline)
          << "span tree must be bit-identical at any thread count";
    }
  }
}

TEST(TraceDeterminism, DottedNamesBuildTheTree) {
  util::Trace::Enable();
  std::uint32_t parent = util::Trace::InternName("engine.stage");
  std::uint32_t child = util::Trace::InternName("engine.stage.substage");
  util::Trace::Record(parent, 1000);
  util::Trace::Record(child, 250);
  util::Trace::Record(child, 250);
  util::TraceReport report = util::Trace::Collect();
  util::Trace::Disable();
  const util::TraceNode* stage = report.root.Find("engine.stage");
  ASSERT_NE(stage, nullptr);
  EXPECT_EQ(stage->count, 1u);
  EXPECT_EQ(stage->total_ns, 1000);
  auto it = stage->children.find("substage");
  ASSERT_NE(it, stage->children.end());
  EXPECT_EQ(it->second.count, 2u);
  EXPECT_EQ(it->second.total_ns, 500);
  EXPECT_EQ(report.root.Find("engine.absent"), nullptr);
  // The canonical rendering excludes timings and sorts by name.
  EXPECT_EQ(report.TreeString(),
            "engine count=0\n"
            "  stage count=1\n"
            "    substage count=2\n");
}

TEST(TraceDeterminism, CollectIsRepeatableAndResetClears) {
  util::Trace::Enable();
  std::uint32_t id = util::Trace::InternName("engine.repeat");
  util::Trace::Record(id, 1);
  util::TraceReport first = util::Trace::Collect();
  util::TraceReport second = util::Trace::Collect();
  EXPECT_EQ(first.TreeString(), second.TreeString());
  EXPECT_EQ(first.total_records, second.total_records);
  util::Trace::Reset();
  EXPECT_TRUE(util::Trace::Collect().empty());
  util::Trace::Disable();
}

TEST(TraceDeterminism, BufferOverflowFoldsInsteadOfDropping) {
  util::Trace::Enable();
  std::uint32_t id = util::Trace::InternName("engine.flood");
  const std::uint64_t n = 3 * util::Trace::kBufferCapacity + 17;
  for (std::uint64_t i = 0; i < n; ++i) util::Trace::Record(id, 1);
  util::TraceReport report = util::Trace::Collect();
  util::Trace::Disable();
  util::Trace::Reset();
  const util::TraceNode* node = report.root.Find("engine.flood");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->count, n);
  EXPECT_EQ(node->total_ns, static_cast<std::int64_t>(n));
}

TEST(TraceDeterminism, DisabledTracingIsCheap) {
  ASSERT_FALSE(util::Trace::enabled());
  static const std::uint32_t kId = util::Trace::InternName("engine.noop");
  // 10M disabled span constructions: each is one relaxed load. Generous
  // bound (sanitizer-scaled) — this guards against accidentally putting a
  // lock or a clock read on the disabled path, not against micro-jitter.
  constexpr int kSpans = 10'000'000;
  util::Timer timer;
  for (int i = 0; i < kSpans; ++i) {
    util::ScopedSpan span(kId);
  }
  double ms = timer.Millis();
#ifdef QC_UNDER_SANITIZER
  EXPECT_LT(ms, 5000.0);
#else
  EXPECT_LT(ms, 500.0);
#endif
}

// ---------------------------------------------------------------------------
// Counters: gauge keys must not double-count on merge.

TEST(MetricsTest, EightWorkerMergeSumsCountersAndMaxesGauges) {
  // Regression: Merge used to Add() gauge keys, so a "threads" gauge merged
  // from 8 workers read 64.
  util::Counters total;
  for (int w = 0; w < 8; ++w) {
    util::Counters worker;
    worker.Add("work.items", 100);
    worker.Set("threads", 8);
    worker.Set("peak_depth", static_cast<std::uint64_t>(w));
    total.Merge(worker);
  }
  EXPECT_EQ(total.Get("work.items"), 800u);
  EXPECT_EQ(total.Get("threads"), 8u);
  EXPECT_EQ(total.Get("peak_depth"), 7u);  // Max across workers.
  EXPECT_FALSE(total.IsGauge("work.items"));
  EXPECT_TRUE(total.IsGauge("threads"));
}

TEST(MetricsTest, MergePreservesGaugeKindAcrossChains) {
  util::Counters a, b, c;
  a.Set("threads", 4);
  b.Merge(a);   // b learns "threads" is a gauge.
  c.Set("threads", 2);
  c.Merge(b);   // Max, not sum: 4, not 6.
  EXPECT_EQ(c.Get("threads"), 4u);
  EXPECT_TRUE(c.IsGauge("threads"));
}

TEST(MetricsTest, UnknownRunStatusIsSurfacedNotSwallowed) {
  util::RunStatus bogus = static_cast<util::RunStatus>(42);
  EXPECT_FALSE(util::IsKnown(bogus));
  EXPECT_EQ(util::ToString(bogus), "internal-error");
  EXPECT_EQ(util::ExitCode(bogus), 7);
  for (util::RunStatus s :
       {util::RunStatus::kCompleted, util::RunStatus::kDeadlineExceeded,
        util::RunStatus::kBudgetExhausted, util::RunStatus::kCancelled}) {
    EXPECT_TRUE(util::IsKnown(s));
    EXPECT_NE(util::ToString(s), "internal-error");
    EXPECT_NE(util::ExitCode(s), 7);
  }
}

// ---------------------------------------------------------------------------
// RunReport: the one JSON schema every tool emits.

/// Tiny recursive-descent JSON validator: enough to check the report is
/// well-formed and to pull out top-level keys, with no external dependency.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    return Value() && (SkipWs(), pos_ == s_.size());
  }

 private:
  bool Value() {
    SkipWs();
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') return ++pos_, true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') return ++pos_, true;
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') return ++pos_, true;
    while (true) {
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') return ++pos_, true;
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // Closing quote.
    return true;
  }

  bool Number() {
    std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* word) {
    std::size_t len = std::string(word).size();
    if (s_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(RunReportTest, TriangleJoinReportIsValidJsonWithAllSections) {
  util::Rng rng(1);
  db::JoinQuery q = TriangleQuery();
  db::Database d = db::RandomDatabase(q, 512, 256, &rng);
  util::Counters counters;
  ExecutionContext ctx;
  ctx.counters = &counters;
  auto budget = std::make_shared<util::Budget>();
  budget->ArmRowLimit(1u << 20);
  ctx.budget = budget;
  util::Trace::Enable();
  db::GenericJoin join(q, d, ctx);
  db::JoinResult r = join.Evaluate();

  util::RunReport report;
  report.tool = "observability_test";
  report.status = join.status();
  report.threads = ctx.ResolvedThreads();
  report.wall_ms = 1.5;
  report.FillBudget(*budget, /*deadline_armed=*/false);
  report.counters = counters;
  report.counters.Set("threads", ctx.ResolvedThreads());
  report.trace = util::Trace::Collect();
  util::Trace::Disable();
  util::Trace::Reset();

  std::string json = report.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  // Required top-level sections.
  for (const char* key : {"\"tool\"", "\"status\"", "\"exit_code\"",
                          "\"threads\"", "\"wall_ms\"", "\"budget\"",
                          "\"stats\"", "\"counters\"", "\"gauges\"",
                          "\"spans\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
  // The stats section records the dispatched kernel level truthfully.
  EXPECT_NE(json.find("\"simd_level\": \"" +
                      std::string(kernels::SimdLevelName(
                          kernels::ActiveSimdLevel())) +
                      "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"arena_high_water_bytes\": "), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"completed\""), std::string::npos);
  EXPECT_NE(json.find("\"rows_used\": "), std::string::npos);
  // The traced run landed in the span tree; counters and gauges are split.
  EXPECT_NE(json.find("\"generic_join\""), std::string::npos);
  EXPECT_NE(json.find("generic_join.nodes"), std::string::npos);
  EXPECT_NE(json.find("\"threads\": " +
                      std::to_string(ctx.ResolvedThreads())),
            std::string::npos);
  ASSERT_FALSE(r.truncated);
  EXPECT_EQ(budget->rows_used(), r.tuples.size());
}

TEST(RunReportTest, EscapesAndNestsSpans) {
  util::RunReport report;
  report.tool = "tool \"with\" quotes\nand newline";
  report.trace.root.children["a"].children["b"].count = 2;
  std::string json = report.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\\\"with\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  // Nested span object: a's children array holds b.
  EXPECT_NE(json.find("\"name\": \"a\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"b\""), std::string::npos);
}

}  // namespace
}  // namespace qc
