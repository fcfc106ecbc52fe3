// Budget/cancellation subsystem tests: Budget semantics, prompt termination
// of every engine under a ~0 deadline at 1/2/8 threads, deterministic
// pre-cancelled behaviour, row-limit partial results, concurrent external
// cancellation (the tsan preset runs these suites at QC_THREADS=8), and
// bit-identical results with and without an armed-but-untripped budget.

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/analyzer.h"
#include "core/autosolver.h"
#include "core/context.h"
#include "csp/generators.h"
#include "csp/solver.h"
#include "csp/treedp.h"
#include "db/agm.h"
#include "db/enumeration.h"
#include "db/generic_join.h"
#include "db/yannakakis.h"
#include "finegrained/hyperclique.h"
#include "finegrained/orthogonal_vectors.h"
#include "graph/colorcoding.h"
#include "graph/generators.h"
#include "graph/hypergraph.h"
#include "graph/treewidth.h"
#include "graph/triangles.h"
#include "gtest/gtest.h"
#include "sat/cdcl.h"
#include "sat/dpll.h"
#include "sat/generators.h"
#include "util/budget.h"
#include "util/rng.h"
#include "util/timer.h"

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

#ifdef QC_UNDER_SANITIZER
constexpr double kPromptMillis = 2000.0;
#else
constexpr double kPromptMillis = 100.0;
#endif

/// A budget whose deadline has already passed and whose trip has been
/// registered. Arming bumps the budget's epoch, which invalidates every
/// thread's stride cache, so the very first Poll() consults the clock and
/// trips; the loop is belt-and-braces. Engines then observe the trip at
/// their first safe point, making the promptness tests deterministic.
void ArmExpired(util::Budget* b) {
  b->ArmDeadlineAfter(0.0);
  while (!b->Poll()) {
  }
}

db::JoinQuery TriangleQuery() {
  db::JoinQuery q;
  q.Add("R1", {"a", "b"}).Add("R2", {"a", "c"}).Add("R3", {"b", "c"});
  return q;
}

db::JoinQuery PathQuery() {
  db::JoinQuery q;
  q.Add("R", {"a", "b"}).Add("S", {"b", "c"}).Add("T", {"c", "d"});
  return q;
}

// ---------------------------------------------------------------------------
// Budget semantics

TEST(BudgetTest, UnarmedNeverTrips) {
  util::Budget b;
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(b.Poll());
  EXPECT_FALSE(b.ChargeWork(1000));
  EXPECT_FALSE(b.ChargeRows(1000));
  EXPECT_FALSE(b.Stopped());
  EXPECT_EQ(b.status(), util::RunStatus::kCompleted);
}

TEST(BudgetTest, CancelTripsImmediately) {
  util::Budget b;
  b.RequestCancel();
  EXPECT_TRUE(b.Poll());
  EXPECT_TRUE(b.Stopped());
  EXPECT_EQ(b.status(), util::RunStatus::kCancelled);
}

TEST(BudgetTest, FirstCauseWins) {
  util::Budget b;
  b.ArmWorkLimit(1);
  EXPECT_TRUE(b.ChargeWork());  // Trips kBudgetExhausted.
  b.RequestCancel();            // Too late; cause is already recorded.
  EXPECT_EQ(b.status(), util::RunStatus::kBudgetExhausted);
}

TEST(BudgetTest, WorkLimitTripsAtLimit) {
  util::Budget b;
  b.ArmWorkLimit(10);
  for (int i = 0; i < 9; ++i) EXPECT_FALSE(b.ChargeWork());
  EXPECT_TRUE(b.ChargeWork());
  EXPECT_EQ(b.status(), util::RunStatus::kBudgetExhausted);
  EXPECT_GE(b.work_used(), 10u);
}

TEST(BudgetTest, RowLimitTripsAtLimit) {
  util::Budget b;
  b.ArmRowLimit(3);
  EXPECT_FALSE(b.ChargeRows());
  EXPECT_FALSE(b.ChargeRows());
  EXPECT_TRUE(b.ChargeRows());
  EXPECT_EQ(b.status(), util::RunStatus::kBudgetExhausted);
}

TEST(BudgetTest, ExpiredDeadlineTripsWithinOneStride) {
  util::Budget b;
  ArmExpired(&b);
  bool tripped = false;
  // Arming invalidates the stride cache, so the first poll already consults
  // the clock; the loop only documents the stride upper bound.
  for (int i = 0; i < 1000 && !tripped; ++i) tripped = b.Poll();
  EXPECT_TRUE(tripped);
  EXPECT_EQ(b.status(), util::RunStatus::kDeadlineExceeded);
}

TEST(BudgetTest, ExpiredDeadlineTripsOnTheVeryFirstPoll) {
  // Regression for the cross-instance stride cache: the first poll after
  // arming must consult the clock, not inherit another budget's countdown.
  util::Budget b;
  b.ArmDeadlineAfter(-1.0);
  EXPECT_TRUE(b.Poll());
  EXPECT_EQ(b.status(), util::RunStatus::kDeadlineExceeded);
}

TEST(BudgetTest, ResetClearsTrip) {
  util::Budget b;
  b.ArmWorkLimit(1);
  EXPECT_TRUE(b.ChargeWork());
  b.Reset();
  EXPECT_FALSE(b.Stopped());
  EXPECT_EQ(b.work_used(), 0u);
}

// ---------------------------------------------------------------------------
// Prompt termination per engine (~0 deadline; 1/2/8 threads where the
// engine is threaded)

TEST(CancellationPromptness, GenericJoinAllEntryPoints) {
  util::Rng rng(1);
  db::JoinQuery q = TriangleQuery();
  db::Database d = db::RandomDatabase(q, 4096, 2048, &rng);
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    ExecutionContext ctx;
    ctx.threads = threads;
    ctx.budget = std::make_shared<util::Budget>();
    ArmExpired(ctx.budget.get());
    util::Timer timer;
    db::GenericJoin join(q, d, ctx);
    db::JoinResult r = join.Evaluate();
    EXPECT_LT(timer.Millis(), kPromptMillis);
    EXPECT_EQ(join.status(), util::RunStatus::kDeadlineExceeded);
    EXPECT_TRUE(r.truncated);

    ctx.budget->Reset();
    ArmExpired(ctx.budget.get());
    timer.Reset();
    db::GenericJoin counter(q, d, ctx);
    counter.Count();
    EXPECT_LT(timer.Millis(), kPromptMillis);
    EXPECT_EQ(counter.status(), util::RunStatus::kDeadlineExceeded);

    ctx.budget->Reset();
    ArmExpired(ctx.budget.get());
    timer.Reset();
    db::GenericJoin empty(q, d, ctx);
    empty.IsEmpty();
    EXPECT_LT(timer.Millis(), kPromptMillis);
    // "Empty" under a tripped budget is untrustworthy, and the status says
    // so.
    EXPECT_EQ(empty.status(), util::RunStatus::kDeadlineExceeded);
  }
}

TEST(CancellationPromptness, YannakakisAndEnumerator) {
  util::Rng rng(2);
  db::JoinQuery q = PathQuery();
  db::Database d = db::RandomDatabase(q, 20000, 4000, &rng);
  util::Budget budget;
  ArmExpired(&budget);
  util::Timer timer;
  auto r = db::EvaluateYannakakis(q, d, nullptr, &budget);
  EXPECT_LT(timer.Millis(), kPromptMillis);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->truncated);
  EXPECT_EQ(r->attributes, q.AttributeOrder());

  budget.Reset();
  ArmExpired(&budget);
  timer.Reset();
  db::AcyclicEnumerator enumerator(q, d, &budget);
  while (enumerator.Next().has_value()) {
  }
  EXPECT_LT(timer.Millis(), kPromptMillis);
  EXPECT_EQ(enumerator.status(), util::RunStatus::kDeadlineExceeded);
}

TEST(CancellationPromptness, ExactTreewidth) {
  util::Rng rng(3);
  graph::Graph g = graph::RandomGnp(20, 0.3, &rng);
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    util::Budget budget;
    ArmExpired(&budget);
    util::Timer timer;
    graph::ExactTreewidthResult r =
        graph::ExactTreewidth(g, 24, threads, &budget);
    EXPECT_LT(timer.Millis(), kPromptMillis);
    EXPECT_EQ(r.status, util::RunStatus::kDeadlineExceeded);
    EXPECT_EQ(r.treewidth, -1);
    EXPECT_TRUE(r.decomposition.bags.empty());
  }
}

TEST(CancellationPromptness, ColorCoding) {
  util::Rng rng(4);
  graph::Graph g = graph::RandomGnp(200, 0.05, &rng);
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    util::Budget budget;
    ArmExpired(&budget);
    util::Rng search_rng(11);
    util::Timer timer;
    auto path = graph::FindKPathColorCoding(g, 9, &search_rng, /*rounds=*/64,
                                            threads, &budget);
    EXPECT_LT(timer.Millis(), kPromptMillis);
    EXPECT_FALSE(path.has_value());
    EXPECT_EQ(budget.status(), util::RunStatus::kDeadlineExceeded);
  }
}

TEST(CancellationPromptness, SatSolvers) {
  util::Rng rng(5);
  sat::CnfFormula f = sat::RandomKSat(60, 256, 3, &rng);

  util::Budget budget;
  ArmExpired(&budget);
  sat::CdclSolver::Options copts;
  copts.budget = &budget;
  util::Timer timer;
  sat::SatResult cr = sat::CdclSolver(copts).Solve(f);
  EXPECT_LT(timer.Millis(), kPromptMillis);
  EXPECT_FALSE(cr.satisfiable);  // Unknown, per cr.status.
  EXPECT_EQ(cr.status, util::RunStatus::kDeadlineExceeded);

  budget.Reset();
  ArmExpired(&budget);
  sat::DpllSolver::Options dopts;
  dopts.budget = &budget;
  timer.Reset();
  sat::SatResult dr = sat::DpllSolver(dopts).Solve(f);
  EXPECT_LT(timer.Millis(), kPromptMillis);
  EXPECT_FALSE(dr.satisfiable);
  EXPECT_EQ(dr.status, util::RunStatus::kDeadlineExceeded);

  budget.Reset();
  ArmExpired(&budget);
  timer.Reset();
  sat::SatResult br = sat::SolveBruteForce(f, &budget);
  EXPECT_LT(timer.Millis(), kPromptMillis);
  EXPECT_FALSE(br.satisfiable);
  EXPECT_EQ(br.status, util::RunStatus::kDeadlineExceeded);
}

TEST(CancellationPromptness, CspEngines) {
  util::Rng rng(6);
  graph::Graph structure = graph::RandomGnp(40, 0.2, &rng);
  csp::CspInstance instance = csp::RandomBinaryCsp(structure, 8, 0.4, &rng);

  util::Budget budget;
  ArmExpired(&budget);
  csp::BacktrackingSolver::Options opts;
  opts.budget = &budget;
  util::Timer timer;
  csp::CspSolution sol = csp::BacktrackingSolver(opts).Solve(instance);
  EXPECT_LT(timer.Millis(), kPromptMillis);
  EXPECT_FALSE(sol.found);  // Unknown, per sol.status.
  EXPECT_EQ(sol.status, util::RunStatus::kDeadlineExceeded);

  budget.Reset();
  ArmExpired(&budget);
  timer.Reset();
  csp::TreeDpResult dp = csp::SolveTreewidthDp(instance, 16, 1, &budget);
  EXPECT_LT(timer.Millis(), kPromptMillis);
  EXPECT_EQ(dp.status, util::RunStatus::kDeadlineExceeded);
}

TEST(CancellationPromptness, FineGrainedSearches) {
  util::Rng rng(7);
  graph::Hypergraph h = graph::RandomUniformHypergraph(40, 3, 0.4, &rng);
  util::Budget budget;
  ArmExpired(&budget);
  finegrained::HypercliqueSearcher searcher(h, 3, &budget);
  util::Timer timer;
  auto found = searcher.Find(6);
  EXPECT_LT(timer.Millis(), kPromptMillis);
  EXPECT_FALSE(found.has_value());
  EXPECT_EQ(searcher.status(), util::RunStatus::kDeadlineExceeded);

  budget.Reset();
  ArmExpired(&budget);
  timer.Reset();
  searcher.Count(4);
  EXPECT_LT(timer.Millis(), kPromptMillis);
  EXPECT_EQ(searcher.status(), util::RunStatus::kDeadlineExceeded);

  finegrained::OvInstance ov =
      finegrained::RandomOvInstance(2000, 128, 0.9, &rng);
  budget.Reset();
  ArmExpired(&budget);
  timer.Reset();
  auto pair = finegrained::FindOrthogonalPair(ov, &budget);
  EXPECT_LT(timer.Millis(), kPromptMillis);
  EXPECT_FALSE(pair.has_value());
  EXPECT_TRUE(budget.Stopped());

  budget.Reset();
  ArmExpired(&budget);
  timer.Reset();
  finegrained::CountOrthogonalPairs(ov, &budget);
  EXPECT_LT(timer.Millis(), kPromptMillis);
  EXPECT_TRUE(budget.Stopped());
}

TEST(CancellationPromptness, CoreEntryPoints) {
  util::Rng rng(8);
  // A 16-clique query: the exact treewidth DP would be the expensive part.
  db::JoinQuery q;
  for (int i = 0; i < 16; ++i) {
    for (int j = i + 1; j < 16; ++j) {
      q.Add("E" + std::to_string(i) + "_" + std::to_string(j),
            {"x" + std::to_string(i), "x" + std::to_string(j)});
    }
  }
  ExecutionContext ctx;
  ctx.budget = std::make_shared<util::Budget>();
  ArmExpired(ctx.budget.get());
  util::Timer timer;
  core::Analysis a = core::AnalyzeQuery(q, ctx);
  EXPECT_LT(timer.Millis(), kPromptMillis);
  EXPECT_EQ(a.status, util::RunStatus::kDeadlineExceeded);
  EXPECT_FALSE(a.treewidth_exact);  // Degraded to the heuristic bound.
  EXPECT_GE(a.treewidth, 0);        // But still well-formed.

  graph::Graph structure = graph::RandomGnp(30, 0.2, &rng);
  csp::CspInstance instance = csp::RandomBinaryCsp(structure, 4, 0.4, &rng);
  ctx.budget->Reset();
  ArmExpired(ctx.budget.get());
  timer.Reset();
  core::AutoCspResult cr = core::SolveCspAuto(instance, ctx);
  EXPECT_LT(timer.Millis(), kPromptMillis);
  EXPECT_EQ(cr.status, util::RunStatus::kDeadlineExceeded);

  db::JoinQuery tq = TriangleQuery();
  db::Database d = db::RandomDatabase(tq, 2048, 1024, &rng);
  ctx.budget->Reset();
  ArmExpired(ctx.budget.get());
  timer.Reset();
  core::AutoQueryResult qr = core::EvaluateQueryAuto(tq, d, ctx);
  EXPECT_LT(timer.Millis(), kPromptMillis);
  EXPECT_EQ(qr.status, util::RunStatus::kDeadlineExceeded);
  EXPECT_TRUE(qr.result.truncated);
}

TEST(CancellationPromptness, TriangleDetectors) {
  // FindTriangleMatrix / FindTriangleAyz / CountTriangles accept a Budget
  // and must observe a trip promptly — returning nullopt / a partial count
  // even though K_300 is full of triangles, proving they aborted rather
  // than completed.
  graph::Graph g = graph::Complete(300);
  util::Budget b;
  ArmExpired(&b);
  util::Timer timer;
  EXPECT_FALSE(graph::FindTriangleMatrix(g, &b).has_value());
  EXPECT_LT(timer.Millis(), kPromptMillis);
  EXPECT_TRUE(b.Stopped());

  // Default delta ≈ sqrt(m) = 211 < 299: every vertex heavy, MM phase.
  b.Reset();
  ArmExpired(&b);
  timer.Reset();
  EXPECT_FALSE(graph::FindTriangleAyz(g, 0, &b).has_value());
  EXPECT_LT(timer.Millis(), kPromptMillis);

  // delta ≥ max degree: every vertex light, the scan phase polls.
  b.Reset();
  ArmExpired(&b);
  timer.Reset();
  EXPECT_FALSE(graph::FindTriangleAyz(g, 400, &b).has_value());
  EXPECT_LT(timer.Millis(), kPromptMillis);

  b.Reset();
  ArmExpired(&b);
  timer.Reset();
  EXPECT_EQ(graph::CountTriangles(g, &b), 0u);  // Partial undercount.
  EXPECT_LT(timer.Millis(), kPromptMillis);

  // An armed-but-untripped budget never changes the answer.
  util::Budget generous;
  generous.ArmDeadlineAfter(3600.0);
  EXPECT_TRUE(graph::FindTriangleMatrix(g, &generous).has_value());
  EXPECT_TRUE(graph::FindTriangleAyz(g, 0, &generous).has_value());
  EXPECT_EQ(graph::CountTriangles(g, &generous), graph::CountTriangles(g));
}

// ---------------------------------------------------------------------------
// Pre-cancelled budgets: deterministic kCancelled everywhere

TEST(CancellationPromptness, PreCancelledBudgetReportsCancelled) {
  util::Rng rng(9);
  db::JoinQuery q = TriangleQuery();
  db::Database d = db::RandomDatabase(q, 512, 256, &rng);
  ExecutionContext ctx;
  ctx.budget = std::make_shared<util::Budget>();
  ctx.budget->RequestCancel();
  db::GenericJoin join(q, d, ctx);
  db::JoinResult r = join.Evaluate();
  EXPECT_EQ(join.status(), util::RunStatus::kCancelled);
  EXPECT_TRUE(r.truncated);
  EXPECT_TRUE(r.tuples.empty());

  core::AutoQueryResult qr = core::EvaluateQueryAuto(q, d, ctx);
  EXPECT_EQ(qr.status, util::RunStatus::kCancelled);
}

// ---------------------------------------------------------------------------
// Row limits: exact partial results

TEST(CancellationRowLimit, SerialEvaluateStopsAtExactlyMaxRows) {
  util::Rng rng(10);
  db::JoinQuery q = TriangleQuery();
  db::Database d = db::RandomDatabase(q, 1024, 64, &rng);
  ExecutionContext ctx;
  ctx.threads = 1;
  std::uint64_t full_count = db::GenericJoin(q, d, ctx).Count();
  ASSERT_GT(full_count, 10u);

  ctx.max_output_rows = 10;
  db::GenericJoin join(q, d, ctx);
  db::JoinResult r = join.Evaluate();
  EXPECT_EQ(r.tuples.size(), 10u);
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(join.status(), util::RunStatus::kBudgetExhausted);
}

TEST(CancellationRowLimit, ParallelEvaluateClampsToMaxRows) {
  util::Rng rng(10);
  db::JoinQuery q = TriangleQuery();
  db::Database d = db::RandomDatabase(q, 1024, 64, &rng);
  for (int threads : {2, 8}) {
    SCOPED_TRACE(threads);
    ExecutionContext ctx;
    ctx.threads = threads;
    ctx.max_output_rows = 10;
    db::GenericJoin join(q, d, ctx);
    db::JoinResult r = join.Evaluate();
    EXPECT_EQ(r.tuples.size(), 10u);
    EXPECT_TRUE(r.truncated);
    EXPECT_EQ(join.status(), util::RunStatus::kBudgetExhausted);
    // Concurrent chunks overshoot the limit; the merged flat buffer is
    // truncated back to exactly max_rows.
    db::GenericJoin flat_join(q, d, ctx);
    db::FlatJoinResult flat = flat_join.EvaluateFlat();
    EXPECT_EQ(flat.rows.size(), 10u);
    EXPECT_TRUE(flat.truncated);
  }
}

TEST(CancellationRowLimit, RowLimitedTuplesAreASubsetOfTheAnswer) {
  util::Rng rng(10);
  db::JoinQuery q = TriangleQuery();
  db::Database d = db::RandomDatabase(q, 1024, 64, &rng);
  ExecutionContext ctx;
  ctx.threads = 1;
  db::JoinResult full = db::GenericJoin(q, d, ctx).Evaluate();
  full.Normalize();
  ctx.max_output_rows = 10;
  db::JoinResult partial = db::GenericJoin(q, d, ctx).Evaluate();
  for (const auto& t : partial.tuples) {
    EXPECT_NE(std::find(full.tuples.begin(), full.tuples.end(), t),
              full.tuples.end());
  }
}

TEST(CancellationRowLimit, EnumeratorDeliversExactlyMaxRows) {
  util::Rng rng(12);
  db::JoinQuery q = PathQuery();
  db::Database d = db::RandomDatabase(q, 256, 64, &rng);
  db::AcyclicEnumerator unlimited(q, d);
  ASSERT_TRUE(unlimited.IsValid());
  std::uint64_t total = 0;
  while (unlimited.Next().has_value()) ++total;
  ASSERT_GT(total, 5u);

  util::Budget budget;
  budget.ArmRowLimit(5);
  db::AcyclicEnumerator limited(q, d, &budget);
  ASSERT_TRUE(limited.IsValid());
  std::uint64_t seen = 0;
  while (limited.Next().has_value()) ++seen;
  EXPECT_EQ(seen, 5u);
  EXPECT_EQ(limited.status(), util::RunStatus::kBudgetExhausted);
}

TEST(CancellationRowLimit, YannakakisDeliversExactlyMaxRows) {
  util::Rng rng(12);
  db::JoinQuery q = PathQuery();
  db::Database d = db::RandomDatabase(q, 256, 64, &rng);
  std::optional<db::JoinResult> full = db::EvaluateYannakakis(q, d);
  ASSERT_TRUE(full.has_value());
  ASSERT_GT(full->tuples.size(), 5u);
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    ExecutionContext ctx;
    ctx.threads = threads;
    ctx.max_output_rows = 5;
    std::optional<db::JoinResult> limited = db::EvaluateYannakakis(q, d, ctx);
    ASSERT_TRUE(limited.has_value());
    EXPECT_EQ(limited->tuples.size(), 5u);
    EXPECT_TRUE(limited->truncated);
    EXPECT_EQ(limited->attributes, q.AttributeOrder());
    for (const auto& t : limited->tuples) {
      EXPECT_NE(std::find(full->tuples.begin(), full->tuples.end(), t),
                full->tuples.end());
    }
  }
}

// ---------------------------------------------------------------------------
// External cancellation from another thread (tsan exercises the atomics)

TEST(CancellationConcurrent, MidRunCancelTerminatesCleanly) {
  util::Rng rng(13);
  db::JoinQuery q = TriangleQuery();
  db::Database d = db::RandomDatabase(q, 4096, 2048, &rng);
  ExecutionContext ctx;
  ctx.threads = 8;
  ctx.budget = std::make_shared<util::Budget>();
  std::thread canceller([budget = ctx.budget] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    budget->RequestCancel();
  });
  db::GenericJoin join(q, d, ctx);
  std::uint64_t count = join.Count();
  canceller.join();
  // Either the join finished before the cancel landed, or it was cut short;
  // both are valid — what matters is a clean unwind and a truthful status.
  if (join.status() == util::RunStatus::kCompleted) {
    ExecutionContext serial;
    serial.threads = 1;
    EXPECT_EQ(count, db::GenericJoin(q, d, serial).Count());
  } else {
    EXPECT_EQ(join.status(), util::RunStatus::kCancelled);
  }
}

// ---------------------------------------------------------------------------
// No budget, or an armed-but-untripped budget: bit-identical results

TEST(CancellationDeterminism, UntrippedBudgetNeverChangesTheAnswer) {
  util::Rng rng(14);
  db::JoinQuery q = TriangleQuery();
  db::Database d = db::RandomDatabase(q, 1024, 512, &rng);
  ExecutionContext plain;
  plain.threads = 1;
  db::JoinResult baseline = db::GenericJoin(q, d, plain).Evaluate();
  EXPECT_FALSE(baseline.truncated);
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    ExecutionContext ctx;
    ctx.threads = threads;
    ctx.budget = std::make_shared<util::Budget>();
    ctx.budget->ArmDeadlineAfter(3600.0);  // Armed, never trips.
    ctx.budget->ArmRowLimit(1u << 30);
    db::GenericJoin join(q, d, ctx);
    db::JoinResult r = join.Evaluate();
    EXPECT_EQ(join.status(), util::RunStatus::kCompleted);
    EXPECT_FALSE(r.truncated);
    EXPECT_EQ(r.tuples, baseline.tuples);
  }
}

TEST(CancellationDeterminism, ColorCodingRngUnaffectedByArmedBudget) {
  util::Rng rng(15);
  graph::Graph g = graph::RandomGnp(60, 0.15, &rng);
  util::Rng rng_a(42), rng_b(42);
  auto plain = graph::FindKPathColorCoding(g, 5, &rng_a);
  util::Budget budget;
  budget.ArmDeadlineAfter(3600.0);
  auto budgeted =
      graph::FindKPathColorCoding(g, 5, &rng_b, 0, 0, &budget);
  EXPECT_EQ(plain.has_value(), budgeted.has_value());
  if (plain.has_value()) EXPECT_EQ(*plain, *budgeted);
  // The generator advanced identically: both streams must now agree.
  EXPECT_EQ(rng_a.Next(), rng_b.Next());
}

TEST(CancellationDeterminism, ExactTreewidthUnaffectedByArmedBudget) {
  util::Rng rng(16);
  graph::Graph g = graph::RandomGnp(14, 0.4, &rng);
  graph::ExactTreewidthResult plain = graph::ExactTreewidth(g);
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    util::Budget budget;
    budget.ArmDeadlineAfter(3600.0);
    graph::ExactTreewidthResult r =
        graph::ExactTreewidth(g, 24, threads, &budget);
    EXPECT_EQ(r.status, util::RunStatus::kCompleted);
    EXPECT_EQ(r.treewidth, plain.treewidth);
    EXPECT_EQ(r.elimination_order, plain.elimination_order);
  }
}

}  // namespace
}  // namespace qc
