// Google-benchmark microbenchmarks for the library's hot kernels: the
// isolated SIMD kernels (sorted-set intersection, radix row sort), the
// worst-case-optimal join, the treewidth DP, AC-3, triangle detection, and
// DPLL. These complement the E1-E14 experiment harnesses with
// statistically-stable per-kernel numbers.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "core/context.h"
#include "csp/arc_consistency.h"
#include "csp/generators.h"
#include "csp/treedp.h"
#include "db/agm.h"
#include "db/flat_relation.h"
#include "db/generic_join.h"
#include "db/trie_index.h"
#include "graph/boolmatrix.h"
#include "graph/generators.h"
#include "graph/treewidth.h"
#include "graph/triangles.h"
#include "kernels/dispatch.h"
#include "kernels/intersect.h"
#include "sat/dpll.h"
#include "sat/generators.h"
#include "util/arena.h"
#include "util/rng.h"
#include "util/trace.h"

namespace {

using namespace qc;

db::JoinQuery TriangleQuery() {
  db::JoinQuery q;
  q.Add("R1", {"a", "b"}).Add("R2", {"a", "c"}).Add("R3", {"b", "c"});
  return q;
}

// ---------------------------------------------------------------------------
// Isolated intersection kernel: size x skew x density sweep.
//
// Args: (long-side size, skew, density %). The long side b has range(0)
// strictly-increasing values, the short side a has range(0)/skew values of
// which ~density% hit b. The acceptance row for the SIMD layer is the dense
// non-skewed case (skew=1, density=90) — compare the scalar row against the
// avx2/avx512 rows at the same args (>= 1.5x on this machine's best level).

using IntersectFn = std::size_t (*)(const std::int64_t*, std::size_t,
                                    const std::int64_t*, std::size_t,
                                    std::int32_t*, std::int32_t*);

std::vector<std::int64_t> SortedUniqueValues(std::size_t n,
                                             std::int64_t range,
                                             util::Rng* rng) {
  std::vector<std::int64_t> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    v.push_back(static_cast<std::int64_t>(rng->NextBounded(range)));
  }
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

void IntersectKernelBench(benchmark::State& state, IntersectFn fn,
                          kernels::SimdLevel required) {
  if (kernels::BestSupportedSimdLevel() < required) {
    state.SkipWithError("SIMD level not supported on this CPU");
    return;
  }
  util::Rng rng(101);
  const std::size_t nb = static_cast<std::size_t>(state.range(0));
  const std::size_t skew = static_cast<std::size_t>(state.range(1));
  const double density = static_cast<double>(state.range(2)) / 100.0;
  std::vector<std::int64_t> b =
      SortedUniqueValues(nb, static_cast<std::int64_t>(nb) * 2, &rng);
  std::vector<std::int64_t> a;
  for (std::size_t i = 0; i < nb / skew; ++i) {
    a.push_back(rng.NextBool(density)
                    ? b[rng.NextBounded(b.size())]
                    : static_cast<std::int64_t>(
                          rng.NextBounded(static_cast<std::int64_t>(nb) * 2)));
  }
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  std::vector<std::int32_t> pos_a(std::min(a.size(), b.size()));
  std::vector<std::int32_t> pos_b(pos_a.size());
  std::size_t matches = 0;
  for (auto _ : state) {
    matches = fn(a.data(), a.size(), b.data(), b.size(), pos_a.data(),
                 pos_b.data());
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * (a.size() + b.size())));
  state.counters["matches"] = static_cast<double>(matches);
}

void RegisterIntersectRow(const char* name, IntersectFn fn,
                          kernels::SimdLevel required) {
  benchmark::RegisterBenchmark(name,
                               [fn, required](benchmark::State& state) {
                                 IntersectKernelBench(state, fn, required);
                               })
      ->ArgsProduct({{1 << 12, 1 << 16, 1 << 20}, {1, 64}, {90, 10}})
      ->Unit(benchmark::kMicrosecond);
}

void RegisterIntersectBenchmarks() {
  RegisterIntersectRow("BM_IntersectKernel/scalar",
                       kernels::IntersectPairPositionsScalar,
                       kernels::SimdLevel::kScalar);
  RegisterIntersectRow("BM_IntersectKernel/avx2",
                       kernels::IntersectPairPositionsAvx2,
                       kernels::SimdLevel::kAvx2);
  RegisterIntersectRow("BM_IntersectKernel/avx512",
                       kernels::IntersectPairPositionsAvx512,
                       kernels::SimdLevel::kAvx512);
  RegisterIntersectRow("BM_IntersectKernel/gallop",
                       kernels::IntersectPairPositionsGallop,
                       kernels::SimdLevel::kScalar);
  RegisterIntersectRow("BM_IntersectKernel/dispatched",
                       kernels::IntersectPairPositions,
                       kernels::SimdLevel::kScalar);
}

// ---------------------------------------------------------------------------
// Trie-build materialize+sort: comparison sort vs the LSD radix kernel.
//
// Args: (rows, arity). The timed region is exactly what the GenericJoin
// constructor pays per atom — sort + dedup of the materialized projection,
// then the CSR trie build on top.

void TrieBuildSortBench(benchmark::State& state,
                        db::FlatRelation::SortPolicy policy) {
  util::Rng rng(202);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const int arity = static_cast<int>(state.range(1));
  db::FlatRelation rel(arity);
  rel.Reserve(n);
  std::vector<db::Value> row(arity);
  for (std::size_t i = 0; i < n; ++i) {
    for (int c = 0; c < arity; ++c) {
      row[c] = static_cast<db::Value>(rng.NextBounded(n / 2 + 1));
    }
    rel.PushRow(row.data());
  }
  util::Arena arena;
  for (auto _ : state) {
    db::FlatRelation copy = rel;  // Sort is in-place; copy cost is common
    copy.SortLexAndDedup(policy, &arena);  // to both policy rows.
    benchmark::DoNotOptimize(copy.size());
    arena.Reset();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}

void BM_TrieBuildSortComparison(benchmark::State& state) {
  TrieBuildSortBench(state, db::FlatRelation::SortPolicy::kComparison);
}
BENCHMARK(BM_TrieBuildSortComparison)
    ->ArgsProduct({{1 << 14, 1 << 18}, {2, 4}})
    ->Unit(benchmark::kMicrosecond);

void BM_TrieBuildSortRadix(benchmark::State& state) {
  TrieBuildSortBench(state, db::FlatRelation::SortPolicy::kRadix);
}
BENCHMARK(BM_TrieBuildSortRadix)
    ->ArgsProduct({{1 << 14, 1 << 18}, {2, 4}})
    ->Unit(benchmark::kMicrosecond);

// Full sorted-projection -> CSR trie pipeline with the arena backing the
// build scratch (the per-atom cost inside the GenericJoin constructor).
void BM_TrieIndexBuild(benchmark::State& state) {
  util::Rng rng(303);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  db::FlatRelation rel(3);
  rel.Reserve(n);
  db::Value row[3];
  for (std::size_t i = 0; i < n; ++i) {
    for (int c = 0; c < 3; ++c) {
      row[c] = static_cast<db::Value>(rng.NextBounded(n / 4 + 1));
    }
    rel.PushRow(row);
  }
  rel.SortLexAndDedup();
  util::Arena arena;
  for (auto _ : state) {
    db::TrieIndex trie(rel, &arena);
    benchmark::DoNotOptimize(trie.num_nodes());
    arena.Reset();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_TrieIndexBuild)
    ->Arg(1 << 14)
    ->Arg(1 << 18)
    ->Unit(benchmark::kMicrosecond);

// Since the search kernel carries per-level ScopedSpans, this row doubles
// as the disabled-tracing overhead check: tracing stays off here, so the
// spans cost one relaxed load per node (< 2% vs the pre-span baseline, the
// same bound as BudgetPoll below).
void BM_GenericJoinTriangle(benchmark::State& state) {
  util::Rng rng(1);
  db::JoinQuery q = TriangleQuery();
  db::Database d =
      db::RandomDatabase(q, static_cast<int>(state.range(0)),
                         state.range(0) / 2, &rng);
  for (auto _ : state) {
    db::GenericJoin join(q, d);
    benchmark::DoNotOptimize(join.Count());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GenericJoinTriangle)->Range(256, 4096)->Complexity();

// The ingest_views triangle E(a,b),E(b,c),E(a,c) over a sparse random
// digraph (600 vertices, 9,600 distinct directed edges): nearly every
// two-holder span has ~16 values or fewer, so this row tracks the short-span
// merge path on every QC_SIMD level. The tries are built once; each
// iteration is one full EvaluateFlat.
void BM_GenericJoinSparseTriangle(benchmark::State& state) {
  constexpr int kVertices = 600;
  constexpr std::size_t kEdges = 9600;
  util::Rng rng(600);
  std::vector<std::uint8_t> seen(kVertices * kVertices, 0);
  db::FlatRelation edges(2);
  while (edges.size() < kEdges) {
    const auto u = static_cast<db::Value>(rng.NextBounded(kVertices));
    const auto v = static_cast<db::Value>(rng.NextBounded(kVertices));
    if (u == v || seen[u * kVertices + v] != 0) continue;
    seen[u * kVertices + v] = 1;
    const db::Value row[2] = {u, v};
    edges.PushRow(row);
  }
  db::Database d;
  d.SetRelation("E", std::move(edges));
  db::JoinQuery q;
  q.Add("E", {"a", "b"}).Add("E", {"b", "c"}).Add("E", {"a", "c"});
  db::GenericJoin join(q, d);
  std::size_t rows = 0;
  for (auto _ : state) {
    rows = join.EvaluateFlat().rows.size();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_GenericJoinSparseTriangle)->Unit(benchmark::kMicrosecond);

// The same join with tracing recording every span, for the enabled-path
// cost (two clock reads + one ring-buffer append per span).
void BM_GenericJoinTriangleTraced(benchmark::State& state) {
  util::Rng rng(1);
  db::JoinQuery q = TriangleQuery();
  db::Database d =
      db::RandomDatabase(q, static_cast<int>(state.range(0)),
                         state.range(0) / 2, &rng);
  util::Trace::Enable();
  for (auto _ : state) {
    db::GenericJoin join(q, d);
    benchmark::DoNotOptimize(join.Count());
  }
  util::Trace::Disable();
  util::Trace::Reset();
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GenericJoinTriangleTraced)->Range(256, 4096)->Complexity();

// The same E2 triangle join with an armed (far-future) deadline: every
// search node pays one Budget::Poll(). Compare against the unarmed
// BM_GenericJoinTriangle row at the same size — the stride-cached clock
// check keeps the gap below 2%.
void BM_GenericJoinTriangleBudgetPoll(benchmark::State& state) {
  util::Rng rng(1);
  db::JoinQuery q = TriangleQuery();
  db::Database d =
      db::RandomDatabase(q, static_cast<int>(state.range(0)),
                         state.range(0) / 2, &rng);
  ExecutionContext ctx;
  ctx.budget = std::make_shared<util::Budget>();
  ctx.budget->ArmDeadlineAfter(3600.0);  // Armed but never trips.
  for (auto _ : state) {
    db::GenericJoin join(q, d, ctx);
    benchmark::DoNotOptimize(join.Count());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GenericJoinTriangleBudgetPoll)->Range(256, 4096)->Complexity();

// The parallel root partition of Generic Join: thread count is the
// benchmark argument (1 = serial path). Results are bit-identical across
// thread counts; only wall-clock should differ.
void BM_GenericJoinTriangleParallel(benchmark::State& state) {
  util::Rng rng(1);
  db::JoinQuery q = TriangleQuery();
  db::Database d = db::RandomDatabase(q, 4096, 2048, &rng);
  ExecutionContext ctx;
  ctx.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    db::GenericJoin join(q, d, ctx);
    benchmark::DoNotOptimize(join.Count());
  }
}
BENCHMARK(BM_GenericJoinTriangleParallel)->Arg(1)->Arg(2)->Arg(8)
    ->UseRealTime();

// Row-block-parallel Boolean matrix product at 2048x2048. The acceptance
// target is >= 3x at 8 threads vs 1 on an 8-way machine (compare the
// real-time columns of the /1 and /8 rows).
void BM_BoolMatrixMultiply2048(benchmark::State& state) {
  util::Rng rng(7);
  const int n = 2048;
  graph::BoolMatrix a(n, n), b(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (rng.NextBounded(2) == 0) a.Set(i, j);
      if (rng.NextBounded(2) == 0) b.Set(i, j);
    }
  }
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Multiply(b, threads).rows());
  }
}
BENCHMARK(BM_BoolMatrixMultiply2048)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_TreewidthDp(benchmark::State& state) {
  util::Rng rng(2);
  graph::Graph structure = graph::RandomKTree(30, 2, &rng);
  csp::CspInstance csp = csp::PlantedBinaryCsp(
      structure, static_cast<int>(state.range(0)), 0.3, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(csp::SolveTreewidthDp(csp, 0).solution_count);
  }
}
BENCHMARK(BM_TreewidthDp)->Arg(2)->Arg(4)->Arg(8);

void BM_ExactTreewidth(benchmark::State& state) {
  util::Rng rng(3);
  graph::Graph g =
      graph::RandomGnp(static_cast<int>(state.range(0)), 0.3, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::ExactTreewidth(g).treewidth);
  }
}
BENCHMARK(BM_ExactTreewidth)->Arg(12)->Arg(16)->Arg(18);

void BM_Ac3(benchmark::State& state) {
  util::Rng rng(4);
  graph::Graph structure =
      graph::RandomGnp(static_cast<int>(state.range(0)), 0.3, &rng);
  csp::CspInstance csp = csp::RandomBinaryCsp(structure, 8, 0.5, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(csp::EnforceArcConsistency(csp).consistent);
  }
}
BENCHMARK(BM_Ac3)->Arg(20)->Arg(40)->Arg(80);

void BM_TriangleEnumeration(benchmark::State& state) {
  util::Rng rng(5);
  graph::Graph g = graph::CompleteBipartite(
      static_cast<int>(state.range(0)) / 2,
      static_cast<int>(state.range(0)) / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::FindTriangleEnumeration(g).has_value());
  }
}
BENCHMARK(BM_TriangleEnumeration)->Range(256, 2048);

void BM_TriangleMatrix(benchmark::State& state) {
  graph::Graph g = graph::CompleteBipartite(
      static_cast<int>(state.range(0)) / 2,
      static_cast<int>(state.range(0)) / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::FindTriangleMatrix(g).has_value());
  }
}
BENCHMARK(BM_TriangleMatrix)->Range(256, 2048);

void BM_Dpll3SatThreshold(benchmark::State& state) {
  util::Rng rng(6);
  int n = static_cast<int>(state.range(0));
  sat::CnfFormula f = sat::RandomKSat(n, static_cast<int>(n * 4.26), 3, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sat::SolveDpll(f).satisfiable);
  }
}
BENCHMARK(BM_Dpll3SatThreshold)->Arg(20)->Arg(28)->Arg(36);

// Console output as usual, plus one JsonReport record per benchmark run
// when --json <file> is given (the flag is stripped before
// benchmark::Initialize sees argv).
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(bench::JsonReport* json) : json_(json) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration) continue;  // skip aggregates
      double iters = static_cast<double>(
          run.iterations > 0 ? run.iterations : 1);
      json_->Record(run.benchmark_name(), {{"iterations", iters}},
                    run.real_accumulated_time / iters * 1e3);
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::JsonReport* json_;
};

}  // namespace

int main(int argc, char** argv) {
  qc::bench::JsonReport json(&argc, argv);
  RegisterIntersectBenchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonTeeReporter reporter(&json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
