// E20 — the degree-split hybrid MM/WCOJ planner (DESIGN.md §15): where does
// the blocked-Boolean-MM heavy core start beating the pure trie GenericJoin,
// and how much does the split cost when nothing is heavy? Hub graphs are the
// extreme yes-case (a dense quadratic core the MM route crushes), Zipf
// exponents sweep the skew axis, a near-regular G(n, m) instance pins the
// all-light delegation overhead, and the E17 uniform triangle pins the
// plan-and-decline overhead; the CI gate enforces both.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <vector>

#include "api/query_api.h"
#include "api/session_options.h"
#include "bench_util.h"
#include "core/autosolver.h"
#include "db/database.h"
#include "db/generic_join.h"
#include "db/hybrid_join.h"
#include "db/index_cache.h"
#include "graph/generators.h"
#include "util/rng.h"
#include "util/run_report.h"
#include "util/timer.h"
#include "util/trace.h"

namespace {

using namespace qc;

db::JoinQuery TriangleQuery() {
  db::JoinQuery q;
  q.Add("E", {"a", "b"}).Add("E", {"a", "c"}).Add("E", {"b", "c"});
  return q;
}

db::JoinQuery FourCycleQuery() {
  db::JoinQuery q;
  q.Add("E", {"a", "b"}).Add("E", {"b", "c"}).Add("E", {"c", "d"}).Add(
      "E", {"a", "d"});
  return q;
}

/// Both orientations of every edge, so the pattern queries above see a
/// symmetric edge relation (same encoding the hybrid planner tests use).
db::Database EdgeDb(const graph::Graph& g) {
  db::FlatRelation edges(2);
  edges.Reserve(static_cast<std::size_t>(2 * g.num_edges()));
  for (const auto& [u, v] : g.Edges()) {
    db::Value row[2] = {u, v};
    edges.PushRow(row);
    row[0] = v;
    row[1] = u;
    edges.PushRow(row);
  }
  db::Database d;
  d.SetRelation("E", std::move(edges));
  return d;
}

struct TimedCount {
  std::uint64_t count = 0;
  double ms = 0;
};

TimedCount PureCount(const db::JoinQuery& q, const db::Database& d) {
  util::Timer timer;
  TimedCount r;
  r.count = db::GenericJoin(q, d).Count();
  r.ms = timer.Millis();
  return r;
}

/// Forced hybrid (delta = 0 means the planner's own sqrt(N) auto-pick).
TimedCount HybridCount(const db::JoinQuery& q, const db::Database& d,
                       std::int64_t delta, db::HybridPlan* plan_out) {
  util::Timer timer;
  TimedCount r;
  db::HybridJoin hybrid(q, d, ExecutionContext(), delta);
  r.count = hybrid.Count();
  r.ms = timer.Millis();
  if (plan_out != nullptr) *plan_out = hybrid.plan();
  return r;
}

/// Bit-identity: hybrid Evaluate at 1/2/8 threads must reproduce the pure
/// GenericJoin output exactly (same tuples, same order).
bool BitIdentical(const db::JoinQuery& q, const db::Database& d,
                  std::int64_t delta) {
  db::JoinResult ref = db::GenericJoin(q, d).Evaluate();
  for (int threads : {1, 2, 8}) {
    ExecutionContext ctx;
    ctx.threads = threads;
    db::HybridJoin hybrid(q, d, ctx, delta);
    db::JoinResult got = hybrid.Evaluate();
    if (got.tuples != ref.tuples) return false;
  }
  return true;
}

double BestOf(int reps, const db::JoinQuery& q, const db::Database& d,
              bool hybrid, std::int64_t delta) {
  double best = 0;
  for (int i = 0; i < reps; ++i) {
    double ms = hybrid ? HybridCount(q, d, delta, nullptr).ms
                       : PureCount(q, d).ms;
    if (i == 0 || ms < best) best = ms;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qc;
  bench::JsonReport json(&argc, argv);
  const char* report_path = nullptr;
  bool check_light_overhead = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--report-json") == 0 && i + 1 < argc) {
      report_path = argv[i + 1];
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      --i;
    } else if (std::strcmp(argv[i], "--check-light-overhead") == 0) {
      check_light_overhead = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      argc -= 1;
      --i;
    }
  }
  if (report_path != nullptr) util::Trace::Enable();
  auto run_start = std::chrono::steady_clock::now();
  bench::Banner("E20: degree-split hybrid MM/WCOJ crossover",
                "on skewed instances the blocked-MM heavy core beats the "
                "pure trie GenericJoin; on near-regular instances the split "
                "delegates with bounded overhead");

  util::Rng rng(20);
  db::JoinQuery tri = TriangleQuery();
  db::JoinQuery cyc = FourCycleQuery();
  bool ok = true;
  db::HybridPlan last_plan;

  // --- 1. Triangle crossover on hub graphs: sweep the heavy-core size. ---
  std::printf("\n--- triangles on HubGraph(n=2000, hubs=H, periphery m=4000), "
              "auto delta ---\n");
  util::Table t1({"hubs", "m", "triangles", "pure ms", "auto ms",
                  "mm(d=1) ms", "best speedup", "heavy rows", "light rows"});
  double best_hub_speedup = 0;
  for (int hubs : {2, 4, 8, 16, 32, 64}) {
    graph::Graph g = graph::HubGraph(2000, hubs, 4000, &rng);
    db::Database d = EdgeDb(g);
    TimedCount pure = PureCount(tri, d);
    db::HybridPlan plan;
    TimedCount hyb = HybridCount(tri, d, 0, &plan);
    // Δ=1 pushes every value heavy: the pure blocked-MM route, the far end
    // of the frontier the delta sweep below maps.
    db::HybridPlan mm_plan;
    TimedCount mm = HybridCount(tri, d, 1, &mm_plan);
    if (pure.count != hyb.count || pure.count != mm.count) {
      std::fprintf(stderr, "COUNT MISMATCH hubs=%d pure=%llu hybrid=%llu "
                   "mm=%llu\n",
                   hubs, (unsigned long long)pure.count,
                   (unsigned long long)hyb.count,
                   (unsigned long long)mm.count);
      ok = false;
    }
    double best_ms = std::min(hyb.ms, mm.ms);
    double speedup = best_ms > 0 ? pure.ms / best_ms : 0;
    best_hub_speedup = std::max(best_hub_speedup, speedup);
    last_plan = plan;
    t1.AddRowOf(hubs, g.num_edges(), (unsigned long long)hyb.count, pure.ms,
                hyb.ms, mm.ms, speedup, (unsigned long long)plan.heavy_rows,
                (unsigned long long)plan.light_rows);
    json.Record("e20.triangle.hub.pure",
                {{"hubs", double(hubs)}, {"m", double(g.num_edges())}},
                pure.ms);
    json.Record("e20.triangle.hub.hybrid",
                {{"hubs", double(hubs)},
                 {"m", double(g.num_edges())},
                 {"delta", double(plan.threshold)}},
                hyb.ms);
    json.Record("e20.triangle.hub.hybrid_mm",
                {{"hubs", double(hubs)},
                 {"m", double(g.num_edges())},
                 {"delta", 1.0}},
                mm.ms);
  }
  t1.Print();
  std::printf("best hub-workload speedup: %.2fx (acceptance floor 1.5x)\n",
              best_hub_speedup);

  // --- 2. Delta frontier on one skewed instance: where does the split pay?
  std::printf("\n--- delta sweep, triangles on HubGraph(n=2000, hubs=32, "
              "m=4000) ---\n");
  {
    graph::Graph g = graph::HubGraph(2000, 32, 4000, &rng);
    db::Database d = EdgeDb(g);
    TimedCount pure = PureCount(tri, d);
    util::Table t2({"delta", "heavy values", "delegated", "hybrid ms",
                    "pure ms"});
    for (std::int64_t delta : {1, 4, 16, 64, 256, 1024, 8192}) {
      db::HybridPlan plan;
      TimedCount hyb = HybridCount(tri, d, delta, &plan);
      if (pure.count != hyb.count) {
        std::fprintf(stderr, "COUNT MISMATCH delta=%lld\n",
                     (long long)delta);
        ok = false;
      }
      t2.AddRowOf((long long)delta, (unsigned long long)plan.heavy_values,
                  plan.delegated ? "yes" : "no", hyb.ms, pure.ms);
      json.Record("e20.triangle.delta_sweep",
                  {{"delta", double(delta)},
                   {"heavy_values", double(plan.heavy_values)}},
                  hyb.ms);
    }
    t2.Print();
  }

  // --- 3. Zipf skew axis: the crossover as the tail fattens. ---
  std::printf("\n--- triangles on ZipfGraph(n=1500, m<=30000), exponent "
              "sweep, auto delta ---\n");
  util::Table t3({"exponent", "m", "triangles", "pure ms", "hybrid ms",
                  "speedup"});
  for (double exponent : {1.0, 1.5, 2.0}) {
    graph::Graph g = graph::ZipfGraph(1500, 30000, exponent, &rng);
    db::Database d = EdgeDb(g);
    TimedCount pure = PureCount(tri, d);
    db::HybridPlan plan;
    TimedCount hyb = HybridCount(tri, d, 0, &plan);
    if (pure.count != hyb.count) {
      std::fprintf(stderr, "COUNT MISMATCH zipf exponent=%.1f\n", exponent);
      ok = false;
    }
    double speedup = hyb.ms > 0 ? pure.ms / hyb.ms : 0;
    t3.AddRowOf(exponent, g.num_edges(), (unsigned long long)hyb.count,
                pure.ms, hyb.ms, speedup);
    json.Record("e20.triangle.zipf.pure",
                {{"exponent", exponent}, {"m", double(g.num_edges())}},
                pure.ms);
    json.Record("e20.triangle.zipf.hybrid",
                {{"exponent", exponent},
                 {"m", double(g.num_edges())},
                 {"delta", double(plan.threshold)}},
                hyb.ms);
  }
  t3.Print();

  // --- 4. 4-cycles, Count mode (the popcount path never materializes the
  // quadratically exploding output). ---
  std::printf("\n--- 4-cycles on HubGraph(n=400, hubs=H, m=1500), Count "
              "only, auto delta ---\n");
  util::Table t4({"hubs", "4-cycles", "pure ms", "hybrid ms", "speedup"});
  for (int hubs : {4, 8, 16}) {
    graph::Graph g = graph::HubGraph(400, hubs, 1500, &rng);
    db::Database d = EdgeDb(g);
    TimedCount pure = PureCount(cyc, d);
    db::HybridPlan plan;
    TimedCount hyb = HybridCount(cyc, d, 0, &plan);
    if (pure.count != hyb.count) {
      std::fprintf(stderr, "COUNT MISMATCH 4-cycle hubs=%d\n", hubs);
      ok = false;
    }
    double speedup = hyb.ms > 0 ? pure.ms / hyb.ms : 0;
    t4.AddRowOf(hubs, (unsigned long long)hyb.count, pure.ms, hyb.ms,
                speedup);
    json.Record("e20.fourcycle.hub.pure", {{"hubs", double(hubs)}}, pure.ms);
    json.Record("e20.fourcycle.hub.hybrid",
                {{"hubs", double(hubs)}, {"delta", double(plan.threshold)}},
                hyb.ms);
  }
  t4.Print();

  // --- 5. Bit-identity spot checks (small instances, full Evaluate). ---
  std::printf("\n--- bit-identity: hybrid Evaluate at 1/2/8 threads vs pure "
              "GenericJoin ---\n");
  {
    graph::Graph hub = graph::HubGraph(200, 6, 400, &rng);
    graph::Graph zipf = graph::ZipfGraph(120, 600, 1.5, &rng);
    db::Database dh = EdgeDb(hub);
    db::Database dz = EdgeDb(zipf);
    struct Check {
      const char* name;
      const db::JoinQuery* q;
      const db::Database* d;
      std::int64_t delta;
    };
    const Check checks[] = {
        {"triangle/hub/auto", &tri, &dh, 0},
        {"triangle/hub/delta=1", &tri, &dh, 1},
        {"triangle/zipf/auto", &tri, &dz, 0},
        {"4cycle/hub/auto", &cyc, &dh, 0},
        {"4cycle/zipf/delta=4", &cyc, &dz, 4},
    };
    for (const Check& c : checks) {
      bool same = BitIdentical(*c.q, *c.d, c.delta);
      std::printf("  %-24s %s\n", c.name, same ? "identical" : "MISMATCH");
      if (!same) ok = false;
    }
  }

  // --- 6. All-light overhead: near-regular G(n, m), auto delta finds no
  // heavy values, the planner delegates — the gate bounds the routing tax.
  std::printf("\n--- all-light delegation overhead on RandomGnm(2000, 6000) "
              "---\n");
  {
    graph::Graph g = graph::RandomGnm(2000, 6000, &rng);
    db::Database d = EdgeDb(g);
    db::HybridPlan plan;
    TimedCount probe = HybridCount(tri, d, 0, &plan);
    if (probe.count != PureCount(tri, d).count) ok = false;
    double pure_ms = BestOf(3, tri, d, /*hybrid=*/false, 0);
    double hyb_ms = BestOf(3, tri, d, /*hybrid=*/true, 0);
    double overhead = pure_ms > 0 ? (hyb_ms - pure_ms) / pure_ms * 100.0
                                  : 0.0;
    std::printf("delegated=%s  pure %.3f ms  hybrid %.3f ms  overhead "
                "%+.1f%% (CI gate: <= +10%%)\n",
                plan.delegated ? "yes" : "no", pure_ms, hyb_ms, overhead);
    json.Record("e20.light.overhead.pure", {{"m", double(g.num_edges())}},
                pure_ms);
    json.Record("e20.light.overhead.hybrid",
                {{"m", double(g.num_edges())}}, hyb_ms);
    if (check_light_overhead && hyb_ms > pure_ms * 1.10) {
      std::fprintf(stderr,
                   "LIGHT-OVERHEAD GATE FAILED: hybrid %.3f ms vs pure "
                   "%.3f ms (> +10%%)\n",
                   hyb_ms, pure_ms);
      ok = false;
    }
  }

  // --- 7. Decline overhead: the E17 shape (3 x 1500 uniform rows on a
  // 48-value domain) has heavy values but no profitable core, so auto mode
  // plans, declines and runs GenericJoin. The gate bounds what planning
  // adds to the routed query against --hybrid off.
  std::printf("\n--- decline overhead on the E17 triangle (3 x 1500 uniform "
              "rows, domain 48) ---\n");
  {
    db::Database d;
    for (const char* name : {"R1", "R2", "R3"}) {
      db::FlatRelation rows(2);
      for (int i = 0; i < 1500; ++i) {
        const db::Value row[2] = {
            static_cast<db::Value>(rng.NextBounded(48)),
            static_cast<db::Value>(rng.NextBounded(48))};
        rows.PushRow(row);
      }
      d.SetRelation(name, std::move(rows));
    }
    db::JoinQuery q;
    q.Add("R1", {"a", "b"}).Add("R2", {"a", "c"}).Add("R3", {"b", "c"});
    // Gated like section 6: every routed query builds its own tries (no
    // index cache), so both modes pay the same build and the ratio is the
    // planning tax. The warm-cache ratio (tries cached, as on the served
    // route, so only routing, planning and the join are timed) is printed
    // alongside; a tight loop makes it the harsher of the two.
    ExecutionContext off;
    off.threads = 1;
    off.hybrid_mode = HybridMode::kOff;
    ExecutionContext autoc = off;
    autoc.hybrid_mode = HybridMode::kAuto;
    core::AutoQueryResult probe = core::EvaluateQueryAuto(q, d, autoc);
    const bool declined = probe.method == core::SolveMethod::kGenericJoin &&
                          probe.plan.pattern == db::HybridPattern::kTriangle &&
                          probe.plan.heavy_values > 0;
    if (!declined) {
      std::fprintf(stderr, "DECLINE CASE DID NOT PLAN AND DECLINE\n");
      ok = false;
    }
    if (probe.result.rows.data() !=
        core::EvaluateQueryAuto(q, d, off).result.rows.data()) {
      std::fprintf(stderr, "DECLINE CASE ANSWER MISMATCH\n");
      ok = false;
    }
    // Interleaved best-of: both modes see the same machine state.
    auto best_pair = [&](const ExecutionContext& a, const ExecutionContext& b,
                         double* a_ms, double* b_ms) {
      for (int i = 0; i < 31; ++i) {
        for (int side = 0; side < 2; ++side) {
          util::Timer timer;
          core::EvaluateQueryAuto(q, d, side == 0 ? a : b);
          const double ms = timer.Millis();
          double& best = side == 0 ? *a_ms : *b_ms;
          if (i == 0 || ms < best) best = ms;
        }
      }
    };
    double off_ms = 0, auto_ms = 0;
    best_pair(off, autoc, &off_ms, &auto_ms);
    db::IndexCache cache(64u << 20);
    ExecutionContext warm_off = off, warm_auto = autoc;
    warm_off.index_cache = warm_auto.index_cache = &cache;
    double warm_off_ms = 0, warm_auto_ms = 0;
    best_pair(warm_off, warm_auto, &warm_off_ms, &warm_auto_ms);
    const double ratio = off_ms > 0 ? auto_ms / off_ms : 0.0;
    std::printf("heavy values %llu, heavy tuples %llu, declined=%s  off "
                "%.3f ms  auto %.3f ms  auto/off %.3f (CI gate: <= 1.10)\n",
                (unsigned long long)probe.plan.heavy_values,
                (unsigned long long)probe.plan.heavy_tuples,
                declined ? "yes" : "no", off_ms, auto_ms, ratio);
    std::printf("warm index cache: off %.3f ms  auto %.3f ms  auto/off "
                "%.3f (not gated)\n",
                warm_off_ms, warm_auto_ms,
                warm_off_ms > 0 ? warm_auto_ms / warm_off_ms : 0.0);
    json.Record("e20.decline.overhead.off", {{"rows", 1500.0}}, off_ms);
    json.Record("e20.decline.overhead.auto", {{"rows", 1500.0}}, auto_ms);
    json.Record("e20.decline.overhead.warm_off", {{"rows", 1500.0}},
                warm_off_ms);
    json.Record("e20.decline.overhead.warm_auto", {{"rows", 1500.0}},
                warm_auto_ms);
    if (check_light_overhead && auto_ms > off_ms * 1.10) {
      std::fprintf(stderr,
                   "DECLINE-OVERHEAD GATE FAILED: auto %.3f ms vs off "
                   "%.3f ms (> +10%%)\n",
                   auto_ms, off_ms);
      ok = false;
    }
  }

  // Emission through the shared api::FinishReport path: the planner section
  // carries the last hub-sweep plan, the trace carries the hybrid.* spans.
  api::SessionOptions report_opts;
  if (report_path != nullptr) report_opts.report_json = report_path;
  util::RunReport report;
  report.tool = "bench_e20_hybrid_join";
  report.status = util::RunStatus::kCompleted;
  report.threads = 1;
  report.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - run_start)
                       .count();
  report.planner = last_plan;
  if (report_path != nullptr) {
    report.trace = util::Trace::Collect();
    util::Trace::Disable();
  }
  int rc = api::FinishReport(report_opts, report, report.status);
  return ok ? rc : 1;
}
