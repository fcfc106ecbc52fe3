// E19 — Section 6's dynamic lower bounds (OMv/OuMv, [34]): incremental
// view maintenance against the mutation stream. Three workloads:
//
//   A  acyclic chain R(a,b) S(b,c) T(c,d), random sparse updates — the
//      delta rule re-sweeps only dirty subtrees of the join tree, so one
//      update costs o(full recompute); measured as update throughput of
//      the maintained view vs a naive recompute-per-update baseline.
//   B  OuMv-style adversarial stream on R(a,b) S(b,c): S is a hub table
//      whose fanout F is the dirty-subtree width. Every update to R joins
//      through a hub, forcing the delta sweep to touch F rows — as F grows
//      (k = N/F hubs shrink), per-update cost degrades toward the full
//      recompute, which is exactly the OMv-hardness shape: no IVM
//      algorithm gets strongly sublinear worst-case updates unless the
//      OMv conjecture fails.
//   C  triangle counting under edge inserts (the Section 6.2 query):
//      per-edge delta counting vs static recount.
//
// Every maintained answer is checked bit-identical against RecomputeView
// on a snapshot — a speedup with a wrong count is a disqualification, so
// correctness failures hard-fail the binary (exit 1).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "db/database.h"
#include "db/ivm.h"
#include "db/mvcc.h"
#include "db/parser.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace qc;

db::ViewDefinition ChainDef() {
  db::ViewDefinition def;
  def.name = "chain";
  def.kind = db::ViewDefinition::Kind::kJoin;
  def.text = "R(a,b), S(b,c), T(c,d)";
  def.query = *db::ParseJoinQuery(def.text);
  return def;
}

db::ViewDefinition HubDef() {
  db::ViewDefinition def;
  def.name = "hub";
  def.kind = db::ViewDefinition::Kind::kJoin;
  def.text = "R(a,b), S(b,c)";
  def.query = *db::ParseJoinQuery(def.text);
  return def;
}

db::ViewDefinition TriDef() {
  db::ViewDefinition def;
  def.name = "tri";
  def.kind = db::ViewDefinition::Kind::kTriangleCount;
  def.relation = "E";
  def.text = "E";
  return def;
}

bool g_correct = true;

void CheckAgainstRecompute(db::MvccDatabase& mvcc, db::ViewRegistry& views,
                           const db::ViewDefinition& def) {
  db::MvccSnapshot snap = mvcc.Snapshot();
  db::ViewRead maintained = views.Read(def.name);
  db::ViewRead expected = db::RecomputeView(def, *snap.db, snap.epoch);
  if (!maintained.ok || !expected.ok ||
      *maintained.rows != *expected.rows ||
      maintained.attributes != expected.attributes) {
    std::fprintf(stderr,
                 "FAIL: view '%s' diverged from recompute at epoch %llu\n",
                 def.name.c_str(),
                 static_cast<unsigned long long>(snap.epoch));
    g_correct = false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport json(&argc, argv);
  bench::Banner(
      "E19: dynamic IVM vs OMv-style adversarial streams (Section 6, [34])",
      "acyclic deltas: o(recompute) per update; OuMv hub streams: per-"
      "update cost degrades with forced fanout, the OMv-hardness shape");

  // --- Workload A: acyclic chain, random sparse updates -----------------
  std::printf(
      "\n--- A: chain R(a,b) S(b,c) T(c,d), random updates "
      "(incremental vs naive recompute-per-update) ---\n");
  util::Table ta({"N", "updates", "incr ms/upd", "naive ms/upd", "speedup"});
  double gate_speedup = 0;
  for (int n : {10000, 100000}) {
    util::Rng rng(7);
    auto fill = [&](int rows) {
      std::vector<db::Tuple> t;
      t.reserve(rows);
      for (int i = 0; i < rows; ++i) {
        t.push_back({db::Value(rng.Next() % n), db::Value(rng.Next() % n)});
      }
      return t;
    };
    db::MvccDatabase mvcc;
    db::ViewRegistry views;
    mvcc.AttachViews(&views);
    (void)mvcc.SetRelation("R", 2, fill(n));
    (void)mvcc.SetRelation("S", 2, fill(n));
    (void)mvcc.SetRelation("T", 2, fill(n));
    const db::ViewDefinition def = ChainDef();
    if (!mvcc.RegisterView(def)) {
      std::fprintf(stderr, "FAIL: registration\n");
      return 1;
    }

    // Incremental: every update flows through the delta rule.
    const int kIncrUpdates = 512;
    util::Timer incr;
    for (int i = 0; i < kIncrUpdates; ++i) {
      const char* rels[3] = {"R", "S", "T"};
      (void)mvcc.AddTuple(rels[i % 3], {db::Value(rng.Next() % n),
                                        db::Value(rng.Next() % n)});
    }
    const double incr_ms = incr.Millis() / kIncrUpdates;
    CheckAgainstRecompute(mvcc, views, def);

    // Naive baseline: recompute the full view after each update (few
    // updates — it is slow by design).
    const int kNaiveUpdates = 16;
    util::Timer naive;
    for (int i = 0; i < kNaiveUpdates; ++i) {
      (void)mvcc.AddTuple("S", {db::Value(rng.Next() % n),
                                db::Value(rng.Next() % n)});
      db::MvccSnapshot snap = mvcc.Snapshot();
      db::ViewRead full = db::RecomputeView(def, *snap.db, snap.epoch);
      if (!full.ok) g_correct = false;
    }
    const double naive_ms = naive.Millis() / kNaiveUpdates;
    CheckAgainstRecompute(mvcc, views, def);

    const double speedup = incr_ms > 0 ? naive_ms / incr_ms : 0;
    if (n >= 100000) gate_speedup = speedup;
    ta.AddRowOf(n, kIncrUpdates, incr_ms, naive_ms, speedup);
    json.Record("ivm.chain.incr_ms_per_update", {{"n", double(n)}}, incr_ms);
    json.Record("ivm.chain.naive_ms_per_update", {{"n", double(n)}},
                naive_ms);
    json.Record("ivm.chain.speedup", {{"n", double(n)}}, speedup);
  }
  ta.Print();
  std::printf(
      "(dirty-subtree sweeps touch O(delta * matched rows); the naive "
      "baseline rescans all N rows per atom on every update)\n");

  // --- Workload B: OuMv-style hub stream --------------------------------
  std::printf(
      "\n--- B: adversarial hub stream R(a,b) S(b,c), N=40000 S-rows, "
      "k hubs of fanout F=N/k (every R update joins through a hub) ---\n");
  util::Table tb({"hubs k", "fanout F", "incr ms/upd", "rows/delta"});
  {
    const int n = 40000;
    for (int k : {40000, 200, 16, 1}) {
      const int fanout = n / k;
      db::MvccDatabase mvcc;
      db::ViewRegistry views;
      mvcc.AttachViews(&views);
      util::Rng rng(11);
      // R starts empty-ish; S maps hub h -> F distinct c values.
      std::vector<db::Tuple> s_rows;
      s_rows.reserve(n);
      for (int h = 0; h < k; ++h) {
        for (int f = 0; f < fanout; ++f) {
          s_rows.push_back({db::Value(h), db::Value(f)});
        }
      }
      (void)mvcc.SetRelation("R", 2, {{0, 0}});
      (void)mvcc.SetRelation("S", 2, std::move(s_rows));
      const db::ViewDefinition def = HubDef();
      if (!mvcc.RegisterView(def)) {
        std::fprintf(stderr, "FAIL: registration\n");
        return 1;
      }
      db::IvmStats before = views.stats();
      // Adversary: every update is a fresh R row pointing at a hub, so
      // the delta sweep must materialize its full fanout.
      const int kUpdates = 256;
      util::Timer timer;
      for (int i = 0; i < kUpdates; ++i) {
        (void)mvcc.AddTuple("R", {db::Value(1 + i), db::Value(
                                      static_cast<db::Value>(
                                          rng.Next() % k))});
      }
      const double ms = timer.Millis() / kUpdates;
      db::IvmStats after = views.stats();
      const double rows_per_delta =
          double(after.rows_delta_applied - before.rows_delta_applied) /
          kUpdates;
      CheckAgainstRecompute(mvcc, views, def);
      tb.AddRowOf(k, fanout, ms, rows_per_delta);
      json.Record("ivm.hub.incr_ms_per_update", {{"fanout", double(fanout)}},
                  ms);
      json.Record("ivm.hub.rows_per_delta", {{"fanout", double(fanout)}},
                  rows_per_delta);
    }
  }
  tb.Print();
  std::printf(
      "(per-update cost tracks the forced fanout F — the worst-case "
      "degradation the OMv conjecture says is unavoidable)\n");

  // --- Workload C: triangle counting under edge inserts -----------------
  std::printf(
      "\n--- C: triangle count over E, per-edge delta vs static recount "
      "---\n");
  util::Table tc({"nodes", "edges", "incr us/edge", "recount ms"});
  for (int nodes : {300, 1000}) {
    db::MvccDatabase mvcc;
    db::ViewRegistry views;
    mvcc.AttachViews(&views);
    util::Rng rng(3);
    (void)mvcc.SetRelation("E", 2, {{0, 1}});
    const db::ViewDefinition def = TriDef();
    if (!mvcc.RegisterView(def)) {
      std::fprintf(stderr, "FAIL: registration\n");
      return 1;
    }
    const int kEdges = 4000;
    util::Timer timer;
    for (int i = 0; i < kEdges; ++i) {
      (void)mvcc.AddTuple("E", {db::Value(rng.Next() % nodes),
                                db::Value(rng.Next() % nodes)});
    }
    const double us = timer.Millis() * 1000.0 / kEdges;
    db::MvccSnapshot snap = mvcc.Snapshot();
    util::Timer recount;
    db::ViewRead full = db::RecomputeView(def, *snap.db, snap.epoch);
    const double recount_ms = recount.Millis();
    db::ViewRead maintained = views.Read("tri");
    if (!full.ok || !maintained.ok || *full.rows != *maintained.rows) {
      std::fprintf(stderr, "FAIL: triangle count diverged\n");
      g_correct = false;
    }
    tc.AddRowOf(nodes, kEdges, us, recount_ms);
    json.Record("ivm.triangle.incr_us_per_edge", {{"nodes", double(nodes)}},
                us);
    json.Record("ivm.triangle.recount_ms", {{"nodes", double(nodes)}},
                recount_ms);
  }
  tc.Print();
  std::printf(
      "(one edge's delta intersects three adjacency lists — o(recount) "
      "per update on sparse streams)\n");

  if (!g_correct) return 1;
  std::printf("\nincremental speedup at N=100000 (workload A): %.1fx %s\n",
              gate_speedup,
              gate_speedup >= 5.0 ? "(>= 5x target met)"
                                  : "(below 5x target)");
  return 0;
}
