// Equivalence tests for the trie-indexed GenericJoin against the seed
// nested-loop reference (EvaluateNestedLoop): the trie engine must produce
// the same answer set on self-joins, repeated-attribute atoms, skewed
// Zipfian data, and empty relations — and the same bit-identical Evaluate
// output and stats at every thread count.

#include <algorithm>
#include <cmath>
#include <vector>

#include "db/agm.h"
#include "db/database.h"
#include "db/generic_join.h"
#include "gtest/gtest.h"
#include "kernels/dispatch.h"
#include "util/budget.h"
#include "util/rng.h"

namespace qc::db {
namespace {

/// Zipf-skewed value in [0, n): value v is drawn with probability roughly
/// proportional to 1/(v+1), so a few heavy hitters dominate.
Value ZipfValue(int n, util::Rng* rng) {
  double u = rng->NextDouble();
  double v = std::exp(u * std::log(static_cast<double>(n))) - 1.0;
  return static_cast<Value>(v) % n;
}

/// Checks the trie engine against the nested-loop reference on `q` over
/// `d`, at 1, 2, and 8 threads: same answer set (Evaluate), same
/// cardinality (Count), same emptiness (IsEmpty), and Evaluate output and
/// stats bit-identical across thread counts.
void ExpectMatchesReference(const JoinQuery& q, const Database& d) {
  JoinResult reference = EvaluateNestedLoop(q, d);
  reference.Normalize();

  JoinResult serial;
  GenericJoinStats serial_stats;
  for (int threads : {1, 2, 8}) {
    ExecutionContext ctx;
    ctx.threads = threads;
    GenericJoin gj(q, d, ctx);
    JoinResult result = gj.Evaluate();
    EXPECT_EQ(result.attributes, reference.attributes) << threads;

    JoinResult sorted = result;
    sorted.Normalize();
    EXPECT_EQ(sorted.tuples, reference.tuples) << "threads=" << threads;

    GenericJoin counter(q, d, ctx);
    EXPECT_EQ(counter.Count(), reference.tuples.size())
        << "threads=" << threads;
    GenericJoin decider(q, d, ctx);
    EXPECT_EQ(decider.IsEmpty(), reference.tuples.empty())
        << "threads=" << threads;

    if (threads == 1) {
      serial = std::move(result);
      serial_stats = gj.stats();
    } else {
      EXPECT_EQ(result.tuples, serial.tuples)
          << "Evaluate not bit-identical at threads=" << threads;
      EXPECT_EQ(gj.stats().nodes, serial_stats.nodes) << threads;
      EXPECT_EQ(gj.stats().probes, serial_stats.probes) << threads;
      EXPECT_EQ(gj.stats().gallops, serial_stats.gallops) << threads;
    }
  }
}

TEST(TrieJoinEquivalenceTest, TriangleSelfJoin) {
  // Triangle query over three copies of ONE relation — the E9 pattern.
  util::Rng rng(11);
  std::vector<Tuple> edges;
  for (int i = 0; i < 300; ++i) {
    Value a = static_cast<Value>(rng.NextBounded(40));
    Value b = static_cast<Value>(rng.NextBounded(40));
    if (a < b) edges.push_back({a, b});
  }
  Database d;
  d.SetRelation("E", 2, edges);
  JoinQuery q;
  q.Add("E", {"a", "b"}).Add("E", {"a", "c"}).Add("E", {"b", "c"});
  ExpectMatchesReference(q, d);
}

TEST(TrieJoinEquivalenceTest, RepeatedAttributeAtoms) {
  // R(x, x) forces the within-atom equality filter; S(x, y, x) repeats a
  // non-adjacent column.
  util::Rng rng(12);
  std::vector<Tuple> r, s;
  for (int i = 0; i < 200; ++i) {
    r.push_back({static_cast<Value>(rng.NextBounded(12)),
                 static_cast<Value>(rng.NextBounded(12))});
    s.push_back({static_cast<Value>(rng.NextBounded(12)),
                 static_cast<Value>(rng.NextBounded(12)),
                 static_cast<Value>(rng.NextBounded(12))});
  }
  Database d;
  d.SetRelation("R", 2, r);
  d.SetRelation("S", 3, s);
  JoinQuery q;
  q.Add("R", {"x", "x"}).Add("S", {"x", "y", "x"});
  ExpectMatchesReference(q, d);
}

TEST(TrieJoinEquivalenceTest, ZipfianSkew) {
  // Heavy-hitter values stress the galloping seeks: most probes land in a
  // few giant runs.
  util::Rng rng(13);
  std::vector<Tuple> r1, r2, r3;
  for (int i = 0; i < 500; ++i) {
    r1.push_back({ZipfValue(64, &rng), ZipfValue(64, &rng)});
    r2.push_back({ZipfValue(64, &rng), ZipfValue(64, &rng)});
    r3.push_back({ZipfValue(64, &rng), ZipfValue(64, &rng)});
  }
  Database d;
  d.SetRelation("R1", 2, r1);
  d.SetRelation("R2", 2, r2);
  d.SetRelation("R3", 2, r3);
  JoinQuery q;
  q.Add("R1", {"a", "b"}).Add("R2", {"a", "c"}).Add("R3", {"b", "c"});
  ExpectMatchesReference(q, d);
}

TEST(TrieJoinEquivalenceTest, EmptyRelation) {
  Database d;
  d.SetRelation("R", 2, {{1, 2}, {3, 4}});
  d.SetRelation("S", 2, {});
  JoinQuery q;
  q.Add("R", {"a", "b"}).Add("S", {"b", "c"});
  ExpectMatchesReference(q, d);
}

TEST(TrieJoinEquivalenceTest, DisconnectedCrossProduct) {
  // Atoms sharing no attributes: the descent crosses independent tries.
  Database d;
  d.SetRelation("R", 2, {{1, 2}, {1, 3}, {4, 2}});
  d.SetRelation("S", 1, {{7}, {9}});
  JoinQuery q;
  q.Add("R", {"a", "b"}).Add("S", {"c"});
  ExpectMatchesReference(q, d);
}

TEST(TrieJoinEquivalenceTest, TrieNodeCounterExported) {
  Database d;
  d.SetRelation("R", 2, {{1, 2}, {1, 3}, {2, 3}});
  JoinQuery q;
  q.Add("R", {"a", "b"}).Add("R", {"b", "c"});
  ExecutionContext ctx;
  util::Counters sink;
  ctx.counters = &sink;
  GenericJoin gj(q, d, ctx);
  EXPECT_GT(gj.trie_nodes(), 0u);
  EXPECT_EQ(sink.Get("trie.nodes"), gj.trie_nodes());
}

// ---------------------------------------------------------------------------
// Leaf sink: the last search level hands each binding straight to the entry
// point's sink (flat buffer, counter, emptiness flag). EvaluateFlat, Count
// and IsEmpty must agree with the Enumerate visitor and the nested-loop
// reference at every thread count and SIMD level, one-attribute queries
// included (there the root level is the leaf).

/// Runs `check` once per SIMD level this CPU supports, restoring the level
/// that was active before.
template <class Check>
void ForEachSimdLevel(Check&& check) {
  const kernels::SimdLevel before = kernels::ActiveSimdLevel();
  for (kernels::SimdLevel level :
       {kernels::SimdLevel::kScalar, kernels::SimdLevel::kAvx2,
        kernels::SimdLevel::kAvx512}) {
    if (level > kernels::BestSupportedSimdLevel()) continue;
    kernels::ForceSimdLevel(level);
    SCOPED_TRACE(kernels::SimdLevelName(level));
    check();
  }
  kernels::ForceSimdLevel(before);
}

void ExpectSinksAgree(const JoinQuery& q, const Database& d) {
  JoinResult reference = EvaluateNestedLoop(q, d);
  reference.Normalize();
  ForEachSimdLevel([&] {
    // The visitor path, serial by contract, is the order baseline.
    std::vector<Tuple> visited;
    GenericJoin enumerator(q, d, ExecutionContext());
    enumerator.Enumerate([&visited](const Tuple& t) {
      visited.push_back(t);
      return true;
    });
    EXPECT_EQ(visited, reference.tuples);
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE(threads);
      ExecutionContext ctx;
      ctx.threads = threads;
      GenericJoin gj(q, d, ctx);
      FlatJoinResult flat = gj.EvaluateFlat();
      EXPECT_FALSE(flat.truncated);
      EXPECT_EQ(flat.rows.ToRows(), visited);
      EXPECT_EQ(gj.stats().nodes, enumerator.stats().nodes);
      EXPECT_EQ(GenericJoin(q, d, ctx).Count(), visited.size());
      EXPECT_EQ(GenericJoin(q, d, ctx).IsEmpty(), visited.empty());
    }
  });
}

TEST(GenericJoinLeafSinkTest, OneAttributeQuery) {
  Database d;
  d.SetRelation("R", 1, {{3}, {1}, {4}, {1}, {5}, {9}, {2}, {6}});
  d.SetRelation("S", 1, {{5}, {3}, {5}, {8}, {9}, {7}, {9}, {3}});
  JoinQuery q;
  q.Add("R", {"a"}).Add("S", {"a"});
  ExpectSinksAgree(q, d);
  JoinQuery single;
  single.Add("R", {"a"});
  ExpectSinksAgree(single, d);
}

TEST(GenericJoinLeafSinkTest, AcyclicPath) {
  util::Rng rng(41);
  JoinQuery q;
  q.Add("R", {"a", "b"}).Add("S", {"b", "c"}).Add("T", {"c", "d"});
  ExpectSinksAgree(q, RandomDatabase(q, 120, 15, &rng));
}

TEST(GenericJoinLeafSinkTest, CyclicTriangleAndFourCycle) {
  util::Rng rng(43);
  JoinQuery tri;
  tri.Add("R", {"a", "b"}).Add("S", {"b", "c"}).Add("T", {"a", "c"});
  ExpectSinksAgree(tri, RandomDatabase(tri, 300, 20, &rng));
  JoinQuery cyc;
  cyc.Add("R", {"a", "b"}).Add("S", {"b", "c"}).Add("T", {"c", "d"})
      .Add("U", {"a", "d"});
  ExpectSinksAgree(cyc, RandomDatabase(cyc, 150, 12, &rng));
}

TEST(GenericJoinLeafSinkTest, DuplicateBaseRows) {
  // Every row appears three times; the tries deduplicate, so each answer
  // still reaches the sink exactly once.
  util::Rng rng(47);
  std::vector<Tuple> rows;
  for (int i = 0; i < 80; ++i) {
    const Tuple t = {static_cast<Value>(rng.NextBounded(10)),
                     static_cast<Value>(rng.NextBounded(10))};
    for (int copy = 0; copy < 3; ++copy) rows.push_back(t);
  }
  Database d;
  d.SetRelation("E", 2, rows);
  JoinQuery q;
  q.Add("E", {"a", "b"}).Add("E", {"b", "c"}).Add("E", {"a", "c"});
  ExpectSinksAgree(q, d);
}

TEST(GenericJoinLeafSinkTest, RowLimitMaterializesExactlyMaxRows) {
  util::Rng rng(53);
  JoinQuery q;
  q.Add("R", {"a", "b"}).Add("S", {"b", "c"}).Add("T", {"a", "c"});
  Database d = RandomDatabase(q, 1024, 64, &rng);
  ASSERT_GT(GenericJoin(q, d, ExecutionContext()).Count(), 25u);
  ForEachSimdLevel([&] {
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE(threads);
      ExecutionContext ctx;
      ctx.threads = threads;
      ctx.max_output_rows = 25;
      GenericJoin gj(q, d, ctx);
      FlatJoinResult flat = gj.EvaluateFlat();
      EXPECT_EQ(flat.rows.size(), 25u);
      EXPECT_TRUE(flat.truncated);
      EXPECT_EQ(gj.status(), util::RunStatus::kBudgetExhausted);
    }
  });
}

/// The E17 triangle instance: three relations of 1500 uniform rows over a
/// 48-value domain (duplicates included).
Database UniformTriangleDb(std::uint64_t seed) {
  util::Rng rng(seed);
  Database d;
  for (const char* name : {"R1", "R2", "R3"}) {
    FlatRelation rows(2);
    for (int i = 0; i < 1500; ++i) {
      const Value row[2] = {static_cast<Value>(rng.NextBounded(48)),
                            static_cast<Value>(rng.NextBounded(48))};
      rows.PushRow(row);
    }
    d.SetRelation(name, std::move(rows));
  }
  return d;
}

/// The ingest_views triangle instance: 9,600 distinct directed edges over
/// 600 vertices, no self-loops.
Database SparseDigraphDb(std::uint64_t seed) {
  constexpr int kVertices = 600;
  util::Rng rng(seed);
  std::vector<std::uint8_t> seen(kVertices * kVertices, 0);
  FlatRelation edges(2);
  while (edges.size() < 9600) {
    const auto u = static_cast<Value>(rng.NextBounded(kVertices));
    const auto v = static_cast<Value>(rng.NextBounded(kVertices));
    if (u == v || seen[u * kVertices + v] != 0) continue;
    seen[u * kVertices + v] = 1;
    const Value row[2] = {u, v};
    edges.PushRow(row);
  }
  Database d;
  d.SetRelation("E", std::move(edges));
  return d;
}

TEST(GenericJoinLeafSinkTest, SearchNodeCountsArePinned) {
  // The leaf sink and the short-span merge change how a level is walked,
  // not which nodes it visits: these counts are the galloping engine's.
  JoinQuery e17;
  e17.Add("R1", {"a", "b"}).Add("R2", {"a", "c"}).Add("R3", {"b", "c"});
  JoinQuery ingest;
  ingest.Add("E", {"a", "b"}).Add("E", {"b", "c"}).Add("E", {"a", "c"});
  const Database e17_db = UniformTriangleDb(17);
  const Database ingest_db = SparseDigraphDb(17);
  ForEachSimdLevel([&] {
    for (int threads : {1, 8}) {
      SCOPED_TRACE(threads);
      ExecutionContext ctx;
      ctx.threads = threads;
      GenericJoin tri(e17, e17_db, ctx);
      EXPECT_EQ(tri.EvaluateFlat().rows.size(), 12400u);
      EXPECT_EQ(tri.stats().nodes, 13556u);
      GenericJoin sparse(ingest, ingest_db, ctx);
      EXPECT_EQ(sparse.EvaluateFlat().rows.size(), 4101u);
      EXPECT_EQ(sparse.stats().nodes, 14301u);
    }
  });
}

}  // namespace
}  // namespace qc::db
