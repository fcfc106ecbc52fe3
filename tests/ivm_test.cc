// Incremental view maintenance (db/ivm.h): delta-rule correctness against
// definitional recompute, triangle delta counting against brute force,
// randomized mutation streams across every MvccDatabase write path, WAL
// fault injection, and reader/writer concurrency at 1/2/8 threads.
//
// The one contract everything here pins: ViewRegistry::Read(name) is
// bit-identical to RecomputeView(def, snapshot, epoch) — the maintained
// state must be indistinguishable from a full recompute at every single
// epoch, or the "incremental" in IVM is a silent wrong-answer generator.
// Suite names match the tsan preset filter (Ivm*), so the race-detecting
// build runs the concurrency suite too.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "db/database.h"
#include "db/ivm.h"
#include "db/mvcc.h"
#include "db/parser.h"
#include "db/wal.h"
#include "util/fault.h"

namespace qc {
namespace {

db::ViewDefinition JoinDef(const std::string& name,
                           const std::string& query_text) {
  db::ViewDefinition def;
  def.name = name;
  def.kind = db::ViewDefinition::Kind::kJoin;
  def.text = query_text;
  db::ParseResult<db::JoinQuery> parsed = db::ParseJoinQuery(query_text);
  EXPECT_TRUE(parsed) << query_text;
  def.query = *parsed;
  return def;
}

db::ViewDefinition TriangleDef(const std::string& name,
                               const std::string& relation) {
  db::ViewDefinition def;
  def.name = name;
  def.kind = db::ViewDefinition::Kind::kTriangleCount;
  def.relation = relation;
  def.text = relation;
  return def;
}

// O(E^2) definitional triangle count: |{(a,b,c) : E(a,b),E(b,c),E(a,c)}|
// over the distinct edge set (set semantics, self-loops legal).
std::uint64_t BruteTriangles(const db::Database& db,
                             const std::string& rel) {
  std::set<std::pair<db::Value, db::Value>> edges;
  for (const db::Tuple& t : db.Tuples(rel)) edges.insert({t[0], t[1]});
  std::uint64_t n = 0;
  for (const auto& [a, b] : edges) {
    for (const auto& [b2, c] : edges) {
      if (b2 == b && edges.count({a, c}) != 0) ++n;
    }
  }
  return n;
}

// The whole correctness contract in one helper: every registered view's
// maintained state equals a from-scratch recompute on a fresh snapshot.
void ExpectViewsMatchRecompute(
    db::MvccDatabase& mvcc, db::ViewRegistry& views,
    const std::vector<db::ViewDefinition>& defs) {
  db::MvccSnapshot snap = mvcc.Snapshot();
  for (const db::ViewDefinition& def : defs) {
    db::ViewRead maintained = views.Read(def.name);
    ASSERT_TRUE(maintained.ok) << maintained.error;
    db::ViewRead expected = db::RecomputeView(def, *snap.db, snap.epoch);
    ASSERT_TRUE(expected.ok) << expected.error;
    EXPECT_EQ(maintained.epoch, snap.epoch) << def.name;
    EXPECT_EQ(maintained.attributes, expected.attributes) << def.name;
    EXPECT_EQ(maintained.rows->ToRows(), expected.rows->ToRows()) << def.name;
  }
}

// --- Registration, validation, and the definition codec -----------------

TEST(IvmViewTest, ValidatesDefinitionsAgainstTheDatabase) {
  db::Database d;
  ASSERT_TRUE(d.SetRelation("R", 2, {{1, 2}}));
  ASSERT_TRUE(d.SetRelation("S", 2, {{2, 3}}));
  ASSERT_TRUE(d.SetRelation("U", 1, {{7}}));
  db::ViewRegistry views;

  EXPECT_TRUE(views.Validate(JoinDef("v", "R(a,b), S(b,c)"), d));
  EXPECT_TRUE(views.Validate(TriangleDef("t", "R"), d));
  // Unknown relation.
  EXPECT_FALSE(views.Validate(JoinDef("v", "R(a,b), X(b,c)"), d));
  // Arity mismatch.
  db::ViewDefinition bad = JoinDef("v", "R(a,b,c)");
  EXPECT_FALSE(views.Validate(bad, d));
  // Cyclic query.
  EXPECT_FALSE(views.Validate(JoinDef("v", "R(a,b), S(b,c), R(c,a)"), d));
  // Triangle view over a non-binary relation.
  EXPECT_FALSE(views.Validate(TriangleDef("t", "U"), d));
  // Empty name.
  EXPECT_FALSE(views.Validate(JoinDef("", "R(a,b)"), d));

  ASSERT_TRUE(views.Register(JoinDef("v", "R(a,b), S(b,c)"), d, 0));
  // Duplicate name.
  EXPECT_FALSE(views.Register(JoinDef("v", "R(a,b)"), d, 0));
  EXPECT_FALSE(views.Validate(JoinDef("v", "R(a,b)"), d));
  EXPECT_TRUE(views.Has("v"));
  EXPECT_EQ(views.ViewNames(), (std::vector<std::string>{"v"}));
  EXPECT_TRUE(views.Unregister("v"));
  EXPECT_FALSE(views.Unregister("v"));
  EXPECT_TRUE(views.empty());
}

TEST(IvmViewTest, DefinitionRecordRoundTrips) {
  for (const db::ViewDefinition& def :
       {JoinDef("chain", "R(a,b), S(b,c)"), TriangleDef("tri", "E")}) {
    db::WalRecord record = db::ViewDefinitionRecord(def);
    EXPECT_EQ(record.kind, db::WalRecord::Kind::kViewDef);
    EXPECT_EQ(record.request_id, 0u);  // Never dedup-skipped on replay.
    db::ViewDefinition back;
    ASSERT_TRUE(db::ViewDefinitionFromRecord(record, &back));
    EXPECT_EQ(back.name, def.name);
    EXPECT_EQ(back.kind, def.kind);
    EXPECT_EQ(back.text, def.text);
    EXPECT_EQ(back.relation, def.relation);
    EXPECT_EQ(back.query.atoms.size(), def.query.atoms.size());
  }
  // Unparseable body is a structured failure.
  db::WalRecord garbage;
  garbage.kind = db::WalRecord::Kind::kViewDef;
  garbage.relation = "v";
  garbage.arity = 0;
  garbage.dataset = "not a ( query";
  db::ViewDefinition out;
  EXPECT_FALSE(db::ViewDefinitionFromRecord(garbage, &out));
  garbage.kind = db::WalRecord::Kind::kAddTuples;
  EXPECT_FALSE(db::ViewDefinitionFromRecord(garbage, &out));
}

// --- Join maintenance across every mutation path ------------------------

TEST(IvmViewTest, AppendsMaintainChainJoinIncrementally) {
  db::MvccDatabase mvcc;
  db::ViewRegistry views;
  mvcc.AttachViews(&views);
  ASSERT_TRUE(mvcc.SetRelation("R", 2, {{1, 2}}));
  ASSERT_TRUE(mvcc.SetRelation("S", 2, {{2, 3}}));
  ASSERT_TRUE(mvcc.SetRelation("T", 2, {{3, 4}}));
  const db::ViewDefinition def = JoinDef("chain", "R(a,b), S(b,c), T(c,d)");
  ASSERT_TRUE(mvcc.RegisterView(def));
  ExpectViewsMatchRecompute(mvcc, views, {def});
  EXPECT_EQ(views.Read("chain").rows->ToRows(),
            (std::vector<db::Tuple>{{1, 2, 3, 4}}));

  // Appends to every atom, including ones creating no new result rows.
  ASSERT_TRUE(mvcc.AddTuple("S", {2, 30}));  // Dead end: no T(30, _).
  ExpectViewsMatchRecompute(mvcc, views, {def});
  ASSERT_TRUE(mvcc.AddTuple("T", {30, 5}));  // Revives it.
  ExpectViewsMatchRecompute(mvcc, views, {def});
  EXPECT_EQ(views.Read("chain").rows->size(), 2u);
  ASSERT_TRUE(mvcc.AddTuples("R", {{0, 2}, {1, 2}, {1, 2}}));  // Dups.
  ExpectViewsMatchRecompute(mvcc, views, {def});
  EXPECT_EQ(views.Read("chain").rows->size(), 4u);

  // A delta sweep ran instead of a full recompute.
  db::IvmStats stats = views.stats();
  EXPECT_GT(stats.dirty_subtree_sweeps, 0u);
  EXPECT_GT(stats.rows_delta_applied, 0u);
  EXPECT_EQ(stats.full_recomputes, 1u);  // Registration only.

  // Replacing a relation falls back to one full recompute.
  ASSERT_TRUE(mvcc.SetRelation("S", 2, {{2, 3}}));
  ExpectViewsMatchRecompute(mvcc, views, {def});
  EXPECT_EQ(views.stats().full_recomputes, 2u);
  EXPECT_EQ(views.Read("chain").rows->ToRows(),
            (std::vector<db::Tuple>{{0, 2, 3, 4}, {1, 2, 3, 4}}));
}

TEST(IvmViewTest, SelfJoinRepeatedAttributeAndCrossProduct) {
  db::MvccDatabase mvcc;
  db::ViewRegistry views;
  mvcc.AttachViews(&views);
  ASSERT_TRUE(mvcc.SetRelation("E", 2, {{1, 2}, {2, 3}}));
  ASSERT_TRUE(mvcc.SetRelation("U", 1, {{7}}));
  // Self-join: both atoms over E are dirty on every E append.
  const db::ViewDefinition paths = JoinDef("paths", "E(a,b), E(b,c)");
  // Repeated attribute inside one atom: E(x,x) filters the diagonal.
  const db::ViewDefinition loops = JoinDef("loops", "E(x,x)");
  // Disconnected query: join tree has two components (cross product).
  const db::ViewDefinition cross = JoinDef("cross", "E(a,b), U(c)");
  ASSERT_TRUE(mvcc.RegisterView(paths));
  ASSERT_TRUE(mvcc.RegisterView(loops));
  ASSERT_TRUE(mvcc.RegisterView(cross));
  ExpectViewsMatchRecompute(mvcc, views, {paths, loops, cross});

  ASSERT_TRUE(mvcc.AddTuple("E", {3, 3}));  // Self-loop: hits all three.
  ExpectViewsMatchRecompute(mvcc, views, {paths, loops, cross});
  EXPECT_EQ(views.Read("loops").rows->ToRows(),
            (std::vector<db::Tuple>{{3}}));
  ASSERT_TRUE(mvcc.AddTuples("U", {{8}, {9}}));
  ExpectViewsMatchRecompute(mvcc, views, {paths, loops, cross});
  ASSERT_TRUE(mvcc.AddTuple("E", {2, 1}));  // Creates a 2-cycle.
  ExpectViewsMatchRecompute(mvcc, views, {paths, loops, cross});
}

// --- Triangle counting --------------------------------------------------

TEST(IvmViewTest, TriangleCountMatchesBruteForceOnAdversarialStream) {
  db::MvccDatabase mvcc;
  db::ViewRegistry views;
  mvcc.AttachViews(&views);
  ASSERT_TRUE(mvcc.SetRelation("E", 2, {{1, 1}}));  // Seed self-loop.
  const db::ViewDefinition def = TriangleDef("tri", "E");
  ASSERT_TRUE(mvcc.RegisterView(def));

  // Deterministic stream biased toward self-loops, duplicate edges, and
  // hub nodes — every branch of the per-edge delta formula fires.
  std::mt19937 rng(7);
  std::uniform_int_distribution<db::Value> node(0, 5);
  for (int step = 0; step < 160; ++step) {
    db::Value u = node(rng);
    db::Value w = (step % 5 == 0) ? u : node(rng);  // Forced self-loops.
    ASSERT_TRUE(mvcc.AddTuple("E", {u, w}));
    db::ViewRead read = views.Read("tri");
    ASSERT_TRUE(read.ok);
    db::MvccSnapshot snap = mvcc.Snapshot();
    ASSERT_EQ(read.rows->size(), 1u);
    EXPECT_EQ(static_cast<std::uint64_t>(read.rows->At(0, 0)),
              BruteTriangles(*snap.db, "E"))
        << "after inserting (" << u << "," << w << ")";
    EXPECT_EQ(read.attributes, (std::vector<std::string>{"count"}));
  }
  // The whole stream was maintained by deltas: registration is the only
  // full recompute.
  EXPECT_EQ(views.stats().full_recomputes, 1u);

  // Replacement falls back to recompute and stays correct.
  ASSERT_TRUE(mvcc.SetRelation("E", 2, {{0, 1}, {1, 2}, {0, 2}}));
  EXPECT_EQ(views.Read("tri").rows->At(0, 0), 1);
  ExpectViewsMatchRecompute(mvcc, views, {def});
}

// --- Randomized streams over every write path ---------------------------

TEST(IvmEquivalenceTest, RandomizedMutationStreamMatchesRecomputeEveryEpoch) {
  for (std::uint32_t seed : {11u, 23u, 47u}) {
    db::MvccDatabase mvcc;
    db::ViewRegistry views;
    mvcc.AttachViews(&views);
    ASSERT_TRUE(mvcc.SetRelation("R", 2, {{0, 1}}));
    ASSERT_TRUE(mvcc.SetRelation("S", 2, {{1, 2}}));
    ASSERT_TRUE(mvcc.SetRelation("T", 2, {{2, 3}}));
    const std::vector<db::ViewDefinition> defs = {
        JoinDef("chain", "R(a,b), S(b,c), T(c,d)"),
        JoinDef("pair", "S(x,y), S(y,z)"),
        // Repeated attribute: only R's diagonal rows join.
        JoinDef("diag", "R(x,x), S(x,y)"),
        // Three atoms over one relation: every T append dirties all three.
        JoinDef("path", "T(a,b), T(b,c), T(c,d)"),
        // Attribute-disjoint atoms: a cross product.
        JoinDef("cross", "R(a,b), T(c,d)"),
        TriangleDef("tri", "R"),
    };
    for (const db::ViewDefinition& def : defs) {
      ASSERT_TRUE(mvcc.RegisterView(def));
    }

    std::mt19937 rng(seed);
    std::uniform_int_distribution<db::Value> val(0, 6);
    std::uniform_int_distribution<int> pick(0, 99);
    const std::string rels[3] = {"R", "S", "T"};
    for (int step = 0; step < 120; ++step) {
      const int rel_index = pick(rng) % 3;
      const std::string& rel = rels[rel_index];
      int action = pick(rng);
      if (action < 50) {
        ASSERT_TRUE(mvcc.AddTuple(rel, {val(rng), val(rng)}));
      } else if (action < 75) {
        std::vector<db::Tuple> batch;
        for (int i = pick(rng) % 4; i >= 0; --i) {
          batch.push_back({val(rng), val(rng)});
        }
        ASSERT_TRUE(mvcc.AddTuples(rel, std::move(batch)));
      } else if (action < 85) {
        // Staged arbitrary mutation: conservative replace deltas.
        ASSERT_TRUE(mvcc.Mutate([&](db::Database& d) {
          return d.AddTuple(rel, {val(rng), val(rng)});
        }));
      } else if (action < 90) {
        // In-place durable path (create-or-append contract).
        db::WalRecord record;
        record.kind = db::WalRecord::Kind::kAddTuples;
        record.relation = rel;
        db::Tuple t = {val(rng), val(rng)};
        record.tuples = {t};
        ASSERT_TRUE(mvcc.MutateLoggedInPlace(
            record,
            [](const db::Database&) { return db::MutationResult::Ok(); },
            [&](db::Database& d) { return d.AddTuple(rel, t); }));
      } else if (action < 95) {
        // One commit appending to two relations, the second tuple chained
        // onto the first: a row joining both new tuples comes out of both
        // delta joins, and the merge must drop the second copy.
        const std::string& other = rels[(rel_index + 1) % 3];
        const db::Tuple t = {val(rng), val(rng)};
        const db::Tuple u = {t[1], val(rng)};
        db::WalRecord record;
        record.kind = db::WalRecord::Kind::kDataset;
        record.dataset = "relation " + rel + ":\n" + std::to_string(t[0]) +
                         " " + std::to_string(t[1]) + "\nrelation " + other +
                         ":\n" + std::to_string(u[0]) + " " +
                         std::to_string(u[1]) + "\n";
        ASSERT_TRUE(mvcc.MutateLoggedInPlace(
            record,
            [](const db::Database&) { return db::MutationResult::Ok(); },
            [&](db::Database& d) {
              db::MutationResult r = d.AddTuple(rel, t);
              return r ? d.AddTuple(other, u) : r;
            }));
      } else {
        // Full replacement with a shrunk relation.
        ASSERT_TRUE(mvcc.SetRelation(rel, 2, {{val(rng), val(rng)}}));
      }
      ExpectViewsMatchRecompute(mvcc, views, defs);
    }
    EXPECT_GT(views.stats().dirty_subtree_sweeps, 0u) << "seed " << seed;
  }
}

// --- WAL rejection and fault injection ----------------------------------

class IvmWalFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string templ = ::testing::TempDir() + "qc_ivm_XXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    dir_ = ::mkdtemp(buf.data());
  }
  void TearDown() override {
    util::FaultRegistry::Global().Clear();
    util::FaultRegistry::Global().ResetStats();
    std::remove((dir_ + "/wal.log").c_str());
    std::remove((dir_ + "/snapshot.dat").c_str());
    ::rmdir(dir_.c_str());
  }
  db::WalOptions Options() const {
    db::WalOptions o;
    o.dir = dir_;
    o.fsync = db::FsyncPolicy::kAlways;  // Fault point wal.fsync is live.
    return o;
  }
  std::string dir_;
};

TEST_F(IvmWalFaultTest, RejectedMutationsLeaveViewsUntouched) {
  db::Wal wal;
  std::string error;
  ASSERT_TRUE(wal.Open(Options(), &error)) << error;
  db::MvccDatabase mvcc;
  db::ViewRegistry views;
  mvcc.AttachViews(&views);
  mvcc.AttachWal(&wal);
  ASSERT_TRUE(mvcc.SetRelation("R", 2, {{1, 2}}));
  ASSERT_TRUE(mvcc.SetRelation("S", 2, {{2, 3}}));
  const db::ViewDefinition def = JoinDef("v", "R(a,b), S(b,c)");
  ASSERT_TRUE(mvcc.RegisterView(def));

  // Every mutation under an injected fsync fault is rejected before it is
  // applied — the maintained view must not move, and must still equal the
  // recompute at the unchanged epoch.
  ASSERT_TRUE(util::FaultRegistry::Global().Configure("wal.fsync:after=0",
                                                      1, &error))
      << error;
  const std::uint64_t epoch = mvcc.Epoch();
  EXPECT_FALSE(mvcc.AddTuple("R", {2, 2}));
  EXPECT_FALSE(mvcc.AddTuples("S", {{3, 4}, {4, 5}}));
  EXPECT_FALSE(mvcc.SetRelation("R", 2, {{9, 9}}));
  EXPECT_EQ(mvcc.Epoch(), epoch);
  ExpectViewsMatchRecompute(mvcc, views, {def});
  EXPECT_EQ(views.Read("v").rows->ToRows(),
            (std::vector<db::Tuple>{{1, 2, 3}}));

  // Registration is durable too: a WAL that cannot log the definition
  // refuses the registration.
  EXPECT_FALSE(mvcc.RegisterView(JoinDef("v2", "R(a,b)")));
  EXPECT_FALSE(views.Has("v2"));

  // Fault cleared: the stream resumes and maintenance catches up.
  util::FaultRegistry::Global().Clear();
  ASSERT_TRUE(mvcc.AddTuple("R", {2, 2}));
  ASSERT_TRUE(mvcc.AddTuple("S", {2, 9}));
  ExpectViewsMatchRecompute(mvcc, views, {def});
  // R = {(1,2),(2,2)} x S = {(2,3),(2,9)} joins to 4 rows.
  EXPECT_EQ(views.Read("v").rows->size(), 4u);
}

// --- Concurrency: readers at 1/2/8 threads against a mutation stream ----

TEST(IvmConcurrencyTest, ReadersSeeEpochConsistentStateUnderLoad) {
  for (int reader_threads : {1, 2, 8}) {
    db::MvccDatabase mvcc;
    db::ViewRegistry views;
    mvcc.AttachViews(&views);
    ASSERT_TRUE(mvcc.SetRelation("R", 2, {{0, 1}}));
    ASSERT_TRUE(mvcc.SetRelation("S", 2, {{1, 2}}));
    const db::ViewDefinition def = JoinDef("v", "R(a,b), S(b,c)");
    ASSERT_TRUE(mvcc.RegisterView(def));

    std::atomic<bool> done{false};
    std::atomic<int> mismatches{0};
    std::vector<std::thread> readers;
    readers.reserve(reader_threads);
    for (int t = 0; t < reader_threads; ++t) {
      readers.emplace_back([&] {
        while (!done.load(std::memory_order_relaxed)) {
          // A view read and a snapshot taken with no intervening commit
          // must agree bit-for-bit. The double-read pins that window:
          // when the epoch moved mid-probe, the probe is inconclusive
          // and skipped, never counted as a pass.
          db::ViewRead first = views.Read("v");
          db::MvccSnapshot snap = mvcc.Snapshot();
          db::ViewRead second = views.Read("v");
          if (!first.ok || !second.ok) {
            ++mismatches;
            continue;
          }
          if (first.epoch != second.epoch || snap.epoch != first.epoch) {
            continue;  // A commit raced the probe.
          }
          db::ViewRead expected =
              db::RecomputeView(def, *snap.db, snap.epoch);
          if (*second.rows != *expected.rows ||
              second.attributes != expected.attributes) {
            ++mismatches;
          }
        }
      });
    }
    std::mt19937 rng(1234);
    std::uniform_int_distribution<db::Value> val(0, 5);
    for (int step = 0; step < 300; ++step) {
      const std::string rel = (step % 2 == 0) ? "R" : "S";
      ASSERT_TRUE(mvcc.AddTuple(rel, {val(rng), val(rng)}));
    }
    done.store(true, std::memory_order_relaxed);
    for (std::thread& t : readers) t.join();
    EXPECT_EQ(mismatches.load(), 0) << reader_threads << " readers";
    ExpectViewsMatchRecompute(mvcc, views, {def});
  }
}

}  // namespace
}  // namespace qc
