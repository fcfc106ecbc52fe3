#include <gtest/gtest.h>

#include <thread>

#include "db/agm.h"
#include "db/database.h"
#include "db/generic_join.h"
#include "db/joins.h"
#include "db/yannakakis.h"
#include "util/rng.h"

namespace qc::db {
namespace {

using util::Fraction;

/// The running example of Section 3:
/// Q = R1(a,b) |><| R2(a,c) |><| R3(b,c).
JoinQuery TriangleQuery() {
  JoinQuery q;
  q.Add("R1", {"a", "b"}).Add("R2", {"a", "c"}).Add("R3", {"b", "c"});
  return q;
}

/// Path query R(a,b) |><| S(b,c): acyclic.
JoinQuery PathQuery() {
  JoinQuery q;
  q.Add("R", {"a", "b"}).Add("S", {"b", "c"});
  return q;
}

Database TriangleDb(const std::vector<Tuple>& r1, const std::vector<Tuple>& r2,
                    const std::vector<Tuple>& r3) {
  Database db;
  db.SetRelation("R1", 2, r1);
  db.SetRelation("R2", 2, r2);
  db.SetRelation("R3", 2, r3);
  return db;
}

TEST(JoinQueryTest, SchemaAndGraphs) {
  JoinQuery q = TriangleQuery();
  EXPECT_EQ(q.AttributeOrder(), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(q.Hypergraph().num_edges(), 3);
  EXPECT_EQ(q.PrimalGraph().num_edges(), 3);
}

TEST(DatabaseTest, RelationManagement) {
  Database db;
  db.SetRelation("R", 2, {{1, 2}});
  db.AddTuple("R", {3, 4});
  EXPECT_TRUE(db.HasRelation("R"));
  EXPECT_FALSE(db.HasRelation("S"));
  EXPECT_EQ(db.Arity("R"), 2);
  EXPECT_EQ(db.Tuples("R").size(), 2u);
  EXPECT_EQ(db.MaxRelationSize(), 2u);
  EXPECT_EQ(db.RelationNames(), (std::vector<std::string>{"R"}));
}

TEST(NestedLoopTest, TriangleByHand) {
  // Edges of a 4-cycle as a "graph": 0-1, 1-2, 2-3, 3-0 — no triangle.
  std::vector<Tuple> edges = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  Database db = TriangleDb(edges, edges, edges);
  JoinResult r = EvaluateNestedLoop(TriangleQuery(), db);
  EXPECT_TRUE(r.tuples.empty());
  // Add the chord 0-2 in all relations: triangles appear.
  for (const char* rel : {"R1", "R2", "R3"}) db.AddTuple(rel, {0, 2});
  r = EvaluateNestedLoop(TriangleQuery(), db);
  EXPECT_FALSE(r.tuples.empty());
  // (0,1,2) requires R1(0,1), R2(0,2), R3(1,2): all present.
  EXPECT_NE(std::find(r.tuples.begin(), r.tuples.end(), Tuple({0, 1, 2})),
            r.tuples.end());
}

TEST(HashJoinTest, SharedAndCrossProduct) {
  JoinResult a{{"x", "y"}, {{1, 2}, {3, 4}}};
  JoinResult b{{"y", "z"}, {{2, 5}, {2, 6}, {9, 9}}};
  JoinResult ab = HashJoin(a, b);
  ab.Normalize();
  EXPECT_EQ(ab.attributes, (std::vector<std::string>{"x", "y", "z"}));
  EXPECT_EQ(ab.tuples,
            (std::vector<Tuple>{{1, 2, 5}, {1, 2, 6}}));
  // Cross product when no shared attributes.
  JoinResult c{{"w"}, {{7}, {8}}};
  JoinResult ac = HashJoin(a, c);
  EXPECT_EQ(ac.tuples.size(), 4u);
}

TEST(MaterializeAtomTest, RepeatedAttributeFiltersEquality) {
  Database db;
  db.SetRelation("R", 2, {{1, 1}, {1, 2}, {3, 3}});
  Atom atom{"R", {"a", "a"}};
  JoinResult r = MaterializeAtom(atom, db);
  EXPECT_EQ(r.attributes, (std::vector<std::string>{"a"}));
  EXPECT_EQ(r.tuples, (std::vector<Tuple>{{1}, {3}}));
}

class JoinAlgorithmsAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(JoinAlgorithmsAgreementTest, AllEvaluatorsAgreeOnTriangle) {
  util::Rng rng(900 + GetParam());
  JoinQuery q = TriangleQuery();
  Database db = RandomDatabase(q, 30, 8, &rng);
  JoinResult expected = EvaluateNestedLoop(q, db);
  expected.Normalize();

  JoinResult greedy = EvaluateGreedyBinaryJoin(q, db);
  greedy.Normalize();
  EXPECT_EQ(greedy.tuples, expected.tuples);

  GenericJoin gj(q, db);
  JoinResult wcoj = gj.Evaluate();
  wcoj.Normalize();
  EXPECT_EQ(wcoj.tuples, expected.tuples);
  EXPECT_EQ(GenericJoin(q, db).Count(), expected.tuples.size());
  EXPECT_EQ(GenericJoin(q, db).IsEmpty(), expected.tuples.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinAlgorithmsAgreementTest,
                         ::testing::Range(0, 15));

TEST(JoinAlgorithmsTest, AcyclicAgreement) {
  util::Rng rng(7);
  JoinQuery q;
  q.Add("R", {"a", "b"}).Add("S", {"b", "c"}).Add("T", {"c", "d"}).Add(
      "U", {"b", "e"});
  for (int trial = 0; trial < 10; ++trial) {
    Database db = RandomDatabase(q, 25, 6, &rng);
    JoinResult expected = EvaluateNestedLoop(q, db);
    expected.Normalize();
    auto yan = EvaluateYannakakis(q, db);
    ASSERT_TRUE(yan.has_value());
    yan->Normalize();
    EXPECT_EQ(yan->tuples, expected.tuples);
    auto boolean = BooleanYannakakis(q, db);
    ASSERT_TRUE(boolean.has_value());
    EXPECT_EQ(*boolean, !expected.tuples.empty());
    JoinResult wcoj = GenericJoin(q, db).Evaluate();
    wcoj.Normalize();
    EXPECT_EQ(wcoj.tuples, expected.tuples);
  }
}

TEST(JoinAlgorithmsTest, GenericJoinCustomOrderAgrees) {
  util::Rng rng(8);
  JoinQuery q = TriangleQuery();
  Database db = RandomDatabase(q, 40, 7, &rng);
  JoinResult base = GenericJoin(q, db).Evaluate();
  base.Normalize();
  for (std::vector<std::string> order :
       {std::vector<std::string>{"c", "a", "b"},
        std::vector<std::string>{"b", "c", "a"}}) {
    GenericJoin gj(q, db, order);
    JoinResult r = gj.Evaluate();
    // Reorder columns to canonical order before comparing.
    JoinResult canon;
    canon.attributes = {"a", "b", "c"};
    for (const auto& t : r.tuples) {
      Tuple u(3);
      for (int i = 0; i < 3; ++i) {
        auto it = std::find(r.attributes.begin(), r.attributes.end(),
                            canon.attributes[i]);
        u[i] = t[it - r.attributes.begin()];
      }
      canon.tuples.push_back(u);
    }
    canon.Normalize();
    EXPECT_EQ(canon.tuples, base.tuples);
  }
}

TEST(YannakakisTest, RejectsCyclicQuery) {
  EXPECT_FALSE(IsAcyclicQuery(TriangleQuery()));
  EXPECT_TRUE(IsAcyclicQuery(PathQuery()));
  util::Rng rng(9);
  Database db = RandomDatabase(TriangleQuery(), 10, 5, &rng);
  EXPECT_FALSE(EvaluateYannakakis(TriangleQuery(), db).has_value());
  EXPECT_FALSE(BooleanYannakakis(TriangleQuery(), db).has_value());
}

TEST(YannakakisTest, DuplicateBaseRowsCollapse) {
  // Set semantics: a bag-semantics join fold would emit (1,2,3) four times.
  Database db;
  db.SetRelation("R", 2, {{1, 2}, {1, 2}, {4, 5}});
  db.SetRelation("S", 2, {{2, 3}, {2, 3}, {9, 9}});
  auto yan = EvaluateYannakakis(PathQuery(), db);
  ASSERT_TRUE(yan.has_value());
  EXPECT_EQ(yan->attributes, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(yan->tuples, (std::vector<Tuple>{{1, 2, 3}}));
  EXPECT_EQ(EvaluateNestedLoop(PathQuery(), db).tuples, yan->tuples);
}

TEST(SemijoinTest, Basic) {
  // The reducer's semijoins: A(x,y) ⋉ B(y) keeps the rows whose y is in B.
  Database db;
  db.SetRelation("A", 2, {{1, 2}, {3, 4}, {5, 6}, {1, 2}});
  db.SetRelation("B", 1, {{6}, {2}});
  JoinQuery q;
  q.Add("A", {"x", "y"}).Add("B", {"y"});
  auto red = ReduceAcyclicQuery(q, db, Sweeps::kUpAndDown);
  ASSERT_TRUE(red.has_value());
  // B absorbs A in the GYO reduction, so B is the root and y binds first.
  EXPECT_EQ(red->variables, (std::vector<std::string>{"y", "x"}));
  EXPECT_EQ(red->atoms[0].attributes, (std::vector<std::string>{"y", "x"}));
  EXPECT_EQ(red->atoms[0].rows.ToRows(), (std::vector<Tuple>{{2, 1}, {6, 5}}));
  EXPECT_TRUE(red->atoms[0].shrunk);
  EXPECT_EQ(red->atoms[1].rows.ToRows(), (std::vector<Tuple>{{2}, {6}}));
  EXPECT_FALSE(red->atoms[1].shrunk);
  // An empty atom sharing no attribute with the rest removes everything.
  db.SetRelation("E", 1, {});
  q.Add("E", {"z"});
  red = ReduceAcyclicQuery(q, db, Sweeps::kUpAndDown);
  ASSERT_TRUE(red.has_value());
  for (const ReducedAtom& atom : red->atoms) EXPECT_TRUE(atom.rows.empty());
}

TEST(AgmTest, TriangleAnalysis) {
  auto analysis = AnalyzeAgm(TriangleQuery());
  ASSERT_TRUE(analysis.has_value());
  EXPECT_EQ(analysis->rho_star, Fraction(3, 2));
  for (const auto& w : analysis->edge_weights) EXPECT_EQ(w, Fraction(1, 2));
  for (const auto& x : analysis->vertex_shares) EXPECT_EQ(x, Fraction(1, 2));
  EXPECT_DOUBLE_EQ(analysis->BoundForN(100.0), 1000.0);
}

TEST(AgmTest, PathAnalysis) {
  auto analysis = AnalyzeAgm(PathQuery());
  ASSERT_TRUE(analysis.has_value());
  EXPECT_EQ(analysis->rho_star, Fraction(2));
}

TEST(AgmTest, BoundHoldsOnRandomDatabases) {
  util::Rng rng(10);
  JoinQuery q = TriangleQuery();
  auto analysis = AnalyzeAgm(q);
  ASSERT_TRUE(analysis.has_value());
  for (int trial = 0; trial < 10; ++trial) {
    Database db = RandomDatabase(q, 40, 9, &rng);
    std::uint64_t count = GenericJoin(q, db).Count();
    double bound =
        analysis->BoundForN(static_cast<double>(db.MaxRelationSize()));
    EXPECT_LE(static_cast<double>(count), bound + 1e-9);
  }
}

TEST(AgmTest, TightInstanceMeetsBoundExactly) {
  JoinQuery q = TriangleQuery();
  auto analysis = AnalyzeAgm(q);
  ASSERT_TRUE(analysis.has_value());
  for (int t : {2, 3, 4}) {
    long long n = 0;
    Database db = AgmTightInstance(q, *analysis, t, &n);
    EXPECT_EQ(n, static_cast<long long>(t) * t);  // L = 2 for the triangle.
    // Every relation has exactly N tuples.
    for (const auto& name : db.RelationNames()) {
      EXPECT_EQ(db.Tuples(name).size(), static_cast<std::size_t>(n));
    }
    // The answer has exactly N^{3/2} = t^3 tuples.
    std::uint64_t count = GenericJoin(q, db).Count();
    EXPECT_EQ(count, static_cast<std::uint64_t>(t) * t * t);
  }
}

TEST(AgmTest, StarQueryTightInstance) {
  // Star query R1(c,x) |><| R2(c,y) |><| R3(c,z): rho* = 3 (edges share only
  // the center; each leaf attribute needs its own edge at weight 1).
  JoinQuery q;
  q.Add("R1", {"c", "x"}).Add("R2", {"c", "y"}).Add("R3", {"c", "z"});
  auto analysis = AnalyzeAgm(q);
  ASSERT_TRUE(analysis.has_value());
  EXPECT_EQ(analysis->rho_star, Fraction(3));
  long long n = 0;
  Database db = AgmTightInstance(q, *analysis, 3, &n);
  std::uint64_t count = GenericJoin(q, db).Count();
  EXPECT_EQ(static_cast<double>(count),
            analysis->BoundForN(static_cast<double>(n)));
}

TEST(GenericJoinTest, EmptyRelationShortCircuits) {
  JoinQuery q = TriangleQuery();
  Database db = TriangleDb({}, {{1, 2}}, {{1, 2}});
  GenericJoin gj(q, db);
  EXPECT_TRUE(gj.IsEmpty());
  EXPECT_EQ(gj.Count(), 0u);
}

TEST(DatabaseMutationTest, MalformedInputRejectedWithDiagnostic) {
  Database db;
  // Arity mismatch inside SetRelation: rejected, database unchanged.
  MutationResult bad = db.SetRelation("R", 2, {{1, 2}, {3}});
  EXPECT_FALSE(bad);
  EXPECT_NE(bad.message.find("tuple 1"), std::string::npos);
  EXPECT_FALSE(db.HasRelation("R"));

  ASSERT_TRUE(db.SetRelation("R", 2, {{1, 2}}));
  // AddTuple to a missing relation and with the wrong arity: both rejected,
  // both leave the relation untouched.
  EXPECT_FALSE(db.AddTuple("S", {1, 2}));
  MutationResult wrong_arity = db.AddTuple("R", {1, 2, 3});
  EXPECT_FALSE(wrong_arity);
  EXPECT_NE(wrong_arity.message.find("arity"), std::string::npos);
  EXPECT_EQ(db.NumTuples("R"), 1u);
  EXPECT_FALSE(db.SetRelation("N", -1, {}));
}

TEST(DatabaseMutationTest, EveryMutationBumpsVersion) {
  Database db;
  EXPECT_EQ(db.RelationVersion("R"), 0u);  // Missing relation.
  ASSERT_TRUE(db.SetRelation("R", 2, {{1, 2}}));
  std::uint64_t v1 = db.RelationVersion("R");
  EXPECT_NE(v1, 0u);
  ASSERT_TRUE(db.AddTuple("R", {3, 4}));
  std::uint64_t v2 = db.RelationVersion("R");
  EXPECT_NE(v2, v1);
  ASSERT_TRUE(db.SetRelation("R", 2, {{5, 6}}));
  std::uint64_t v3 = db.RelationVersion("R");
  EXPECT_NE(v3, v2);
  // Rejected mutations must NOT bump the version.
  EXPECT_FALSE(db.AddTuple("R", {1}));
  EXPECT_EQ(db.RelationVersion("R"), v3);
  // Versions are process-unique: a second database reusing the name gets a
  // distinct stamp.
  Database other;
  ASSERT_TRUE(other.SetRelation("R", 2, {{5, 6}}));
  EXPECT_NE(other.RelationVersion("R"), v3);
}

TEST(DatabaseMutationTest, RowCacheInvalidatedByVersionBump) {
  Database db;
  ASSERT_TRUE(db.SetRelation("R", 2, {{1, 2}}));
  EXPECT_EQ(db.Tuples("R").size(), 1u);  // Materializes the row cache.
  ASSERT_TRUE(db.AddTuple("R", {3, 4}));
  EXPECT_EQ(db.Tuples("R").size(), 2u);  // Stale cache dropped via version.
  ASSERT_TRUE(db.SetRelation("R", 2, {{7, 8}, {9, 10}, {11, 12}}));
  EXPECT_EQ(db.Tuples("R").size(), 3u);
  EXPECT_EQ(db.Tuples("R")[0], (Tuple{7, 8}));
}

TEST(DatabaseConcurrentTuplesTest, EightThreadsShareLazyRowCache) {
  // Regression for the lazy row_cache data race: Tuples() on a shared const
  // Database used to materialize the mutable cache unguarded, so two threads
  // could write it concurrently (caught by TSan, occasionally a crash).
  Database db;
  std::vector<Tuple> rows;
  for (int i = 0; i < 512; ++i) rows.push_back({i, i * 2});
  ASSERT_TRUE(db.SetRelation("R", 2, rows));
  const Database& shared = db;
  std::vector<std::thread> threads;
  std::vector<std::size_t> sizes(8, 0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&shared, &sizes, t]() {
      sizes[t] = shared.Tuples("R").size();
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 8; ++t) EXPECT_EQ(sizes[t], 512u);
  EXPECT_EQ(shared.Tuples("R")[511], (Tuple{511, 1022}));
}

TEST(GenericJoinTest, SelfJoinSharedRelation) {
  // Q = E(a,b) |><| E(b,c): paths of length 2 in a directed graph.
  JoinQuery q;
  q.Add("E", {"a", "b"}).Add("E", {"b", "c"});
  Database db;
  db.SetRelation("E", 2, {{0, 1}, {1, 2}, {2, 0}});
  JoinResult r = GenericJoin(q, db).Evaluate();
  r.Normalize();
  EXPECT_EQ(r.tuples.size(), 3u);  // 0->1->2, 1->2->0, 2->0->1.
  JoinResult expected = EvaluateNestedLoop(q, db);
  expected.Normalize();
  EXPECT_EQ(r.tuples, expected.tuples);
}

}  // namespace
}  // namespace qc::db
