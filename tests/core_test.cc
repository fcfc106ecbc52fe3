#include <gtest/gtest.h>

#include "core/analyzer.h"
#include "core/autosolver.h"
#include "csp/generators.h"
#include "db/agm.h"
#include "db/generic_join.h"
#include "graph/generators.h"
#include "reductions/clique_reductions.h"
#include "reductions/sat_reductions.h"
#include "sat/generators.h"
#include "sat/dpll.h"
#include "util/rng.h"

namespace qc::core {
namespace {

db::JoinQuery TriangleQuery() {
  db::JoinQuery q;
  q.Add("R1", {"a", "b"}).Add("R2", {"a", "c"}).Add("R3", {"b", "c"});
  return q;
}

TEST(AnalyzerTest, TriangleQueryReport) {
  Analysis a = AnalyzeQuery(TriangleQuery());
  EXPECT_EQ(a.num_variables, 3);
  EXPECT_EQ(a.num_constraints, 3);
  EXPECT_FALSE(a.acyclic);
  EXPECT_EQ(a.treewidth, 2);
  EXPECT_TRUE(a.treewidth_exact);
  ASSERT_TRUE(a.rho_star_valid);
  EXPECT_EQ(a.rho_star, util::Fraction(3, 2));
  EXPECT_DOUBLE_EQ(a.AgmBound(4.0), 8.0);
  // Triangle query with distinct relation names is its own core.
  EXPECT_EQ(a.core_universe_size, 3);
  EXPECT_EQ(a.core_treewidth, 2);
  // ETH certificate (tw = 2) and the unconditional AGM certificate.
  bool has_eth = false, has_agm = false, has_clique = false;
  for (const auto& lb : a.lower_bounds) {
    if (lb.assumption == "ETH") has_eth = true;
    if (lb.assumption == "unconditional") has_agm = true;
    if (lb.assumption == "k-clique conjecture") has_clique = true;
  }
  EXPECT_TRUE(has_eth);
  EXPECT_TRUE(has_agm);
  EXPECT_TRUE(has_clique);  // Primal graph of the triangle is K_3.
  EXPECT_NE(a.ToString().find("rho*"), std::string::npos);
}

TEST(AnalyzerTest, AcyclicPathQuery) {
  db::JoinQuery q;
  q.Add("R", {"a", "b"}).Add("S", {"b", "c"});
  Analysis a = AnalyzeQuery(q);
  EXPECT_TRUE(a.acyclic);
  EXPECT_EQ(a.treewidth, 1);
  EXPECT_NE(a.recommended_algorithm.find("Yannakakis"), std::string::npos);
  // Core of R(a,b), S(b,c) with distinct names is everything.
  EXPECT_EQ(a.core_universe_size, 3);
  // Polynomial case flagged via Theorem 5.3.
  bool has_poly = false;
  for (const auto& lb : a.lower_bounds) {
    if (lb.theorem == "Theorem 5.3") has_poly = true;
  }
  EXPECT_TRUE(has_poly);
}

TEST(AnalyzerTest, SelfJoinEvenCycleCollapsesCore) {
  // Q = E(a,b) |><| E(b,c) |><| E(c,d) |><| E(d,a) with ONE relation E used
  // four times and symmetric usage... the canonical structure is a directed
  // 4-cycle over a single symbol; its core is a self-loop? No: directed
  // 4-cycle core is... a directed cycle maps onto smaller structures only
  // if a homomorphism exists; C4 directed -> single loop requires a loop.
  // Use the undirected encoding instead: both orientations per atom pair is
  // not expressible per atom; instead test with an even path:
  // E(a,b), E(c,b): two tuples, one symbol; h(c)=a collapses it.
  db::JoinQuery q;
  q.Add("E", {"a", "b"}).Add("E", {"c", "b"});
  Analysis a = AnalyzeQuery(q);
  EXPECT_EQ(a.core_universe_size, 2);
  EXPECT_EQ(a.core_treewidth, 1);
}

TEST(AnalyzerTest, CspCliqueInstance) {
  util::Rng rng(1);
  graph::Graph g = graph::RandomGnp(10, 0.5, &rng);
  csp::CspInstance csp = reductions::CspFromClique(g, 5);
  Analysis a = AnalyzeCsp(csp);
  EXPECT_EQ(a.num_variables, 5);
  EXPECT_EQ(a.treewidth, 4);  // K_5 primal graph.
  bool has_clique_cert = false;
  for (const auto& lb : a.lower_bounds) {
    if (lb.assumption == "k-clique conjecture") has_clique_cert = true;
  }
  EXPECT_TRUE(has_clique_cert);
}

TEST(AnalyzerTest, LargeInstanceUsesHeuristics) {
  util::Rng rng(2);
  graph::Graph g = graph::RandomGnp(40, 0.2, &rng);
  csp::CspInstance csp = csp::RandomBinaryCsp(g, 3, 0.3, &rng);
  Analysis a = AnalyzeCsp(csp);
  EXPECT_FALSE(a.treewidth_exact);
  EXPECT_EQ(a.core_universe_size, -1);  // Skipped: too large.
  EXPECT_GE(a.treewidth, 1);
}

TEST(AutoSolverTest, RoutesBooleanTractableToSchaefer) {
  // 2-colouring = disequality over domain 2: bijunctive, Schaefer-tractable.
  csp::CspInstance csp = csp::ColoringCsp(graph::Cycle(6), 2);
  AutoCspResult r = SolveCspAuto(csp);
  EXPECT_EQ(r.method, SolveMethod::kSchaefer);
  ASSERT_TRUE(r.satisfiable);
  EXPECT_TRUE(csp.Check(r.assignment));
  // Odd cycle: unsatisfiable, still via Schaefer.
  csp::CspInstance odd = csp::ColoringCsp(graph::Cycle(7), 2);
  AutoCspResult ro = SolveCspAuto(odd);
  EXPECT_EQ(ro.method, SolveMethod::kSchaefer);
  EXPECT_FALSE(ro.satisfiable);
}

TEST(AutoSolverTest, RoutesSmallWidthToTreeDp) {
  util::Rng rng(3);
  graph::Graph structure = graph::RandomPartialKTree(12, 2, 0.8, &rng);
  csp::CspInstance csp = csp::RandomBinaryCsp(structure, 4, 0.3, &rng);
  AutoCspResult r = SolveCspAuto(csp);
  EXPECT_EQ(r.method, SolveMethod::kTreewidthDp);
  EXPECT_EQ(r.satisfiable, csp::SolveBruteForce(csp).found);
  if (r.satisfiable) {
    EXPECT_TRUE(csp.Check(r.assignment));
  }
}

TEST(AutoSolverTest, RoutesDenseToBacktracking) {
  util::Rng rng(4);
  csp::CspInstance csp =
      csp::RandomBinaryCsp(graph::Complete(10), 4, 0.25, &rng);
  AutoCspResult r = SolveCspAuto(csp);
  EXPECT_EQ(r.method, SolveMethod::kBacktracking);
  if (r.satisfiable) {
    EXPECT_TRUE(csp.Check(r.assignment));
  }
}

TEST(AutoSolverTest, BooleanNpHardFallsThrough) {
  // 1-in-3 constraints sit in no Schaefer class, so the router must skip
  // the dichotomy dispatcher and use a structural engine instead.
  util::Rng rng(5);
  csp::CspInstance csp;
  csp.num_vars = 9;
  csp.domain_size = 2;
  csp::Relation one_in_three(3);
  one_in_three.Add({0, 0, 1});
  one_in_three.Add({0, 1, 0});
  one_in_three.Add({1, 0, 0});
  for (int i = 0; i < 6; ++i) {
    std::vector<int> scope = rng.Sample(9, 3);
    csp.AddConstraint(scope, one_in_three);
  }
  AutoCspResult r = SolveCspAuto(csp);
  EXPECT_NE(r.method, SolveMethod::kSchaefer);
  EXPECT_EQ(r.satisfiable, csp::SolveBruteForce(csp).found);
}

TEST(AutoSolverTest, QueryRouting) {
  util::Rng rng(6);
  // Acyclic query -> Yannakakis.
  db::JoinQuery path;
  path.Add("R", {"a", "b"}).Add("S", {"b", "c"});
  db::Database pdb = db::RandomDatabase(path, 20, 5, &rng);
  AutoQueryResult pr = EvaluateQueryAuto(path, pdb);
  EXPECT_EQ(pr.method, SolveMethod::kYannakakis);
  db::JoinResult expected = db::EvaluateNestedLoop(path, pdb);
  expected.Normalize();
  db::JoinResult got = pr.result.ToRows();
  got.Normalize();
  EXPECT_EQ(got.tuples, expected.tuples);
  // Cyclic -> Generic Join.
  db::JoinQuery tri = TriangleQuery();
  db::Database tdb = db::RandomDatabase(tri, 20, 5, &rng);
  AutoQueryResult tr = EvaluateQueryAuto(tri, tdb);
  EXPECT_EQ(tr.method, SolveMethod::kGenericJoin);
  db::JoinResult texp = db::EvaluateNestedLoop(tri, tdb);
  texp.Normalize();
  got = tr.result.ToRows();
  got.Normalize();
  EXPECT_EQ(got.tuples, texp.tuples);
}

TEST(AutoSolverTest, MethodNames) {
  EXPECT_EQ(ToString(SolveMethod::kSchaefer), "schaefer");
  EXPECT_EQ(ToString(SolveMethod::kYannakakis), "yannakakis");
  EXPECT_EQ(ToString(SolveMethod::kGenericJoin), "generic-join");
  EXPECT_EQ(ToString(SolveMethod::kTreewidthDp), "treewidth-dp");
  EXPECT_EQ(ToString(SolveMethod::kBacktracking), "backtracking");
}

class AutoSolverAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(AutoSolverAgreementTest, AlwaysAgreesWithBruteForce) {
  util::Rng rng(1600 + GetParam());
  int style = GetParam() % 3;
  graph::Graph structure =
      style == 0   ? graph::RandomPartialKTree(7, 2, 0.7, &rng)
      : style == 1 ? graph::RandomGnp(7, 0.5, &rng)
                   : graph::Cycle(7);
  int domain = 2 + GetParam() % 3;
  csp::CspInstance csp = csp::RandomBinaryCsp(structure, domain, 0.4, &rng);
  AutoCspResult r = SolveCspAuto(csp);
  EXPECT_EQ(r.satisfiable, csp::SolveBruteForce(csp).found)
      << "method " << ToString(r.method);
  if (r.satisfiable) {
    EXPECT_TRUE(csp.Check(r.assignment));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AutoSolverAgreementTest,
                         ::testing::Range(0, 18));

}  // namespace
}  // namespace qc::core
