#include <gtest/gtest.h>

#include <algorithm>

#include "graph/coloring.h"
#include "graph/generators.h"
#include "graph/treewidth.h"
#include "structures/structure.h"
#include "util/rng.h"

namespace qc::structures {
namespace {

TEST(StructureTest, BasicAccessors) {
  Structure s({RelSymbol{"E", 2}, RelSymbol{"P", 1}}, 3);
  s.AddTuple(0, {0, 1});
  s.AddTuple(1, {2});
  EXPECT_TRUE(s.HasTuple(0, {0, 1}));
  EXPECT_FALSE(s.HasTuple(0, {1, 0}));
  EXPECT_TRUE(s.HasTuple(1, {2}));
  EXPECT_EQ(s.universe_size(), 3);
}

TEST(StructureTest, InducedSubstructureRenames) {
  Structure s = Structure::FromDigraphEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  Structure sub = s.InducedSubstructure({1, 2});
  EXPECT_EQ(sub.universe_size(), 2);
  EXPECT_TRUE(sub.HasTuple(0, {0, 1}));   // Old (1,2).
  EXPECT_FALSE(sub.HasTuple(0, {1, 0}));
}

TEST(StructureTest, GaifmanGraph) {
  Structure s({RelSymbol{"T", 3}}, 4);
  s.AddTuple(0, {0, 1, 2});
  graph::Graph g = s.GaifmanGraph();
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_EQ(g.Degree(3), 0);
}

TEST(HomomorphismTest, DirectedPathIntoCycle) {
  // Directed path 0->1->2 maps into directed 3-cycle; the cycle does not
  // map into the path.
  Structure path = Structure::FromDigraphEdges(3, {{0, 1}, {1, 2}});
  Structure cycle = Structure::FromDigraphEdges(3, {{0, 1}, {1, 2}, {2, 0}});
  auto h = FindHomomorphism(path, cycle);
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(path.IsHomomorphism(cycle, *h));
  EXPECT_FALSE(FindHomomorphism(cycle, path).has_value());
  EXPECT_FALSE(AreHomEquivalent(path, cycle));
}

TEST(HomomorphismTest, GraphHomEquivalenceWithColoring) {
  // An undirected graph maps homomorphically into K_k iff it is
  // k-colourable (Section 2.3).
  util::Rng rng(1);
  graph::Graph g = graph::RandomGnp(8, 0.4, &rng);
  Structure sg = Structure::FromGraph(g);
  for (int k = 2; k <= 4; ++k) {
    Structure kk = Structure::FromGraph(graph::Complete(k));
    bool colorable = graph::FindKColoring(g, k).has_value();
    EXPECT_EQ(FindHomomorphism(sg, kk).has_value(), colorable) << k;
  }
}

TEST(HomomorphismTest, CountMatchesGraphCount) {
  // Hom counts from paths into K_3: P_2 -> 6, P_3 -> 12.
  Structure p2 = Structure::FromGraph(graph::Path(2));
  Structure p3 = Structure::FromGraph(graph::Path(3));
  Structure k3 = Structure::FromGraph(graph::Complete(3));
  EXPECT_EQ(CountHomomorphisms(p2, k3), 6u);
  EXPECT_EQ(CountHomomorphisms(p3, k3), 12u);
}

TEST(HomomorphismTest, RepeatedVariablesInTuples) {
  // A reflexive tuple (loop) can only map onto a looped element.
  Structure a({RelSymbol{"E", 2}}, 1);
  a.AddTuple(0, {0, 0});
  Structure b_no_loop = Structure::FromDigraphEdges(2, {{0, 1}});
  EXPECT_FALSE(FindHomomorphism(a, b_no_loop).has_value());
  Structure b_loop = Structure::FromDigraphEdges(2, {{0, 1}, {1, 1}});
  auto h = FindHomomorphism(a, b_loop);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ((*h)[0], 1);
}

TEST(CoreTest, EvenCycleCoreIsEdge) {
  // The core of C_6 (bipartite) is a single edge (K_2).
  Structure c6 = Structure::FromGraph(graph::Cycle(6));
  Structure core = ComputeCore(c6);
  EXPECT_EQ(core.universe_size(), 2);
  EXPECT_TRUE(AreHomEquivalent(core, c6));
  // A core has no proper retract: recomputing does not shrink it.
  EXPECT_EQ(ComputeCore(core).universe_size(), 2);
}

TEST(CoreTest, OddCycleIsItsOwnCore) {
  Structure c5 = Structure::FromGraph(graph::Cycle(5));
  Structure core = ComputeCore(c5);
  EXPECT_EQ(core.universe_size(), 5);
}

TEST(CoreTest, CompleteGraphIsItsOwnCore) {
  Structure k4 = Structure::FromGraph(graph::Complete(4));
  EXPECT_EQ(ComputeCore(k4).universe_size(), 4);
}

TEST(CoreTest, TreeCoreIsEdge) {
  util::Rng rng(2);
  graph::Graph t = graph::RandomTree(7, &rng);
  Structure st = Structure::FromGraph(t);
  Structure core = ComputeCore(st);
  EXPECT_EQ(core.universe_size(), 2);
}

TEST(CoreTest, KeptElementsInduceTheCore) {
  Structure c6 = Structure::FromGraph(graph::Cycle(6));
  std::vector<int> kept;
  Structure core = ComputeCore(c6, &kept);
  ASSERT_EQ(kept.size(), 2u);
  // The kept vertices must be adjacent in C_6.
  int diff = std::abs(kept[0] - kept[1]);
  EXPECT_TRUE(diff == 1 || diff == 5);
}

TEST(CoreTest, DisjointCliquePlusTriangleCoresToTriangle) {
  // K_3 + K_2 (disjoint): everything maps into the K_3, so the core is K_3.
  graph::Graph g = graph::Complete(3).DisjointUnion(graph::Complete(2));
  Structure s = Structure::FromGraph(g);
  Structure core = ComputeCore(s);
  EXPECT_EQ(core.universe_size(), 3);
  // Theorem 5.3's parameter: the treewidth of the core (2 for K_3) vs the
  // treewidth of the structure itself.
  EXPECT_EQ(graph::ExactTreewidth(core.GaifmanGraph()).treewidth, 2);
}

TEST(CorePropertyTest, CoreIsHomEquivalentAndMinimal) {
  util::Rng rng(3);
  for (int trial = 0; trial < 6; ++trial) {
    graph::Graph g = graph::RandomGnp(7, 0.35, &rng);
    Structure s = Structure::FromGraph(g);
    Structure core = ComputeCore(s);
    EXPECT_TRUE(AreHomEquivalent(s, core));
    EXPECT_EQ(ComputeCore(core).universe_size(), core.universe_size());
    EXPECT_LE(core.universe_size(), s.universe_size());
  }
}

TEST(HomCspTest, CspMatchesHomomorphismSemantics) {
  Structure a = Structure::FromDigraphEdges(3, {{0, 1}, {1, 2}});
  Structure b = Structure::FromDigraphEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  csp::CspInstance csp = HomomorphismCsp(a, b);
  EXPECT_EQ(csp.num_vars, 3);
  EXPECT_EQ(csp.domain_size, 4);
  EXPECT_EQ(csp.constraints.size(), 2u);
  EXPECT_EQ(CountHomomorphisms(a, b), 2u);  // 0->1->2 and 1->2->3.
}

TEST(StructureToolsTest, IsomorphismBasics) {
  using structures::Structure;
  Structure c4a = Structure::FromGraph(graph::Cycle(4));
  // A relabelled 4-cycle: 0-2-1-3-0.
  graph::Graph g(4);
  g.AddEdge(0, 2);
  g.AddEdge(2, 1);
  g.AddEdge(1, 3);
  g.AddEdge(3, 0);
  Structure c4b = Structure::FromGraph(g);
  EXPECT_TRUE(structures::AreIsomorphic(c4a, c4b));
  // P_4 has the same vertex count and edge count as... no: use K_3 vs P_3.
  Structure k3 = Structure::FromGraph(graph::Complete(3));
  Structure p3 = Structure::FromGraph(graph::Path(3));
  EXPECT_FALSE(structures::AreIsomorphic(k3, p3));
  // C_4 vs K_{1,3}: both 4 vertices 3... C_4 has 4 edges; use star_3 vs P_4
  // (both 4 vertices, 3 edges, different degree sequences).
  Structure star = Structure::FromGraph(graph::Star(3));
  Structure p4 = Structure::FromGraph(graph::Path(4));
  EXPECT_FALSE(structures::AreIsomorphic(star, p4));
}

TEST(StructureToolsTest, CoreUniqueUpToIsomorphism) {
  // Compute the core of C_6 + K_2 twice from differently-labelled copies;
  // the results must be isomorphic (both are single edges).
  using structures::Structure;
  graph::Graph g1 = graph::Cycle(6).DisjointUnion(graph::Complete(2));
  graph::Graph g2 = graph::Complete(2).DisjointUnion(graph::Cycle(6));
  Structure core1 = structures::ComputeCore(Structure::FromGraph(g1));
  Structure core2 = structures::ComputeCore(Structure::FromGraph(g2));
  EXPECT_TRUE(structures::AreIsomorphic(core1, core2));
  EXPECT_EQ(core1.universe_size(), 2);
}

TEST(StructureToolsTest, DisjointUnionHomBehaviour) {
  using structures::Structure;
  Structure c5 = Structure::FromGraph(graph::Cycle(5));
  Structure k3 = Structure::FromGraph(graph::Complete(3));
  Structure both = structures::DisjointUnion(c5, k3);
  EXPECT_EQ(both.universe_size(), 8);
  // C_5 + K_3 maps into K_3 (each component does).
  EXPECT_TRUE(structures::FindHomomorphism(both, k3).has_value());
  // K_3 maps into the union (into its K_3 part).
  EXPECT_TRUE(structures::FindHomomorphism(k3, both).has_value());
}

TEST(StructureToolsTest, TreewidthHomCountMatchesBacktracking) {
  util::Rng rng(2);
  for (int trial = 0; trial < 6; ++trial) {
    graph::Graph ha = graph::RandomPartialKTree(7, 2, 0.8, &rng);
    graph::Graph gb = graph::RandomGnp(5, 0.5, &rng);
    structures::Structure a = structures::Structure::FromGraph(ha);
    structures::Structure b = structures::Structure::FromGraph(gb);
    EXPECT_EQ(structures::CountHomomorphismsTreewidth(a, b),
              structures::CountHomomorphisms(a, b))
        << trial;
  }
}

}  // namespace
}  // namespace qc::structures
