// Randomized agreement sweeps over generated query shapes: every evaluator
// must produce the same answers on random acyclic and random binary
// (possibly cyclic) queries, and the structural analyzers must agree with
// the queries' construction guarantees.

#include <gtest/gtest.h>

#include "core/analyzer.h"
#include "core/autosolver.h"
#include "db/agm.h"
#include "db/enumeration.h"
#include "db/generic_join.h"
#include "db/joins.h"
#include "db/yannakakis.h"
#include "util/counters.h"
#include "util/rng.h"

namespace qc::db {
namespace {

class RandomAcyclicQueryTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomAcyclicQueryTest, ConstructionIsAcyclicAndEvaluatorsAgree) {
  util::Rng rng(7000 + GetParam());
  JoinQuery q = RandomAcyclicQuery(2 + GetParam() % 4, 3, &rng);
  EXPECT_TRUE(IsAcyclicQuery(q)) << "seed " << GetParam();
  Database d = RandomDatabase(q, 15, 4, &rng);

  JoinResult reference = GenericJoin(q, d).Evaluate();
  reference.Normalize();

  auto yan = EvaluateYannakakis(q, d);
  ASSERT_TRUE(yan.has_value());
  yan->Normalize();
  EXPECT_EQ(yan->tuples, reference.tuples);

  JoinResult greedy = EvaluateGreedyBinaryJoin(q, d);
  greedy.Normalize();
  // Schemas may be ordered differently; compare via projection onto the
  // canonical order.
  JoinResult canon;
  canon.attributes = q.AttributeOrder();
  for (const auto& t : greedy.tuples) {
    Tuple u(canon.attributes.size());
    for (std::size_t i = 0; i < canon.attributes.size(); ++i) {
      auto it = std::find(greedy.attributes.begin(), greedy.attributes.end(),
                          canon.attributes[i]);
      u[i] = t[it - greedy.attributes.begin()];
    }
    canon.tuples.push_back(u);
  }
  canon.Normalize();
  EXPECT_EQ(canon.tuples, reference.tuples);

  AcyclicEnumerator e(q, d);
  ASSERT_TRUE(e.IsValid());
  JoinResult enumerated;
  enumerated.attributes = e.attributes();
  while (auto t = e.Next()) enumerated.tuples.push_back(*t);
  std::size_t raw = enumerated.tuples.size();
  enumerated.Normalize();
  EXPECT_EQ(enumerated.tuples.size(), raw) << "duplicate answers";
  EXPECT_EQ(enumerated.tuples, reference.tuples);

  // Analyzer consistency: acyclic implies fhw upper bound 1.
  core::Analysis a = core::AnalyzeQuery(q);
  EXPECT_TRUE(a.acyclic);
  ASSERT_TRUE(a.fhw_valid);
  EXPECT_EQ(a.fhw_upper, util::Fraction(1));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomAcyclicQueryTest,
                         ::testing::Range(0, 20));

TEST(AcyclicRouteTest, ServedJoinExpandsOnlyAnswerPrefixes) {
  // The path a - x - y - b with its atoms listed so that first-appearance
  // order binds b before y: GenericJoin over the raw atoms then tries every
  // b under every (a, x), and all but S(0, 0) dangle once T pins y to 0.
  // The served route joins the fully reduced atoms in root-first order,
  // where every search node is the prefix of an answer.
  JoinQuery q;
  q.Add("R", {"a", "x"}).Add("S", {"b", "y"}).Add("T", {"x", "y"});
  Database d;
  std::vector<Tuple> r, s, t;
  for (Value i = 0; i < 200; ++i) {
    r.push_back({i, i % 10});
    s.push_back({i, i});
  }
  for (Value x = 0; x < 10; ++x) t.push_back({x, 0});
  d.SetRelation("R", 2, r);
  d.SetRelation("S", 2, s);
  d.SetRelation("T", 2, t);
  auto red = ReduceAcyclicQuery(q, d, Sweeps::kUpAndDown);
  ASSERT_TRUE(red.has_value());
  std::uint64_t reduced_rows = 0;
  for (const ReducedAtom& atom : red->atoms) reduced_rows += atom.rows.size();

  util::Counters served;
  ExecutionContext ctx;
  ctx.threads = 1;
  ctx.counters = &served;
  core::AutoQueryResult routed = core::EvaluateQueryAuto(q, d, ctx);
  ASSERT_EQ(routed.method, core::SolveMethod::kYannakakis);
  const std::uint64_t output = routed.result.rows.size();
  EXPECT_EQ(output, 200u);
  const std::uint64_t bound =
      (reduced_rows + output) * q.AttributeOrder().size();
  EXPECT_GT(served.Get("generic_join.nodes"), 0u);
  EXPECT_LE(served.Get("generic_join.nodes"), bound);

  util::Counters unreduced;
  ctx.counters = &unreduced;
  EXPECT_EQ(GenericJoin(q, d, ctx).Evaluate().tuples.size(), output);
  EXPECT_GT(unreduced.Get("generic_join.nodes"), bound);
}

class RandomBinaryQueryTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomBinaryQueryTest, GenericJoinMatchesNestedLoop) {
  util::Rng rng(7100 + GetParam());
  JoinQuery q = RandomBinaryQuery(3 + GetParam() % 3, 4, &rng);
  Database d = RandomDatabase(q, 12, 4, &rng);
  JoinResult reference = EvaluateNestedLoop(q, d);
  reference.Normalize();
  JoinResult wcoj = GenericJoin(q, d).Evaluate();
  wcoj.Normalize();
  EXPECT_EQ(wcoj.tuples, reference.tuples);
  // AGM bound sanity on the measured answer.
  auto agm = AnalyzeAgm(q);
  ASSERT_TRUE(agm.has_value());
  EXPECT_LE(static_cast<double>(reference.tuples.size()),
            agm->BoundForN(static_cast<double>(d.MaxRelationSize())) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBinaryQueryTest,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace qc::db
