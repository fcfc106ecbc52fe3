// E14 — integration: the analyzer's predictions versus reality on a query
// zoo. For each query we check (a) the measured output-size exponent on the
// extremal databases equals the predicted rho*, and (b) the auto-router's
// engine choice is sound (its answers match the reference evaluator).

#include "bench_util.h"
#include "core/analyzer.h"
#include "core/autosolver.h"
#include "db/agm.h"
#include "db/generic_join.h"
#include "util/rng.h"

int main() {
  using namespace qc;
  bench::Banner("E14: analyzer predictions vs measurements (integration)",
                "predicted rho* equals measured output exponent; routed "
                "engine returns reference answers");

  struct Entry {
    const char* name;
    db::JoinQuery query;
    std::vector<int> ts;
  };
  std::vector<Entry> zoo;
  {
    db::JoinQuery q;
    q.Add("R", {"a", "b"}).Add("S", {"b", "c"});
    zoo.push_back({"path-2", q, {4, 8, 16}});
  }
  {
    db::JoinQuery q;
    q.Add("R1", {"a", "b"}).Add("R2", {"a", "c"}).Add("R3", {"b", "c"});
    zoo.push_back({"triangle", q, {4, 8, 16}});
  }
  {
    db::JoinQuery q;
    q.Add("R1", {"a", "b"}).Add("R2", {"b", "c"}).Add("R3", {"c", "d"})
        .Add("R4", {"d", "a"});
    zoo.push_back({"4-cycle", q, {3, 5, 7}});
  }
  {
    db::JoinQuery q;
    q.Add("R1", {"c", "x"}).Add("R2", {"c", "y"}).Add("R3", {"c", "z"});
    zoo.push_back({"star-3", q, {3, 5, 7}});
  }

  util::Table t({"query", "acyclic", "tw", "rho* predicted",
                 "measured exponent", "router", "answers ok"});
  util::Rng rng(1);
  bool all_ok = true;
  for (auto& entry : zoo) {
    core::Analysis analysis = core::AnalyzeQuery(entry.query);
    auto agm = db::AnalyzeAgm(entry.query);
    std::vector<double> ns, counts;
    for (int tval : entry.ts) {
      long long n = 0;
      db::Database d = db::AgmTightInstance(entry.query, *agm, tval, &n);
      std::uint64_t c = db::GenericJoin(entry.query, d).Count();
      ns.push_back(static_cast<double>(n));
      counts.push_back(static_cast<double>(c));
    }
    double measured = bench::FitPowerLawExponent(ns, counts);

    // Router soundness on a random database.
    db::Database rdb = db::RandomDatabase(entry.query, 60, 15, &rng);
    core::AutoQueryResult routed = core::EvaluateQueryAuto(entry.query, rdb);
    db::JoinResult reference = db::GenericJoin(entry.query, rdb).Evaluate();
    db::JoinResult got = routed.result.ToRows();
    got.Normalize();
    reference.Normalize();
    bool ok = got.tuples == reference.tuples;
    all_ok = all_ok && ok;
    t.AddRowOf(entry.name, analysis.acyclic ? "yes" : "no",
               analysis.treewidth, analysis.rho_star.ToString(), measured,
               core::ToString(routed.method), ok ? "yes" : "NO");
  }
  t.Print();
  std::printf("\nanalyzer reports (certificates included):\n");
  for (auto& entry : zoo) {
    std::printf("\n## %s\n%s\n", entry.name,
                core::AnalyzeQuery(entry.query).ToString().c_str());
  }
  return all_ok ? 0 : 1;
}
