#include "core/autosolver.h"

#include "db/generic_join.h"
#include "db/yannakakis.h"
#include "graph/treewidth.h"
#include "sat/schaefer.h"
#include "util/trace.h"

namespace qc::core {

std::string ToString(SolveMethod method) {
  switch (method) {
    case SolveMethod::kSchaefer:
      return "schaefer";
    case SolveMethod::kTreewidthDp:
      return "treewidth-dp";
    case SolveMethod::kBacktracking:
      return "backtracking";
    case SolveMethod::kYannakakis:
      return "yannakakis";
    case SolveMethod::kGenericJoin:
      return "generic-join";
    case SolveMethod::kHybridJoin:
      return "hybrid-join";
  }
  return "?";
}

namespace {

/// Boolean-domain CSPs translate into the Schaefer machinery when arities
/// are small; returns false if not applicable.
bool TrySchaefer(const csp::CspInstance& csp, int max_arity,
                 AutoCspResult* result) {
  if (csp.domain_size != 2) return false;
  sat::BoolCsp bcsp;
  bcsp.num_vars = csp.num_vars;
  for (const auto& c : csp.constraints) {
    if (c.relation.arity() > max_arity) return false;
    sat::BoolRelation rel(c.relation.arity());
    for (const auto& t : c.relation.tuples()) {
      std::uint32_t mask = 0;
      for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i]) mask |= 1u << i;
      }
      rel.Allow(mask);
    }
    bcsp.AddConstraint(c.scope, std::move(rel));
  }
  if (!bcsp.Classify().Tractable()) return false;
  sat::SchaeferSolveResult sr = sat::SolveSchaefer(bcsp);
  result->method = SolveMethod::kSchaefer;
  result->satisfiable = sr.satisfiable;
  result->assignment.clear();
  for (bool b : sr.assignment) result->assignment.push_back(b ? 1 : 0);
  return true;
}

}  // namespace

AutoCspResult SolveCspAuto(const csp::CspInstance& csp,
                           const ExecutionContext& ctx) {
  AutoCspResult result;
  std::shared_ptr<util::Budget> budget = ctx.ResolveBudget();
  // One span per routing decision: the report shows which engine the
  // autosolver picked and how long that route ran.
  // Schaefer is polynomial-time: no safe points needed inside.
  {
    static const std::uint32_t kSchaeferSpan =
        util::Trace::InternName("autosolver.schaefer");
    util::ScopedSpan span(kSchaeferSpan);
    if (TrySchaefer(csp, ctx.max_schaefer_arity, &result)) {
      ctx.Count("schaefer.dispatches", 1);
      return result;
    }
  }

  graph::Graph primal = csp.PrimalGraph();
  graph::TreewidthUpperBound ub = graph::HeuristicTreewidth(primal);
  if (ub.width <= ctx.treewidth_dp_max_width) {
    static const std::uint32_t kTreeDpSpan =
        util::Trace::InternName("autosolver.treedp");
    util::ScopedSpan span(kTreeDpSpan);
    csp::TreeDpResult dp =
        csp::SolveWithDecomposition(csp, ub.decomposition, budget.get());
    ctx.Count("treedp.table_entries", dp.table_entries);
    result.method = SolveMethod::kTreewidthDp;
    result.satisfiable = dp.satisfiable;
    result.assignment = std::move(dp.assignment);
    result.status = dp.status;
    return result;
  }

  static const std::uint32_t kBacktrackingSpan =
      util::Trace::InternName("autosolver.backtracking");
  util::ScopedSpan backtracking_span(kBacktrackingSpan);
  csp::BacktrackingSolver::Options options;
  options.budget = budget.get();
  csp::CspSolution sol = csp::BacktrackingSolver(options).Solve(csp);
  ctx.Count("backtracking.nodes", sol.stats.nodes);
  ctx.Count("backtracking.backtracks", sol.stats.backtracks);
  ctx.Count("backtracking.consistency_checks", sol.stats.consistency_checks);
  result.method = SolveMethod::kBacktracking;
  result.satisfiable = sol.found;
  result.assignment = std::move(sol.assignment);
  result.status = sol.status;
  return result;
}

AutoQueryResult EvaluateQueryAuto(const db::JoinQuery& query,
                                  const db::Database& db,
                                  const ExecutionContext& ctx) {
  AutoQueryResult result;
  std::shared_ptr<util::Budget> budget = ctx.ResolveBudget();
  // Every engine inherits ctx: thread count, the counters sink, the index
  // cache and arena. Share the budget resolved here so all routes charge
  // the same meters.
  ExecutionContext sub = ctx;
  sub.budget = budget;
  {
    static const std::uint32_t kYannakakisSpan =
        util::Trace::InternName("autosolver.yannakakis");
    util::ScopedSpan span(kYannakakisSpan);
    auto yan = db::EvaluateYannakakisFlat(query, db, sub);
    if (yan.has_value()) {
      ctx.Count("yannakakis.output_tuples", yan->rows.size());
      result.method = SolveMethod::kYannakakis;
      result.result = std::move(*yan);
      result.status = result.result.truncated ? budget->status()
                                              : util::RunStatus::kCompleted;
      return result;
    }
  }
  // Cyclic query: the degree-split hybrid planner gets first refusal on
  // the small patterns it recognizes (triangle / 4-cycle / k-clique, k<=5).
  // kOn takes any recognized pattern; kAuto additionally requires the
  // partition to look profitable (a dense-enough heavy core). The planner's
  // decision record is kept either way so reports can show what it saw.
  if (ctx.hybrid_mode != HybridMode::kOff) {
    db::HybridPattern pattern = db::DetectHybridPattern(query);
    if (pattern != db::HybridPattern::kNone) {
      static const std::uint32_t kHybridSpan =
          util::Trace::InternName("autosolver.hybrid_join");
      util::ScopedSpan hybrid_span(kHybridSpan);
      db::HybridJoin hybrid(query, db, sub, ctx.hybrid_delta);
      result.plan = hybrid.plan();
      if (hybrid.applicable() && (ctx.hybrid_mode == HybridMode::kOn ||
                                  hybrid.ProfitableUnderAuto())) {
        ctx.Count("hybrid.dispatches", 1);
        result.method = SolveMethod::kHybridJoin;
        result.result = hybrid.EvaluateFlat();
        result.plan = hybrid.plan();
        result.status = hybrid.status();
        return result;
      }
    }
  }
  static const std::uint32_t kGenericJoinSpan =
      util::Trace::InternName("autosolver.generic_join");
  util::ScopedSpan generic_join_span(kGenericJoinSpan);
  result.method = SolveMethod::kGenericJoin;
  db::GenericJoin join(query, db, sub);
  result.result = join.EvaluateFlat();
  result.status = join.status();
  return result;
}

}  // namespace qc::core
