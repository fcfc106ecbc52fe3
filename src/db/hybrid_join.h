#ifndef QC_DB_HYBRID_JOIN_H_
#define QC_DB_HYBRID_JOIN_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/context.h"
#include "db/database.h"
#include "db/generic_join.h"
#include "db/joins.h"
#include "graph/boolmatrix.h"
#include "util/budget.h"
#include "util/stats_fields.h"

namespace qc::db {

using util::HybridPattern;
using util::HybridPlan;

/// Classifies `query`, returning kNone when the planner does not apply.
/// Purely structural and cheap — safe to call on every routed query.
HybridPattern DetectHybridPattern(const JoinQuery& query);

/// Degree-splitting hybrid MM/WCOJ join (DESIGN.md §15).
///
/// A value is HEAVY for attribute X iff some atom column holding X contains
/// it more than Δ times (Δ defaults to max(1, √N) over the largest atom —
/// the AGM-style balance point — and the same `deg > Δ` predicate is used
/// everywhere, so Δ-boundary values are always light, exactly like the AYZ
/// triangle split in graph/triangles.cc). Result tuples are partitioned by
/// their first light attribute: residual i (all attributes before i heavy,
/// attribute i light) is evaluated by the trie/leapfrog GenericJoin over
/// filtered copies of the atoms, and the all-heavy core is evaluated on
/// bit-packed BoolMatrix rows — a blocked Boolean product over the kernels'
/// word-OR path prunes the candidate pairs, then word-AND row intersections
/// enumerate witnesses. The parts are disjoint by construction, so Count
/// sums them and EvaluateFlat's final FlatRelation::SortLexAndDedup merge
/// reproduces GenericJoin's output bit-identically at any thread count and
/// any QC_SIMD level.
///
/// Decide before materializing: construction reads each atom's raw rows
/// (repeated-attribute equality filter applied, kept columns only) twice —
/// once for the degrees, once to set the heavy bi-adjacency bits — and
/// sorts nothing. Everything ProfitableUnderAuto reads is known then, so an
/// auto-mode decline costs those two passes. The light residuals are
/// filtered from the raw rows only when an evaluation runs.
///
/// Cache seam: each light residual hands its filtered atom rows to
/// GenericJoin directly (AtomRows), which sorts, deduplicates and indexes
/// them in private tries that never enter ctx.index_cache — partition tries
/// never alias the parent relation's version-keyed entries, and single-use
/// partitions never pollute the shared cache. Only the delegated all-light
/// fast path, which evaluates the *original* atoms, uses the shared cache.
///
/// Budget: both phases observe the budget resolved from `ctx` (the light
/// residuals through GenericJoin's per-node poll, the heavy phase per MM
/// row, per candidate tuple, and per emitted row). Partial-result semantics
/// on a trip: EvaluateFlat returns a subset of the answer with
/// `truncated = true` — unlike pure GenericJoin the subset is NOT a
/// lexicographic prefix, because phases complete in partition order, not
/// output order. Count returns a partial undercount; IsEmpty's "empty" is
/// only trustworthy when status() == kCompleted.
///
/// `query` and `db` must outlive the planner (evaluation re-reads the raw
/// rows).
class HybridJoin {
 public:
  HybridJoin(const JoinQuery& query, const Database& db,
             const ExecutionContext& ctx = ExecutionContext(),
             std::int64_t delta = 0);

  /// False when the query is not one of the supported patterns; every
  /// evaluation entry point then returns an empty/zero result — callers
  /// check applicable() first (core::EvaluateQueryAuto does).
  bool applicable() const { return plan_.pattern != HybridPattern::kNone; }

  /// Auto-mode profitability: the pattern applies, some values are heavy,
  /// and the heavy core is dense enough (average heavy degree clears the
  /// word-parallel break-even) that the MM route should beat running the
  /// whole instance through the trie engine.
  bool ProfitableUnderAuto() const;

  /// The answer in flat columnar storage, lexicographically sorted.
  FlatJoinResult EvaluateFlat();
  /// Row-form adapter over EvaluateFlat().
  JoinResult Evaluate() { return EvaluateFlat().ToRows(); }
  std::uint64_t Count();
  bool IsEmpty();

  const HybridPlan& plan() const { return plan_; }
  util::RunStatus status() const { return run_status_; }
  const std::vector<std::string>& attribute_order() const {
    return attribute_order_;
  }
  /// Sorted heavy values of attribute `attribute` (an index into
  /// attribute_order()); empty when the planner does not apply.
  const std::vector<Value>& HeavyValues(int attribute) const;

 private:
  enum class Mode { kEvaluate, kCount, kIsEmpty };

  /// One atom, read straight from its relation's raw rows.
  struct PatternAtom {
    int u = 0;  ///< Smaller global attribute index.
    int v = 0;  ///< Larger global attribute index.
    const FlatRelation* raw = nullptr;  ///< The atom's relation in db_.
    AtomColumns columns;                ///< Repeated-attribute filter.
    int col_u = 0;                      ///< Raw column holding u.
    int col_v = 0;                      ///< Raw column holding v.
    graph::BoolMatrix fwd;  ///< |H_u| x |H_v| heavy bi-adjacency.
    graph::BoolMatrix rev;  ///< Transpose of fwd, built by RunHeavy.

    /// Calls visit(x_u, x_v) for every raw row passing the filter.
    template <class Visit>
    void ForEachRow(Visit&& visit) const;
  };

  /// Heavy value domain of one attribute. Lookups go through a flat array
  /// over the heavy values' range when it is dense, and through a hash map
  /// only for sparse domains.
  struct HeavyDomain {
    std::vector<Value> values;         ///< Sorted heavy values.
    Value lo = 0;                      ///< Smallest heavy value.
    /// value - lo -> dense id or -1, plus one trailing -1 that every
    /// out-of-range value clamps to, so a lookup never branches on the
    /// (data-dependent) range test.
    std::vector<std::int32_t> dense;
    std::unordered_map<Value, int> sparse;  ///< Used when dense is empty.

    /// Dense id of `value`, or -1 when it is light.
    int Find(Value value) const {
      if (dense.empty()) {
        auto it = sparse.find(value);
        return it == sparse.end() ? -1 : it->second;
      }
      const std::uint64_t off =
          static_cast<std::uint64_t>(value) - static_cast<std::uint64_t>(lo);
      return dense[std::min<std::uint64_t>(off, dense.size() - 1)];
    }
    bool IsHeavy(Value value) const { return Find(value) >= 0; }
  };

  void BuildPartition(const Database& db, std::int64_t delta_override);
  /// Residual `part`'s rows of atom `pa`: the attribute-`part` column light,
  /// columns of earlier attributes heavy, later columns unrestricted.
  FlatRelation LightRows(const PatternAtom& pa, int part) const;
  /// Oriented heavy matrix for ordered attribute pair (i, j): rows over
  /// H_i, columns over H_j. The pair must be an atom of the pattern.
  const graph::BoolMatrix& Mat(int i, int j) const;
  const PatternAtom& AtomOf(int i, int j) const;

  /// Runs one full evaluation; exactly one of out/count/found is used,
  /// matching `mode`.
  void RunLight(Mode mode, FlatRelation* out, std::uint64_t* count,
                bool* found);
  void RunHeavy(Mode mode, FlatRelation* out, std::uint64_t* count,
                bool* found);
  void HeavyTriangle(Mode mode, FlatRelation* out, std::uint64_t* count,
                     bool* found);
  void HeavyFourCycle(Mode mode, FlatRelation* out, std::uint64_t* count,
                      bool* found);
  void HeavyClique(Mode mode, FlatRelation* out, std::uint64_t* count,
                   bool* found);

  bool Stopped() const { return budget_ != nullptr && budget_->Stopped(); }

  const JoinQuery& query_;
  const Database& db_;
  ExecutionContext ctx_;
  std::shared_ptr<util::Budget> budget_;
  std::vector<std::string> attribute_order_;
  HybridPlan plan_;
  util::RunStatus run_status_ = util::RunStatus::kCompleted;

  std::vector<PatternAtom> atoms_;
  std::vector<HeavyDomain> heavy_;       ///< One per global attribute.
  std::array<int, 4> cycle_{};           ///< 4-cycle attr order (c0..c3).
  bool transposed_ = false;              ///< Every PatternAtom::rev built.
};

}  // namespace qc::db

#endif  // QC_DB_HYBRID_JOIN_H_
