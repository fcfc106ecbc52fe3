#ifndef QC_DB_HYBRID_JOIN_H_
#define QC_DB_HYBRID_JOIN_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/context.h"
#include "db/database.h"
#include "db/generic_join.h"
#include "graph/boolmatrix.h"
#include "util/budget.h"

namespace qc::db {

/// Small join patterns the degree-split hybrid planner recognizes: every
/// atom must be binary over two distinct attributes, no attribute pair may
/// repeat, and the pair graph must be one of the shapes below (the cyclic
/// core of Fan–Koutris's fine-grained taxonomy, where the MM route of
/// Abo Khamis–Hu–Suciu beats the submodular-width bound on skewed inputs).
/// Everything else is kNone and stays with the caller's usual engine.
enum class HybridPattern {
  kNone = 0,
  kTriangle,    ///< 3 attributes, all 3 pairs.
  kFourCycle,   ///< 4 attributes, 4 pairs forming a cycle.
  kFourClique,  ///< 4 attributes, all 6 pairs.
  kFiveClique,  ///< 5 attributes, all 10 pairs.
};

std::string ToString(HybridPattern pattern);

/// Classifies `query`, returning kNone when the planner does not apply.
/// Purely structural and cheap — safe to call on every routed query.
HybridPattern DetectHybridPattern(const JoinQuery& query);

/// What the planner decided and how much each phase saw. Surfaced as the
/// RunReport "planner" section and the "hybrid.*" counters.
struct HybridPlan {
  HybridPattern pattern = HybridPattern::kNone;
  std::int64_t threshold = 0;         ///< Resolved degree threshold Δ.
  bool threshold_overridden = false;  ///< Δ came from the caller, not √N.
  std::uint64_t heavy_values = 0;     ///< Heavy (attribute, value) pairs.
  std::uint64_t heavy_tuples = 0;     ///< Atom tuples with both ends heavy.
  std::uint64_t light_tuples = 0;     ///< Atom tuples across light residuals.
  std::uint64_t heavy_rows = 0;       ///< Result rows from the heavy phase.
  std::uint64_t light_rows = 0;       ///< Result rows from the light phase.
  /// True when no value was heavy: the whole run was one pure GenericJoin
  /// over the original instance (the all-light fast path).
  bool delegated = false;
};

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
/// Cache seam: each light residual hands its filtered atom rows to
/// GenericJoin directly (AtomRows), which indexes them in private tries that
/// never enter ctx.index_cache — partition tries never alias the parent
/// relation's version-keyed entries, and single-use partitions never pollute
/// the shared cache. Only the delegated all-light fast path, which evaluates
/// the *original* atoms, uses the shared cache.
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
/// `query` and `db` must outlive the planner (the delegated fast path
/// re-reads them at evaluation time).
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

 private:
  enum class Mode { kEvaluate, kCount, kIsEmpty };

  /// One atom projected onto its (sorted-by-global-index) attribute pair.
  struct PatternAtom {
    int u = 0;           ///< Smaller global attribute index.
    int v = 0;           ///< Larger global attribute index.
    FlatRelation rows;   ///< Sorted deduped projection, columns (u, v).
    /// Heavy-restricted tuples as dense (H_u, H_v) index pairs, row order.
    std::vector<std::pair<int, int>> heavy_pairs;
    graph::BoolMatrix fwd;  ///< |H_u| x |H_v| heavy bi-adjacency.
    graph::BoolMatrix rev;  ///< Transpose of fwd.
  };

  /// Heavy value domain of one attribute.
  struct HeavyDomain {
    std::vector<Value> values;             ///< Sorted heavy values.
    std::unordered_map<Value, int> index;  ///< value -> dense id.
    bool IsHeavy(Value value) const { return index.count(value) != 0; }
  };

  /// One light residual: the restricted rows of every atom.
  struct LightPart {
    std::vector<std::optional<AtomRows>> atoms;
    bool has_empty_atom = false;  ///< Some restriction emptied an atom.
  };

  void BuildPartition(const Database& db, std::int64_t delta_override);
  /// Builds the light residual sub-instances on first use (RunLight).
  void EnsureLightParts();
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
  std::vector<LightPart> light_parts_;   ///< One per global attribute.
  std::array<int, 4> cycle_{};           ///< 4-cycle attr order (c0..c3).
};

}  // namespace qc::db

#endif  // QC_DB_HYBRID_JOIN_H_
