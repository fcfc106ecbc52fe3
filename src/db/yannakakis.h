#ifndef QC_DB_YANNAKAKIS_H_
#define QC_DB_YANNAKAKIS_H_

#include <optional>

#include "core/context.h"
#include "db/index_cache.h"
#include "db/joins.h"
#include "util/budget.h"

namespace qc::db {

/// True if the query hypergraph is alpha-acyclic (GYO reducible).
bool IsAcyclicQuery(const JoinQuery& query);

/// Builds the GYO join tree of an acyclic query: parent atom index per atom
/// (-1 at the root) and a children-before-parents processing order. Returns
/// false if the query is cyclic.
bool BuildJoinTree(const JoinQuery& query, std::vector<int>* parent,
                   std::vector<int>* order);

/// One atom of an acyclic query after semijoin reduction.
struct ReducedAtom {
  /// The atom's distinct attributes, ordered as FullReduction::variables.
  std::vector<std::string> attributes;
  /// Surviving rows, sorted and duplicate-free, columns as `attributes`.
  FlatRelation rows;
  /// True once a semijoin dropped a row. An unshrunk atom still equals its
  /// relation's projection, so the relation's version-keyed IndexCache
  /// entries describe it; a shrunk atom's rows are run-specific and never
  /// enter the cache.
  bool shrunk = false;
};

/// An acyclic query's join tree and its atoms after the semijoin sweeps.
struct FullReduction {
  std::vector<int> parent;  ///< Join-tree parent per atom, -1 at the root.
  std::vector<int> order;   ///< Children before parents (root last).
  /// Root-first attribute order: the atoms in reverse `order` each append
  /// their new attributes, so every prefix lies inside a connected subtree
  /// of the join tree. A GenericJoin binding in this order over the fully
  /// reduced atoms expands only search nodes that extend to an answer.
  std::vector<std::string> variables;
  std::vector<ReducedAtom> atoms;  ///< One per query atom.
};

/// Which semijoin sweeps ReduceAcyclicQuery runs.
enum class Sweeps {
  kUp,         ///< Parents ⋉ children: the root is empty iff the answer is.
  kUpAndDown,  ///< Then children ⋉ parents: every row joins (full reducer).
};

/// Yannakakis' reducer, the one implementation of the semijoin sweeps
/// behind EvaluateYannakakis, BooleanYannakakis and AcyclicEnumerator.
/// Materializes every atom as its sorted, deduplicated projection and runs
/// the sweeps over the GYO join tree. When `cache` is set, unshrunk atoms
/// load from their cached tries and serve as semijoin right-hand sides
/// through cached key-set tries (both keyed by relation version), so a warm
/// cache skips every scan and sort over unshrunk atoms. Returns nullopt if
/// the query is cyclic. Polls `budget` once per atom and per probed row; on
/// a trip it returns early with the reduction incomplete, and callers must
/// check budget->Stopped().
std::optional<FullReduction> ReduceAcyclicQuery(
    const JoinQuery& query, const Database& db, Sweeps sweeps,
    util::Budget* budget = nullptr, IndexCache* cache = nullptr,
    util::Arena* arena = nullptr);

/// Yannakakis' algorithm for alpha-acyclic queries: the full reducer, then
/// one GenericJoin over the reduced atoms binding in the reduction's
/// root-first variable order, which keeps the join within O(input + output)
/// up to log factors. Unshrunk atoms keep their cached tries when
/// `ctx.index_cache` is set; shrunk ones are handed over as private rows.
/// The join runs at `ctx.threads` and reports into `ctx.counters`; its
/// columns are permuted to query.AttributeOrder() only when the orders
/// differ.
/// Answers have set semantics and equal GenericJoin's after Normalize().
/// Returns nullopt if the query is cyclic. Observes the budget resolved from
/// `ctx`: on a trip the result has `truncated = true`, the canonical
/// schema, and a subset of the answer (possibly empty); under a row limit R
/// exactly R rows. `stats`, when set, receives the reduced atoms' rows as
/// `intermediate_tuples`/`max_intermediate` and the join's probes.
std::optional<FlatJoinResult> EvaluateYannakakisFlat(
    const JoinQuery& query, const Database& db, const ExecutionContext& ctx,
    JoinStats* stats = nullptr);

/// Row-form adapter over EvaluateYannakakisFlat.
std::optional<JoinResult> EvaluateYannakakis(const JoinQuery& query,
                                             const Database& db,
                                             const ExecutionContext& ctx,
                                             JoinStats* stats = nullptr);

/// EvaluateYannakakis with the pieces of an ExecutionContext passed one by
/// one (threads from QC_THREADS, no counters).
std::optional<JoinResult> EvaluateYannakakis(const JoinQuery& query,
                                             const Database& db,
                                             JoinStats* stats = nullptr,
                                             util::Budget* budget = nullptr,
                                             IndexCache* cache = nullptr,
                                             util::Arena* arena = nullptr);

/// Boolean acyclic query evaluation: the reducer's upward sweep only;
/// nonempty root == nonempty answer. Returns nullopt if cyclic. On a budget
/// trip the verdict is unreliable only when it says "empty": callers must
/// treat a `false` under budget->Stopped() as Unknown.
std::optional<bool> BooleanYannakakis(const JoinQuery& query,
                                      const Database& db,
                                      util::Budget* budget = nullptr,
                                      IndexCache* cache = nullptr,
                                      util::Arena* arena = nullptr);

}  // namespace qc::db

#endif  // QC_DB_YANNAKAKIS_H_
