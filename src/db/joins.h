#ifndef QC_DB_JOINS_H_
#define QC_DB_JOINS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "db/database.h"
#include "util/budget.h"

namespace qc::db {

/// Statistics for plan-based evaluation — E2 reports the intermediate-result
/// blowup that worst-case-optimal joins avoid.
struct JoinStats {
  std::uint64_t intermediate_tuples = 0;  ///< Total tuples materialized.
  std::uint64_t max_intermediate = 0;     ///< Largest intermediate result.
  std::uint64_t probes = 0;               ///< Hash probes performed.
};

/// Hash-joins two materialized results on their shared attributes
/// (natural join). The output schema is left's attributes followed by
/// right's non-shared attributes. Polls `budget` once per probed left tuple;
/// on a trip the result carries the rows produced so far with
/// `truncated = true`.
JoinResult HashJoin(const JoinResult& left, const JoinResult& right,
                    JoinStats* stats = nullptr,
                    util::Budget* budget = nullptr);

/// Evaluates the query with a left-deep sequence of binary hash joins in the
/// given atom order (indices into query.atoms).
JoinResult EvaluateBinaryJoinPlan(const JoinQuery& query, const Database& db,
                                  const std::vector<int>& atom_order,
                                  JoinStats* stats = nullptr);

/// Greedy plan: start from the smallest relation; repeatedly join the atom
/// sharing attributes with the current result (smallest first), falling back
/// to a cross product only when forced.
std::vector<int> GreedyJoinOrder(const JoinQuery& query, const Database& db);

/// EvaluateBinaryJoinPlan with GreedyJoinOrder.
JoinResult EvaluateGreedyBinaryJoin(const JoinQuery& query, const Database& db,
                                    JoinStats* stats = nullptr);

/// Shared prep for reading an atom's raw rows: distinct attributes in
/// first-occurrence order, the source column of each, and the repeated
/// columns that must agree with their first occurrence.
struct AtomColumns {
  std::vector<std::string> attributes;       ///< Deduplicated schema.
  std::vector<int> keep_cols;                ///< Source column per attribute.
  std::vector<std::pair<int, int>> eq_cols;  ///< (first, repeat) pairs.
};

AtomColumns AnalyzeAtomColumns(const Atom& atom);

/// True when raw `row` satisfies the atom's repeated-attribute equalities.
bool RowPassesEquality(const Value* row, const AtomColumns& cols);

/// Loads one atom as a JoinResult (handles repeated attributes within the
/// atom by filtering on equality and dropping the duplicate columns).
/// Attributes keep their first-occurrence order; rows keep database order.
JoinResult MaterializeAtom(const Atom& atom, const Database& db);

/// Distinct attributes of `atom` in first-occurrence order — the schema
/// MaterializeAtom produces.
std::vector<std::string> AtomAttributes(const Atom& atom);

/// Canonical cache signature of the sorted projection of `atom` onto
/// `attrs` (a subset of the atom's distinct attributes, in output-column
/// order): the row filter (equality classes of repeated attributes) plus
/// the source column of each output attribute. Two (atom, attrs) pairs with
/// equal signatures over the same relation version produce byte-identical
/// MaterializeSortedProjection results — the IndexCache keys trie indexes
/// by (relation name, version, signature).
std::string AtomProjectionSignature(const Atom& atom,
                                    const std::vector<std::string>& attrs);

/// Sorted, duplicate-free flat projection of `atom` onto `attrs` (output
/// columns in that order): rows failing the atom's repeated-attribute
/// equality filter are dropped, the kept source columns are gathered, and
/// the result is SortLexAndDedup'ed — the canonical relation a TrieIndex
/// (and a cached semijoin key set) is built over. `scratch`, when non-null,
/// backs the sort kernel's transient buffers.
FlatRelation MaterializeSortedProjection(const Atom& atom, const Database& db,
                                         const std::vector<std::string>& attrs,
                                         util::Arena* scratch = nullptr);

}  // namespace qc::db

#endif  // QC_DB_JOINS_H_
