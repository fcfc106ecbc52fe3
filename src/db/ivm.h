#ifndef QC_DB_IVM_H_
#define QC_DB_IVM_H_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "db/database.h"
#include "db/index_cache.h"
#include "db/wal.h"
#include "util/stats_fields.h"

namespace qc::db {

namespace ivm_internal {
struct ViewState;  // One view's maintained state (defined in ivm.cc).
}  // namespace ivm_internal

/// What a materialized view computes. Two families (Section 6 / ROADMAP
/// item 1 — the dynamic side of the lower-bound story):
///   kJoin          — a full acyclic join query, maintained by one delta
///                    GenericJoin per dirty atom;
///   kTriangleCount — |{(a,b,c) : E(a,b), E(b,c), E(a,c)}| over one binary
///                    relation, maintained by per-edge delta counting
///                    (the OMv-hard query of Section 6.2).
struct ViewDefinition {
  enum class Kind : std::uint8_t { kJoin = 0, kTriangleCount = 1 };

  std::string name;
  Kind kind = Kind::kJoin;
  /// kJoin: the query (must be alpha-acyclic over existing relations).
  JoinQuery query;
  /// kTriangleCount: the binary edge relation.
  std::string relation;
  /// The definition body exactly as the client sent it (query text for
  /// kJoin, relation name for kTriangleCount) — what the WAL persists, so
  /// recovery re-parses the same bytes the original registration did.
  std::string text;
};

/// One relation's change inside a committed write transaction, classified
/// by the mutation path that produced it. kAppend is the fast path: rows
/// [old_size, current size) are exactly the new tuples and the delta rule
/// applies. kReplace means "anything may have changed" and forces a full
/// recompute of every view over the relation.
struct RelationDelta {
  enum class Kind : std::uint8_t { kAppend = 0, kReplace = 1 };

  std::string relation;
  Kind kind = Kind::kAppend;
  std::size_t old_size = 0;  ///< kAppend: first new row index.
};

using util::IvmStats;

/// One view's maintained state as of one epoch.
struct ViewRead {
  bool ok = false;
  std::string error;  ///< Meaningful only when !ok.
  ViewDefinition::Kind kind = ViewDefinition::Kind::kJoin;
  /// Write epoch the state is current as of (== MvccDatabase::Epoch() at
  /// the last commit the registry observed).
  std::uint64_t epoch = 0;
  std::vector<std::string> attributes;
  /// kJoin: the normalized result (lex-sorted, duplicate-free) over the
  /// query's canonical AttributeOrder — bit-identical to
  /// ExecuteQuery-then-Normalize on a snapshot at `epoch`. This is the
  /// registry's own state, shared rather than copied, and it never changes
  /// while held: a later commit that finds it held publishes a new one.
  /// kTriangleCount: one row [count] with attribute "count".
  /// Null when !ok.
  std::shared_ptr<const FlatRelation> rows;
};

/// Registry of materialized views maintained incrementally under
/// MvccDatabase write epochs.
///
/// Maintenance model (DESIGN.md §14): the database calls OnCommit() under
/// its writer lock after every committed mutation, passing per-relation
/// deltas. For an append delta the registry re-evaluates the delta rule
///
///   dQ = U_{dirty atom d}  Q[d -> delta_d]   (all other atoms at their
///                                             post-commit state)
///
/// as one single-threaded GenericJoin per dirty atom d: d's appended rows
/// enter as AtomRows, every other atom's trie comes from the registry's
/// IndexCache, and the attribute order binds d's attributes first and then
/// follows the join tree breadth-first, so the join only descends from the
/// delta. The cache is keyed by relation version and holds no byte cap:
/// its supersede rule keeps one trie per live (relation, projection), so a
/// clean relation's trie is never rebuilt and a dirty one's is replaced.
/// Insert-only set semantics make the rule sound: every new result tuple
/// uses at least one new tuple in some atom, and the union's overcount is
/// removed by dropping the rows already stored before the rest are merged
/// in. Replace-style mutations fall back to a full recompute
/// (EvaluateYannakakisFlat).
///
/// A kJoin view's state is one FlatRelation that Read() shares as
/// shared_ptr<const>. Copy-on-write keeps what a reader holds fixed: a
/// commit extends the relation in place only while no reader holds it,
/// and otherwise publishes an extended copy.
///
/// Threading: all methods take one internal mutex. OnCommit runs inside
/// the MvccDatabase writer lock; Read() copies the state pointer under the
/// registry lock, so readers never block writers for longer than that.
class ViewRegistry {
 public:
  ViewRegistry();
  ~ViewRegistry();
  ViewRegistry(const ViewRegistry&) = delete;
  ViewRegistry& operator=(const ViewRegistry&) = delete;

  /// Checks `def` against `db` without registering: name free and
  /// non-empty, relations exist, kJoin query acyclic, kTriangleCount
  /// relation binary.
  MutationResult Validate(const ViewDefinition& def, const Database& db) const;

  /// Validates, computes the initial state from `db` (counted as one full
  /// recompute), and registers the view as current at `epoch`.
  MutationResult Register(const ViewDefinition& def, const Database& db,
                          std::uint64_t epoch);

  /// True if the view existed.
  bool Unregister(const std::string& name);

  ViewRead Read(const std::string& name) const;
  bool Has(const std::string& name) const;
  std::vector<std::string> ViewNames() const;

  bool empty() const;
  std::size_t size() const;
  IvmStats stats() const;

  /// One kViewDef WAL record per registered view — appended to every
  /// compaction snapshot so definitions survive log rotation.
  std::vector<WalRecord> DefinitionRecords() const;

  /// Maintains every registered view to the post-commit database state and
  /// stamps it with `epoch`. Called by MvccDatabase under its writer lock
  /// after each committed mutation; `deltas` classifies what changed.
  void OnCommit(const Database& db, std::uint64_t epoch,
                const std::vector<RelationDelta>& deltas);

 private:
  void MaintainLocked(ivm_internal::ViewState& view, const Database& db,
                      const std::vector<RelationDelta>& deltas);
  MutationResult RecomputeLocked(ivm_internal::ViewState& view,
                                 const Database& db);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<ivm_internal::ViewState>> views_;
  IvmStats stats_;
  /// Tries of the clean atoms the delta joins read, shared by every view.
  IndexCache cache_{std::numeric_limits<std::size_t>::max()};
};

/// def -> durable kViewDef record (see db/wal.h).
WalRecord ViewDefinitionRecord(const ViewDefinition& def);

/// kViewDef record -> def, re-parsing the persisted definition body.
/// Fails on a non-kViewDef record or an unparseable body.
MutationResult ViewDefinitionFromRecord(const WalRecord& record,
                                        ViewDefinition* out);

/// Definitional recompute from a snapshot — what the maintained state must
/// stay bit-identical to. Used by tests and bench_e19 as the naive
/// baseline; *Read().rows == *RecomputeView(...).rows at every epoch is the
/// correctness contract.
ViewRead RecomputeView(const ViewDefinition& def, const Database& db,
                       std::uint64_t epoch);

}  // namespace qc::db

#endif  // QC_DB_IVM_H_
