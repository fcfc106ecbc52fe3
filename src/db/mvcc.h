#ifndef QC_DB_MVCC_H_
#define QC_DB_MVCC_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "db/database.h"
#include "db/ivm.h"
#include "db/wal.h"
#include "util/stats_fields.h"

namespace qc::db {

/// Point-in-time usage counters of one MvccDatabase.
struct MvccStats {
  std::uint64_t mutations = 0;        ///< Successful write transactions.
  std::uint64_t snapshots = 0;        ///< Snapshot() calls served.
  std::uint64_t snapshot_builds = 0;  ///< Snapshots that cloned (cache miss).
  std::uint64_t wal_rejections = 0;   ///< Mutations refused by a WAL append.

  template <class F>
  void ForEachField(F&& f) const {
    f("mutations", mutations, util::FieldKind::kCounter);
    f("snapshots", snapshots, util::FieldKind::kCounter);
    f("snapshot_builds", snapshot_builds, util::FieldKind::kCounter);
    f("wal_rejections", wal_rejections, util::FieldKind::kCounter);
  }
};

/// A reader snapshot: an immutable Database pinned at a write epoch.
/// Relation payloads are shared copy-on-write with the live database, and
/// version stamps are preserved — IndexCache entries keyed on
/// (relation, version) built against one snapshot stay valid for every
/// other snapshot and for the live database until the relation mutates.
struct MvccSnapshot {
  std::shared_ptr<const Database> db;
  /// Number of write transactions applied before this snapshot was taken.
  /// Two snapshots at the same epoch see bit-identical data.
  std::uint64_t epoch = 0;
};

/// Multi-version concurrency control over one Database: serialized writers,
/// lock-free readers.
///
/// Writers (SetRelation/AddTuple/AddTuples/Mutate) are serialized behind one
/// mutex and bump the write epoch. Readers call Snapshot() — a short
/// critical section that hands out a cached shared_ptr<const Database>
/// clone, rebuilding it (O(#relations) pointer copies, no tuple data) only
/// when a write happened since the last snapshot. After Snapshot() returns,
/// a reader never takes a lock again: it evaluates against its pinned,
/// immutable clone while writers keep mutating the live database.
///
/// Writers never block readers: the first mutation of a relation shared
/// with an outstanding snapshot copies that relation privately
/// (Database::Clone copy-on-write), so snapshot readers keep scanning the
/// old payload untouched. A stream of AddTuples between two snapshots pays
/// one such copy per mutated relation, then appends in place.
///
/// Durability: after AttachWal, every write transaction is logged before it
/// is applied — a mutation the WAL refuses (I/O error, injected fault) is
/// rejected without touching the database or the epoch, so acknowledged
/// writes are exactly the durable ones. Mutate() runs its lambda against a
/// staged copy-on-write clone and only publishes the clone after the WAL
/// accepts the record; a failed lambda leaves database and epoch untouched.
class MvccDatabase {
 public:
  MvccDatabase() = default;
  MvccDatabase(const MvccDatabase&) = delete;
  MvccDatabase& operator=(const MvccDatabase&) = delete;

  /// Routes every subsequent mutation through `wal` (log-before-apply).
  /// Call once after recovery, before serving writers; `wal` must stay
  /// alive as long as this database and must already be Open. Pass nullptr
  /// to detach.
  void AttachWal(Wal* wal);

  /// Routes every committed mutation through `views` (ViewRegistry::
  /// OnCommit under the writer lock), so registered materialized views
  /// stay current with the write epoch. `views` must outlive this
  /// database. Pass nullptr to detach. With no registered views the
  /// per-mutation overhead is one empty() check.
  void AttachViews(ViewRegistry* views);

  /// Validates `def` against the live database, logs a durable kViewDef
  /// record (when a WAL is attached), and registers the view — its initial
  /// state is computed from the current database and maintained from the
  /// current epoch on. Registration does not bump the write epoch (the
  /// data did not change). Fails without an attached ViewRegistry.
  MutationResult RegisterView(const ViewDefinition& def);

  /// Seeds the live database (epoch bumps like any write).
  MutationResult SetRelation(const std::string& name, int arity,
                             std::vector<Tuple> tuples);
  MutationResult SetRelation(const std::string& name, FlatRelation relation);

  /// Appends one tuple as one write transaction.
  MutationResult AddTuple(const std::string& name, Tuple tuple);

  /// Appends a batch as ONE write transaction (one epoch bump, one
  /// copy-on-write at most). All-or-nothing: every tuple's arity is
  /// validated against the relation before any is applied, and the failure
  /// diagnostic names the offending batch index — the batched-append
  /// counterpart of SetRelation's atomic validation. An EMPTY batch is a
  /// validated no-op: nothing reaches the WAL, the epoch does not bump,
  /// and the cached reader snapshot stays warm (a zero-record batch that
  /// invalidated the snapshot used to force spurious rebuilds and
  /// IndexCache misses downstream).
  MutationResult AddTuples(const std::string& name, std::vector<Tuple> tuples);

  /// Runs `fn(Database&)` as one serialized write transaction against a
  /// staged copy-on-write clone. On success the clone is published and the
  /// epoch bumps; on failure (from `fn` or from the WAL) the live database
  /// and the epoch are untouched — callers get transactional rollback for
  /// free, at the cost of one copy-on-write clone per call.
  MutationResult Mutate(const std::function<MutationResult(Database&)>& fn);

  /// Mutate() that also appends `record` to the attached WAL before
  /// publishing — the durable form of a server `mutate` frame. `record`
  /// must describe exactly what `fn` does (it is what recovery replays).
  /// Without an attached WAL this is identical to Mutate().
  MutationResult MutateLogged(
      const WalRecord& record,
      const std::function<MutationResult(Database&)>& fn);

  /// Two-phase durable write for callers that can validate before applying:
  /// `validate` runs read-only against the live database; if it passes,
  /// `record` is logged and `apply` mutates the live database directly —
  /// no staged clone. This is what keeps a stream of single-tuple dataset
  /// mutations O(total rows): the staged clone marks every relation shared,
  /// so the first append after it copies the whole payload, turning bulk
  /// ingest (and kDataset recovery replay) quadratic. In exchange `apply`
  /// MUST succeed once `validate` passed under the same lock; an `apply`
  /// failure means a durable record that cannot replay and is surfaced as
  /// a failed mutation with the database possibly part-mutated (the epoch
  /// still bumps so readers refresh).
  ///
  /// IVM contract: in-place appliers must be create-or-append per relation
  /// (exactly what dataset apply does — SetRelation only for brand-new
  /// names, AddTuple for existing ones). Deltas for attached views are
  /// classified from the pre/post (version, size) pair under that
  /// assumption; a relation that shrank is defensively treated as replaced
  /// (full view recompute). An applier that replaces an existing relation
  /// at equal-or-larger size would silently corrupt maintained views —
  /// use MutateLogged (staged clone, conservative replace deltas) for
  /// arbitrary mutations.
  MutationResult MutateLoggedInPlace(
      const WalRecord& record,
      const std::function<MutationResult(const Database&)>& validate,
      const std::function<MutationResult(Database&)>& apply);

  /// Compacts the attached WAL (snapshot + log rotation) under the writer
  /// lock, so no mutation can slip between the snapshot and the log
  /// truncation. `request_ids` is the dedup window to persist. No-op
  /// without an attached WAL.
  MutationResult CompactWal(const std::vector<std::uint64_t>& request_ids);

  /// CompactWal iff the attached WAL's log has outgrown
  /// WalOptions::compact_bytes (0 = never). `request_ids` is called under
  /// the same writer-lock hold that snapshots the data, so a dedup window
  /// maintained inside mutations cannot miss an id whose data the
  /// snapshot holds. Returns true when a compaction ran and succeeded.
  bool MaybeCompactWal(
      const std::function<std::vector<std::uint64_t>()>& request_ids,
      std::string* error);

  /// Pins the current state. Lock held only for the (cheap) clone; the
  /// returned snapshot is immutable and safe to read from any thread with
  /// no further synchronization. Consecutive calls with no intervening
  /// write share one clone.
  MvccSnapshot Snapshot() const;

  /// Write epoch: number of write transactions applied so far.
  std::uint64_t Epoch() const;

  MvccStats stats() const;

 private:
  /// Caller holds mu_. Bumps the epoch and drops the cached snapshot.
  void TouchLocked();

  /// Caller holds mu_. Appends `record` to the attached WAL (no-op when
  /// detached); false means the mutation must be rejected.
  bool LogLocked(const WalRecord& record, MutationResult* out);

  /// Caller holds mu_. True when a registry with >= 1 view is attached —
  /// the gate for collecting deltas on the mutation paths.
  bool ViewsActiveLocked() const;

  /// Caller holds mu_, after a committed mutation (epoch already bumped).
  /// Forwards the deltas to the attached registry.
  void NotifyViewsLocked(const std::vector<RelationDelta>& deltas);

  /// Caller holds mu_. (version, size) per relation — the "before" side of
  /// delta classification for the staged/in-place mutation paths.
  std::map<std::string, std::pair<std::uint64_t, std::size_t>>
  RelationFingerprintsLocked() const;

  mutable std::mutex mu_;
  Database db_;
  Wal* wal_ = nullptr;
  ViewRegistry* views_ = nullptr;
  std::uint64_t epoch_ = 0;
  mutable std::shared_ptr<const Database> cached_;
  mutable std::uint64_t cached_epoch_ = 0;
  mutable MvccStats stats_;
};

}  // namespace qc::db

#endif  // QC_DB_MVCC_H_
