#ifndef QC_DB_WAL_H_
#define QC_DB_WAL_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "db/database.h"
#include "util/stats_fields.h"

namespace qc::db {

/// When appended WAL records reach the disk.
///   kAlways — fdatasync after every record: an acknowledged mutation
///             survives kill -9 and power loss (the durability default).
///   kBatch  — fdatasync once at least batch_bytes have accumulated:
///             bounded loss window, much higher ingest throughput.
///   kOff    — never fsync; the OS flushes when it pleases. For tests and
///             for workloads where a crash may lose the tail.
enum class FsyncPolicy { kAlways, kBatch, kOff };

/// "always" | "batch" | "off"; false on anything else.
bool ParseFsyncPolicy(std::string_view text, FsyncPolicy* out);
const char* ToString(FsyncPolicy policy);

struct WalOptions {
  /// Directory holding wal.log + snapshot.dat. Empty = WAL disabled.
  std::string dir;
  FsyncPolicy fsync = FsyncPolicy::kAlways;
  /// kBatch: bytes appended between fdatasync calls.
  std::uint64_t batch_bytes = 1 << 20;
  /// Log size that triggers compaction (snapshot + rotation) on the next
  /// MvccDatabase::MaybeCompactWal. 0 = compact only on explicit request.
  std::uint64_t compact_bytes = std::uint64_t{64} << 20;
};

/// One logical logged mutation. The WAL speaks the same mutation
/// vocabulary as MvccDatabase: structured relation writes plus the raw
/// dataset batches the server's `mutate` frames carry (replayed through
/// api::LoadDataset by the recovery callback, so the db layer never
/// depends on the api layer).
struct WalRecord {
  enum class Kind : std::uint8_t {
    kSetRelation = 1,  ///< Create/replace `relation` (arity + tuples).
    kAddTuples = 2,    ///< Append `tuples` to `relation`.
    kDataset = 3,      ///< Apply `dataset` text (api::LoadDataset format).
    kDedup = 4,        ///< Snapshot-only: applied request-id window.
    /// Materialized-view registration (see db/ivm.h): `relation` holds the
    /// view name, `arity` the ViewDefinition::Kind, `dataset` the
    /// definition body (query text / edge relation name). Logged when a
    /// view registers and carried by every compaction snapshot, so
    /// recovery rebuilds registered views after replaying the data.
    kViewDef = 5,
  };

  Kind kind = Kind::kAddTuples;
  /// Client-supplied idempotency token (0 = none). Recovery reports every
  /// id it saw so the server can refuse to re-apply a retried mutation
  /// that already committed before the crash.
  std::uint64_t request_id = 0;
  std::string relation;        ///< kSetRelation / kAddTuples.
  int arity = 0;               ///< kSetRelation.
  std::vector<Tuple> tuples;   ///< kSetRelation / kAddTuples.
  std::string dataset;         ///< kDataset: raw dataset text.
  bool continue_on_error = false;  ///< kDataset: LoadDataset semantics.
  std::vector<std::uint64_t> dedup_ids;  ///< kDedup.
};

/// Serialized payload (no framing); the inverse of DecodeWalRecord.
std::string EncodeWalRecord(const WalRecord& record);
/// False + error on a malformed payload (never crashes on garbage).
bool DecodeWalRecord(std::string_view payload, WalRecord* out,
                     std::string* error);

struct WalStats {
  bool enabled = false;  ///< A log is open: mutations are durable.
  std::uint64_t records_appended = 0;
  std::uint64_t bytes_appended = 0;
  std::uint64_t syncs = 0;
  std::uint64_t compactions = 0;
  std::uint64_t log_bytes = 0;       ///< Current wal.log size.
  std::uint64_t append_failures = 0; ///< I/O or injected-fault rejections.

  template <class F>
  void ForEachField(F&& f) const {
    f("enabled", enabled, util::FieldKind::kGauge);
    f("records_appended", records_appended, util::FieldKind::kCounter);
    f("bytes_appended", bytes_appended, util::FieldKind::kCounter);
    f("syncs", syncs, util::FieldKind::kCounter);
    f("compactions", compactions, util::FieldKind::kCounter);
    f("log_bytes", log_bytes, util::FieldKind::kGauge);
    f("append_failures", append_failures, util::FieldKind::kCounter);
  }
};

/// What Wal::Replay applied and skipped (also carried by the server's
/// RecoveryInfo).
struct WalReplayCounts {
  std::uint64_t snapshot_records = 0;  ///< Applied from snapshot.dat.
  std::uint64_t log_records = 0;       ///< Applied from wal.log.
  std::uint64_t torn_bytes_truncated = 0;  ///< Invalid tail cut from the log.
  /// Records skipped because their nonzero request_id was already applied.
  /// A failed fsync can persist a record whose mutation was rejected; the
  /// client's acknowledged retry then logs a second copy of the same id.
  std::uint64_t duplicate_records_skipped = 0;
  /// Bytes of a wal.log whose generation the snapshot already covers —
  /// a crash between Compact's snapshot rename and its log rotation.
  /// Replaying it would double-apply everything, so it is discarded.
  std::uint64_t stale_log_bytes_skipped = 0;
};

/// Outcome of Wal::Replay.
struct WalRecovery : WalReplayCounts {
  bool ok = false;
  std::string error;  ///< Meaningful only when !ok.
  /// Every request id seen (dedup window from the snapshot plus the id of
  /// each replayed record) — the server's idempotency set after recovery.
  std::vector<std::uint64_t> request_ids;
};

/// Checksummed, length-prefixed write-ahead log of database mutations.
///
/// On-disk layout inside `dir`:
///   wal.log       16-byte header (8-byte magic + u64 generation), then
///                 records: u32 payload-bytes, u32 CRC32(payload),
///                 payload (EncodeWalRecord)
///   snapshot.dat  same header and record format, holding one
///                 kSetRelation per relation plus one kDedup record;
///                 written to snapshot.tmp, fsynced, atomically renamed
///
/// Recovery invariants (see DESIGN.md §13):
///   * a record is applied iff its length fits the file AND its CRC
///     matches — the first violation ends the log, and Replay truncates
///     that torn tail so the next boot starts from a clean file;
///   * snapshot.dat is always complete (fsync-then-rename) — a corrupt
///     snapshot is a hard recovery error, never silently skipped;
///   * Append writes and syncs *before* the mutation is applied or
///     acknowledged, so acknowledged writes are exactly the durable ones
///     under fsync=always;
///   * a snapshot at generation G supersedes every log record at
///     generation <= G. Compact stamps the snapshot with the current log
///     generation and then rotates (tmp + rename) to a fresh G+1 log, so
///     a crash anywhere between the two renames leaves a log that Replay
///     recognizes as already-compacted and discards instead of
///     re-applying on top of the snapshot;
///   * a record whose nonzero request_id was already applied is skipped
///     on replay — a failed fsync can leave a rejected mutation's bytes
///     in the log ahead of its acknowledged retry.
///
/// Fault points: wal.open, wal.write, wal.fsync, wal.compact — each
/// injected failure surfaces as a false return with a structured error.
///
/// Threading: all members thread-safe behind one mutex; in practice every
/// writer call happens under MvccDatabase's write lock and stats() is the
/// only concurrent reader.
class Wal {
 public:
  Wal() = default;
  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Creates `options.dir` if needed and opens wal.log for appending
  /// (writing the magic on a fresh/empty file). Run Replay first: Open
  /// refuses a log whose header is damaged beyond the torn-header case.
  bool Open(const WalOptions& options, std::string* error);
  void Close();
  bool is_open() const;

  /// Serializes, appends, and applies the fsync policy. False on any I/O
  /// error or injected fault — the caller must then reject the mutation
  /// (the record did not durably commit).
  bool Append(const WalRecord& record, std::string* error);

  /// Explicit fdatasync (used on graceful shutdown for kBatch).
  bool Sync(std::string* error);

  /// Durable snapshot + log rotation: writes every relation of `db` (plus
  /// the `request_ids` dedup window) into snapshot.tmp, fsyncs, renames
  /// over snapshot.dat, then rotates wal.log to a fresh, higher-generation
  /// file (also tmp + rename — never an in-place truncate, so no crash can
  /// pair the new snapshot with the records it already contains). If the
  /// rotation fails after the snapshot rename, the WAL closes itself:
  /// appends to the superseded log would be silently dropped by the next
  /// recovery, so refusing mutations (retryably) is the safe state. Caller
  /// must hold the database still (MvccDatabase::MaybeCompactWal runs it
  /// under the writer lock).
  bool Compact(const Database& db,
               const std::vector<std::uint64_t>& request_ids,
               std::string* error);

  /// Compact with additional records (e.g. kViewDef definitions) appended
  /// to the snapshot after the dedup window — durable derived state that
  /// must survive log rotation.
  bool Compact(const Database& db,
               const std::vector<std::uint64_t>& request_ids,
               const std::vector<WalRecord>& extra_records,
               std::string* error);

  /// Current wal.log size (header included); 0 when closed.
  std::uint64_t log_bytes() const;

  /// Generation of the open log (bumped by every compaction); 0 when
  /// closed.
  std::uint64_t generation() const;

  WalStats stats() const;
  const WalOptions& options() const { return options_; }

  /// Replays `dir`'s snapshot + log into `apply`, truncating any torn log
  /// tail. Safe on a missing/empty directory (clean recovery, 0 records).
  /// `apply` returning failure aborts recovery with that diagnostic —
  /// every durable record must replay cleanly or the store is rejected
  /// loudly rather than silently diverging.
  static WalRecovery Replay(
      const WalOptions& options,
      const std::function<MutationResult(const WalRecord&)>& apply);

 private:
  bool SyncLocked(std::string* error);

  mutable std::mutex mu_;
  WalOptions options_;
  int fd_ = -1;
  std::uint64_t generation_ = 0;
  std::uint64_t unsynced_bytes_ = 0;
  WalStats stats_;
};

}  // namespace qc::db

#endif  // QC_DB_WAL_H_
