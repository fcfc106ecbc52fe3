#ifndef QC_SERVER_SERVER_H_
#define QC_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "api/query_api.h"
#include "api/session_options.h"
#include "api/wire.h"
#include "db/index_cache.h"
#include "db/ivm.h"
#include "db/mvcc.h"
#include "db/wal.h"
#include "server/admission.h"
#include "util/stats_fields.h"

namespace qc::server {

struct ServerOptions {
  /// Session defaults applied to every request; a request's own `option`
  /// fields override deadline_ms/max_rows/threads/hybrid/hybrid_delta per
  /// query (they can tighten or set, never touch the server's report/cache
  /// config).
  api::SessionOptions session;
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral; resolved port via QueryServer::port().
  AdmissionOptions admission;
  /// Result rows streamed per "batch" frame.
  int batch_rows = 256;
  /// Durability: wal.dir empty = in-memory only (the default, and the
  /// pre-WAL behavior). Non-empty = Recover() replays dir's snapshot+log
  /// into the database and every subsequent mutation is logged before it
  /// is acknowledged (see db/wal.h for the fsync policy semantics).
  db::WalOptions wal;
  /// Idempotency window: how many applied request ids the server remembers
  /// (and persists across compaction) for duplicate-mutation detection.
  std::size_t dedup_window = 4096;
};

/// Outcome of QueryServer::Recover — surfaced in logs and StatsJson so an
/// operator can see exactly what a restart replayed.
struct RecoveryInfo : db::WalReplayCounts {
  bool ran = false;  ///< False until Recover() is called with a wal dir.
  std::uint64_t request_ids = 0;  ///< Dedup ids recovered.
  std::uint64_t view_defs = 0;       ///< kViewDef records replayed.
  std::uint64_t views_rebuilt = 0;   ///< Views re-registered after replay.
  std::uint64_t views_failed = 0;    ///< Definitions that failed to rebuild.

  template <class F>
  void ForEachField(F&& f) const {
    using util::FieldKind;
    f("ran", ran, FieldKind::kGauge);
    f("snapshot_records", snapshot_records, FieldKind::kCounter);
    f("log_records", log_records, FieldKind::kCounter);
    f("torn_bytes_truncated", torn_bytes_truncated, FieldKind::kCounter);
    f("duplicate_records_skipped", duplicate_records_skipped,
      FieldKind::kCounter);
    f("stale_log_bytes_skipped", stale_log_bytes_skipped, FieldKind::kCounter);
    f("request_ids", request_ids, FieldKind::kCounter);
    f("view_defs", view_defs, FieldKind::kCounter);
    f("views_rebuilt", views_rebuilt, FieldKind::kCounter);
    f("views_failed", views_failed, FieldKind::kCounter);
  }
};

/// The `stats` frame (StatsJson): the top-level fields, then one section
/// per nested record.
struct ServerStats {
  AdmissionStats admission;
  db::MvccStats mvcc;
  db::IndexCacheStats cache;
  db::WalStats wal;
  db::IvmStats ivm;
  RecoveryInfo recovery;
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;
  std::uint64_t queries = 0;
  std::uint64_t mutations = 0;
  std::uint64_t mutations_deduped = 0;
  std::uint64_t view_registers = 0;
  std::uint64_t view_reads = 0;
  std::uint64_t input_errors = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t queue_sheds = 0;
  std::uint64_t drain_rejects = 0;
  bool draining = false;

  template <class F>
  void ForEachField(F&& f) const {
    using util::FieldKind;
    f("connections", connections, FieldKind::kCounter);
    f("requests", requests, FieldKind::kCounter);
    f("queries", queries, FieldKind::kCounter);
    f("mutations", mutations, FieldKind::kCounter);
    f("mutations_deduped", mutations_deduped, FieldKind::kCounter);
    f("view_registers", view_registers, FieldKind::kCounter);
    f("view_reads", view_reads, FieldKind::kCounter);
    f("input_errors", input_errors, FieldKind::kCounter);
    f("protocol_errors", protocol_errors, FieldKind::kCounter);
    f("queue_sheds", queue_sheds, FieldKind::kCounter);
    f("drain_rejects", drain_rejects, FieldKind::kCounter);
    f("draining", draining, FieldKind::kGauge);
  }
};

/// Receives one reply's frames in order. Returns false once a frame cannot
/// be delivered (the connection failed); the reply stops there.
using FrameSink = std::function<bool(const api::Frame&)>;

/// qc_serverd's engine: a long-lived multi-tenant query service over one
/// MvccDatabase.
///
/// Request lifecycle (the tentpole pipeline):
///   1. admission  — the global AdmissionController queues or rejects with
///                   a structured diagnostic (code 8/9) when saturated;
///                   a request whose deadline already elapsed in the queue
///                   is shed (code 4, "shed-queue-deadline") before any
///                   work is wasted on it;
///   2. snapshot   — the query pins an MVCC snapshot (copy-on-write
///                   relation handles; writers never block readers, and
///                   IndexCache entries stay valid across snapshots since
///                   they are immutable and version-keyed);
///   3. execute    — api::ExecuteQuery under the per-request budget merged
///                   from the server session defaults, into one columnar
///                   result; the admission slot and the snapshot are
///                   released here, before any reply frame is built;
///   4. stream     — hdr (whose `rows` is why the answer is fully evaluated
///                   before the first byte), then "batch" frames encoded
///                   straight from the result's columns into the FrameSink,
///                   then a per-request RunReport frame and `end`. Over a
///                   socket the sink coalesces encoded frames into one
///                   reused write buffer of at most kWriteBufferBytes.
///
/// Mutations (`mutate` frames) apply the shared dataset format as one
/// serialized write transaction with line-numbered diagnostics and the
/// same continue-vs-abort semantics as query_cli. With a WAL attached the
/// transaction is logged before it is acknowledged, and a client-supplied
/// `request_id` makes it idempotent: a retry of an already-applied id is
/// acknowledged without re-applying (the dedup window survives crashes —
/// it is recovered from the WAL and persisted across compactions).
///
/// Degradation: `shutdown` switches the server to draining — in-flight
/// requests finish, new work is rejected with a retryable structured error
/// ("server-draining", code 6) — and `health` reports serving/draining plus
/// durability state so load balancers can steer before hitting errors.
/// Every error frame carries `retryable` so clients know whether backoff
/// and retry can succeed (see Client::RetryOptions).
///
/// Transport is pluggable-by-construction: HandleRequest() maps one
/// request frame to its reply frames with no socket anywhere, which is how
/// the unit tests drive the full pipeline in-process; Start() adds the
/// loopback TCP front end (one thread per connection, frames over qcp/1).
class QueryServer {
 public:
  /// Per-connection reply buffer: encoded frames are coalesced into it and
  /// written out when the next frame would overflow it and at the end of
  /// every reply, so server-side reply buffering is bounded by this, not by
  /// the answer.
  static constexpr std::size_t kWriteBufferBytes = std::size_t{16} << 10;

  explicit QueryServer(const ServerOptions& options);
  ~QueryServer();
  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// The live database, e.g. for preloading before Start().
  db::MvccDatabase& database() { return mvcc_; }

  /// Replays options.wal's snapshot + log into the database, truncates any
  /// torn tail, opens the log for appending, and attaches it so every
  /// subsequent mutation is durable. Call before Start() (and before any
  /// preload). No-op returning true when options.wal.dir is empty. False +
  /// error on unreplayable state — refusing to serve beats silently
  /// serving a diverged store.
  bool Recover(std::string* error);
  RecoveryInfo recovery() const;

  /// Binds host:port and spawns the accept loop. False + error on failure.
  bool Start(std::string* error);
  /// Resolved listening port (after Start).
  int port() const { return port_; }
  /// Blocks until the listener shuts down (Stop() or a `shutdown` frame).
  void Wait();
  /// Closes the listener and every connection, then joins. In-flight
  /// requests finish and their replies are flushed (connections are shut
  /// down read-side first). Idempotent.
  void Stop();
  /// True once a `shutdown` frame was honored.
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_relaxed);
  }

  /// Switches to draining: in-flight work finishes, new query/mutate
  /// frames get a retryable "server-draining" rejection. health/stats/ping
  /// keep working so orchestration can watch the drain.
  void Drain() { draining_.store(true, std::memory_order_relaxed); }
  bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }

  /// Async-signal-safe shutdown trigger (atomic store + shutdown(2) on the
  /// listener): Wait() returns, then the caller runs Stop(). qc_serverd's
  /// SIGINT/SIGTERM handler calls this.
  void SignalShutdown() {
    shutdown_requested_.store(true, std::memory_order_relaxed);
    draining_.store(true, std::memory_order_relaxed);
    CloseListener();
  }

  /// Serves one request frame, handing its reply frames to `sink` in
  /// order and stopping at the first frame the sink refuses. Thread-safe;
  /// this is the whole server minus sockets.
  void HandleRequest(const api::Frame& request, const FrameSink& sink);

  /// HandleRequest collecting the reply frames into a vector.
  std::vector<api::Frame> HandleRequest(const api::Frame& request);

  /// Serves qcp/1 request frames read from the connected stream socket `fd`
  /// until the peer closes, a reply write fails or a `shutdown` frame is
  /// served. Does not close `fd`. Each connection thread runs this.
  void ServeStream(int fd);

  ServerStats stats() const;
  /// Stats as JSON (the `stats` frame body).
  std::string StatsJson() const;

 private:
  void HandleQuery(const api::Frame& request, const FrameSink& sink);
  /// Steps 1-3 of the request lifecycle: admission, snapshot, execute into
  /// `resp`. Returns the rejection frame when admission refuses or sheds
  /// the request. The admission slot and the snapshot are released when
  /// this returns, so a slow reader of the reply holds neither.
  std::optional<api::Frame> AdmitAndExecute(const api::QueryRequest& qreq,
                                            api::QueryResponse* resp);
  api::Frame HandleMutate(const api::Frame& request);
  api::Frame HandleViewRegister(const api::Frame& request);
  void HandleViewRead(const api::Frame& request, const FrameSink& sink);
  /// The reply stream of a row-returning request, shared by HandleQuery
  /// and HandleViewRead so clients decode both with one path: hdr (with
  /// `analysis` as its body), row batches of options_.batch_rows encoded
  /// from `rows`' columns, the report, and end carrying
  /// util::ExitCode(status). Stops at the first frame `sink` refuses.
  void RowReply(std::uint64_t id, util::RunStatus status,
                const std::string& method, bool truncated, std::uint64_t epoch,
                const std::vector<std::string>& attributes,
                const db::FlatRelation& rows, std::string analysis,
                const util::RunReport& report, const FrameSink& sink) const;
  api::Frame HandleHealth(std::uint64_t id) const;
  void AcceptLoop();
  void ServeConnection(int fd, std::uint64_t conn_id);
  void CloseListener();

  /// Dedup bookkeeping. Its own lock, taken inside mvcc_'s writer lock by
  /// the mutate path (check-and-remember must be atomic with the apply,
  /// or two concurrent retries of one id could both pass the check and
  /// both commit) and by compaction (the persisted window must be read
  /// under the lock that snapshots the data); the inverse nesting never
  /// occurs.
  bool SeenRequestId(std::uint64_t id) const;
  void RememberRequestId(std::uint64_t id);
  std::vector<std::uint64_t> DedupWindow() const;

  const ServerOptions options_;
  db::MvccDatabase mvcc_;
  /// Materialized views maintained under mvcc_'s write epochs (attached in
  /// the constructor); `view_register`/`view_read` frames and WAL-recovered
  /// kViewDef records feed it.
  db::ViewRegistry views_;
  db::Wal wal_;
  std::unique_ptr<db::IndexCache> cache_;
  AdmissionController admission_;

  mutable std::mutex recovery_mu_;
  RecoveryInfo recovery_;

  /// Applied request ids, most recent last, capped at dedup_window.
  mutable std::mutex dedup_mu_;
  std::unordered_set<std::uint64_t> dedup_set_;
  std::deque<std::uint64_t> dedup_order_;

  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> mutations_{0};
  std::atomic<std::uint64_t> mutations_deduped_{0};
  std::atomic<std::uint64_t> view_registers_{0};
  std::atomic<std::uint64_t> view_reads_{0};
  std::atomic<std::uint64_t> input_errors_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> queue_sheds_{0};
  std::atomic<std::uint64_t> drain_rejects_{0};

  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> shutdown_requested_{false};

  /// Live connection fds (for Stop() to shut down) and the connection
  /// thread handles. Threads are never detached: a finishing connection
  /// parks its own handle in finished_threads_ (it cannot join itself),
  /// the accept loop reaps those opportunistically, and Stop() joins
  /// everything — the join IS the graceful drain, and no connection
  /// thread can touch a destroyed member afterwards.
  std::mutex conn_mu_;
  std::set<int> conn_fds_;
  int live_connections_ = 0;
  std::uint64_t next_conn_id_ = 0;
  std::map<std::uint64_t, std::thread> conn_threads_;
  std::vector<std::thread> finished_threads_;
};

}  // namespace qc::server

#endif  // QC_SERVER_SERVER_H_
