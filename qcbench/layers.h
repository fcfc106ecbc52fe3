// Outside-in layer decomposition of the traced run. For one op on one
// snapshot it times the public entry point of each layer, one layer deeper
// at a time (Client -> QueryServer::HandleRequest -> api::ExecuteQuery ->
// core::EvaluateQueryAuto -> db engines, plus the wire codec), recording
// every call as a span whose parent is the enclosing layer's span for the
// same op id. Self time = a span minus its on-path children.
#ifndef QCBENCH_LAYERS_H_
#define QCBENCH_LAYERS_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "datasets.h"
#include "db/index_cache.h"
#include "db/ivm.h"
#include "db/wal.h"
#include "server/client.h"
#include "server/server.h"

namespace qcbench {

/// In-memory span store, written out when the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::string op;          ///< Op kind, e.g. "query".
    std::uint64_t op_id = 0;
    int parent = -1;         ///< Index of the enclosing layer's span.
    double start_ms = 0;     ///< From the log's origin.
    double end_ms = 0;
    bool side = false;       ///< Off the op's path (not in parent's self).
  };

  SpanLog() : origin_(Clock::now()) {}

  /// Runs fn() inside a new span and returns the span's index.
  template <typename Fn>
  int Time(const char* name, const std::string& op, std::uint64_t op_id,
           int parent, Fn&& fn, bool side = false) {
    const double start = MsBetween(origin_, Clock::now());
    fn();
    const double end = MsBetween(origin_, Clock::now());
    spans_.push_back({name, op, op_id, parent, start, end, side});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Durations (or self times) of every `name` span of op kind `op`.
  std::vector<double> Durations(const std::string& op,
                                const std::string& name) const;
  std::vector<double> SelfTimes(const std::string& op,
                                const std::string& name) const;
  double MedianMs(const std::string& op, const std::string& name) const {
    return Quantile(Durations(op, name), 0.5);
  }
  double MedianSelfMs(const std::string& op, const std::string& name) const {
    return Quantile(SelfTimes(op, name), 0.5);
  }
  std::size_t Count(const std::string& op, const std::string& name) const {
    return Durations(op, name).size();
  }
  /// Spans of every name recorded for op kind `op`.
  std::size_t CountOp(const std::string& op) const;
  /// Measured cost of recording one span around an empty call.
  static double EmptySpanMs();

  /// One JSON object per line: name, op, op_id, parent, start/end ms.
  bool WriteJsonl(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Effort counters of one traced query op (last repetition).
struct QueryEffort {
  std::uint64_t rows = 0;
  std::uint64_t reply_bytes = 0;
  std::uint64_t nodes = 0;        ///< GenericJoin search nodes.
  std::uint64_t probes = 0;
  std::uint64_t simd_blocks = 0;  ///< Blocked intersection kernel calls.
  std::uint64_t heavy_tuples = 0; ///< Hybrid plan's Boolean-MM input.
  bool generic_join = false;
  bool transport_failed = false;  ///< Any repetition's loopback transfer.
};

/// A loopback TCP connection whose far end, on a thread of its own,
/// answers every request frame with preset reply bytes: the socket
/// transport of a served round trip with the work taken out. Both ends use
/// the server's and the client's socket settings and 64 KiB reads.
class LoopbackPeer {
 public:
  LoopbackPeer() = default;
  ~LoopbackPeer();
  LoopbackPeer(const LoopbackPeer&) = delete;
  LoopbackPeer& operator=(const LoopbackPeer&) = delete;

  bool Open(std::string* error);
  /// Makes `reply` the bytes the far end answers with; waits until it has
  /// finished sending the previous ones.
  void SetReply(const std::string& reply);
  /// Sends `request` (one encoded frame) and returns once every byte of
  /// the reply has come back; false on a socket error.
  bool RoundTrip(const std::string& request);

 private:
  void Serve();

  int near_ = -1;
  int far_ = -1;
  std::mutex mu_;
  std::condition_variable idle_;
  bool sending_ = false;  // Guarded by mu_.
  std::string reply_;     // Written under mu_ while !sending_.
  std::thread thread_;
};

/// What the decomposition calls into: the live server, a client connected
/// to it, a warm index cache for the in-process api/core/db calls, and a
/// loopback peer for the transport.
struct LayerProbe {
  qc::server::QueryServer* server = nullptr;
  qc::server::Client* client = nullptr;
  qc::db::IndexCache* cache = nullptr;
  SpanLog* log = nullptr;
  LoopbackPeer* peer = nullptr;
};

/// One outside-in repetition of a query op, with warm index caches. The
/// transport ("server.transport") is the request and the encoded reply
/// sent through the probe's LoopbackPeer.
void TraceQuery(const LayerProbe& probe, const std::string& op,
                std::uint64_t op_id, const std::string& text,
                QueryEffort* effort);

/// One outside-in repetition of a view read: client round trip,
/// HandleRequest, wire codec, and ViewRegistry::Read on `mirror`.
void TraceViewRead(const LayerProbe& probe, std::uint64_t op_id,
                   const std::string& view, const qc::db::ViewRegistry& mirror);

/// One outside-in repetition of a single-tuple mutate: a client round
/// trip applying `via_client`, HandleRequest applying `via_handle`, the
/// snapshot rebuild the writes force ("db.mvcc.snapshot_build", a side
/// span), and api::StageDataset of `via_handle`'s body on that snapshot.
void TraceMutate(const LayerProbe& probe, std::uint64_t op_id,
                 const Mutation& via_client, const Mutation& via_handle);

/// WAL append/sync cost: replays `records` through a fresh Wal opened on
/// `options` (an empty directory, the run's fsync policy), timing each
/// Append and a Sync after every `sync_every` appends.
void TraceWalAppends(SpanLog* log, const qc::db::WalOptions& options,
                     const std::vector<qc::db::WalRecord>& records,
                     int sync_every);

/// IVM delta cost: applies `mutations` to a private copy of `db` with the
/// same views registered and times each ViewRegistry::OnCommit. `mirror`
/// ends holding the views at the final state.
void TraceIvmCommits(SpanLog* log, const qc::db::Database& db,
                     const std::vector<qc::db::ViewDefinition>& views,
                     const std::vector<Mutation>& mutations,
                     qc::db::ViewRegistry* mirror);

/// Every per-layer metric name with its unit, in report order.
const std::vector<std::pair<std::string, std::string>>& LayerMetricTable();

/// Adds every metric of LayerMetricTable() to `result`, taking values
/// (and sample counts) from `values`; layers the workload never reaches
/// report 0 with 0 samples.
void AddLayerMetrics(
    const std::map<std::string, std::pair<double, std::uint64_t>>& values,
    RunResult* result);

}  // namespace qcbench

#endif  // QCBENCH_LAYERS_H_
