// Load generator of the qcbench harness: one thread and one qcp/1
// connection per stream, open loop (sends on a fixed schedule and times
// each request from when it was due) or closed loop (sends the next
// request when the previous reply is in).
#ifndef QCBENCH_LOAD_H_
#define QCBENCH_LOAD_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "server/client.h"

namespace qcbench {

/// What one request brought back; exactly one of the two is meaningful.
struct Reply {
  bool is_mutate = false;
  qc::server::QueryReply query;
  qc::server::MutateReply mutate;
};

/// One request of a phase. Times are ms from the phase start.
struct Sample {
  int op = 0;              ///< Index into the phase's op table.
  std::uint64_t arg = 0;   ///< Op argument (e.g. which mutation).
  double due_ms = 0;       ///< Scheduled send (closed loop: = sent_ms).
  double sent_ms = 0;
  double done_ms = 0;
  bool ok = false;         ///< Answered with code 0 and not rejected.
  bool rejected = false;   ///< Server refused (admission, draining, ...).
  std::uint64_t rows = 0;
  std::uint64_t epoch = 0;
  double queue_ms = 0;     ///< server.queue_ms of the per-request report.
  std::string method;      ///< Engine the router picked (hdr).
  bool planned = false;    ///< The report carries a hybrid planner section.
  double arena_bytes = 0;  ///< Per-request arena high-water mark.
  RowDigest digest;        ///< Reply rows (query-shaped replies).
  std::string error;       ///< Transport/decode failure text.

  double latency_ms() const { return done_ms - due_ms; }
  double round_trip_ms() const { return done_ms - sent_ms; }
};

struct OpDef {
  std::string name;
  /// Sends one request and waits for the whole reply.
  std::function<void(qc::server::Client&, std::uint64_t arg, Reply*)> send;
};

/// One connection's traffic. rate > 0: open loop, request k is due at
/// offset_s + k / rate; rate == 0: closed loop.
struct Stream {
  double rate = 0;
  double offset_s = 0;
  /// (op index, argument) of the stream's k-th request.
  std::function<std::pair<int, std::uint64_t>(std::uint64_t k)> next;
};

struct PhaseResult {
  double wall_s = 0;
  std::vector<std::vector<Sample>> samples;  ///< Per stream.
  /// Open loop only: how late sends left against their schedule.
  std::vector<double> lateness_ms;
  std::uint64_t connect_failures = 0;

  std::vector<const Sample*> Of(int op) const;
};

/// Runs every stream for `seconds` against host:port. Reply bodies are
/// digested (untimed) right after each request completes.
PhaseResult RunPhase(const std::string& host, int port,
                     const std::vector<OpDef>& ops,
                     const std::vector<Stream>& streams, double seconds);

/// Latency quantile over samples, failed ones counting as infinitely
/// late (they miss every limit); from the due time in an open loop.
double LatencyQuantile(const std::vector<const Sample*>& samples, double q);

}  // namespace qcbench

#endif  // QCBENCH_LOAD_H_
