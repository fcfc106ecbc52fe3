#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "api/query_api.h"
#include "datasets.h"
#include "db/generic_join.h"
#include "db/parser.h"
#include "db/yannakakis.h"
#include "load.h"
#include "kernels/dispatch.h"
#include "layers.h"
#include "server/client.h"
#include "server/server.h"

namespace qcbench {

namespace {

namespace api = qc::api;
namespace server = qc::server;
namespace fs = std::filesystem;

// Server configuration shared by every workload.
constexpr int kConnections = 4;
constexpr std::uint64_t kIndexCacheMb = 32;
constexpr int kEngineThreads = 1;
// Set-up runs this many times per invocation and setup_s is their median;
// large_answer's warm-up query alone takes ~0.3 s, so it sets up fewer.
constexpr int kSetups = 9;
constexpr int kLargeSetups = 5;

// triangle_read: offered rate of the open-loop phase (35-40% of the
// closed-loop capacity measured on a 4-core x86 host), and the share of
// the run it takes; the closed-loop capacity phase takes the rest.
constexpr double kTriangleOfferedRps = 340;
constexpr double kOpenLoopShare = 0.6;

// ingest_views: per-connection offered rates, each 25% of what its
// connection completed when all four ran the mix closed loop on a 4-core
// x86 host (~1190 mutate/s per writer, ~170 view_read/s, ~136 query/s);
// then the WAL policy and a compaction threshold that compacts several
// times per run.
constexpr double kMutateRpsPerWriter = 300;
constexpr double kViewReadRps = 43;
constexpr double kIngestQueryRps = 34;
constexpr std::uint64_t kWalBatchBytes = std::uint64_t{1} << 20;
constexpr std::uint64_t kCompactBytes = std::uint64_t{64} << 10;
constexpr std::size_t kDedupWindow = std::size_t{1} << 20;
// Restarts after the run; recover_s is their median.
constexpr int kRecoveries = 3;

// Traced run: repetitions of each outside-in decomposition, bounded by a
// time budget per op.
constexpr int kTraceMinReps = 5;
constexpr int kTraceMaxReps = 200;
constexpr double kTraceSecondsPerOp = 2.0;
constexpr int kTraceIvmCommits = 600;
constexpr int kTraceWalRecords = 2048;
constexpr int kTraceWalSyncEvery = 64;

using Values = std::map<std::string, std::pair<double, std::uint64_t>>;

server::ServerOptions BaseOptions() {
  server::ServerOptions o;
  o.session.threads = kEngineThreads;
  o.session.index_cache_mb = kIndexCacheMb;
  o.session.hybrid = qc::HybridMode::kAuto;
  o.admission.max_concurrent = kConnections;
  o.admission.queue_capacity = 64;
  return o;
}

void Fingerprint(const Options& o, const std::string& fsync,
                 RunResult* result) {
  result->fingerprint = {
      {"workload", o.workload},
      {"seed", std::to_string(o.seed)},
      {"seconds", Format("%g", o.seconds)},
      {"trace", o.trace ? "1" : "0"},
      {"nproc", std::to_string(::sysconf(_SC_NPROCESSORS_ONLN))},
      {"simd", qc::kernels::SimdLevelName(qc::kernels::ActiveSimdLevel())},
      {"build_type", QCBENCH_BUILD_TYPE},
      {"engine_threads", std::to_string(kEngineThreads)},
      {"connections", std::to_string(kConnections)},
      {"fsync", fsync},
      {"index_cache_mb", std::to_string(kIndexCacheMb)},
  };
}

OpDef QueryOp(const std::string& name, const std::string& text) {
  return {name, [text](server::Client& c, std::uint64_t, Reply* r) {
            r->query = c.Query(text);
          }};
}

OpDef ViewReadOp(const std::string& name, const std::string& view) {
  return {name, [view](server::Client& c, std::uint64_t, Reply* r) {
            r->query = c.ViewRead(view);
          }};
}

OpDef MutateOp(const std::vector<Mutation>* mutations) {
  return {"mutate", [mutations](server::Client& c, std::uint64_t arg,
                                Reply* r) {
            const Mutation& m = (*mutations)[arg];
            r->is_mutate = true;
            r->mutate = c.Mutate(m.body, "", m.request_id);
          }};
}

/// Loads dataset text through api::LoadDataset inside one MVCC write
/// transaction; with `durable`, the text is also the transaction's WAL
/// record, so recovery replays it.
bool LoadDataset(server::QueryServer& srv, const std::string& text,
                 bool durable, std::string* error) {
  qc::db::WalRecord record;
  record.kind = qc::db::WalRecord::Kind::kDataset;
  if (durable) record.dataset = text;
  api::DatasetLoad load;
  qc::db::MutationResult r =
      srv.database().MutateLogged(record, [&](qc::db::Database& d) {
        load = api::LoadDataset(text, &d, false);
        return load.ok ? qc::db::MutationResult::Ok()
                       : qc::db::MutationResult::Fail("dataset rejected");
      });
  if (!r) *error = "dataset load failed: " + r.message;
  return static_cast<bool>(r);
}

double Seconds(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Per-op accounting of a phase, added to the run's totals and notes.
void Account(const PhaseResult& phase, const std::vector<OpDef>& ops,
             const std::string& label, RunResult* result) {
  for (std::size_t op = 0; op < ops.size(); ++op) {
    std::uint64_t attempted = 0, failed = 0, rejected = 0;
    for (const Sample* s : phase.Of(static_cast<int>(op))) {
      ++attempted;
      if (!s->ok) ++failed;
      if (s->rejected) ++rejected;
    }
    if (attempted == 0) continue;
    result->attempted += attempted;
    result->failed += failed;
    result->notes.push_back(Format(
        "%s %-10s attempted %llu failed %llu rejected %llu", label.c_str(),
        ops[op].name.c_str(), static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed),
        static_cast<unsigned long long>(rejected)));
  }
  if (phase.connect_failures > 0) {
    result->Fail(Format("%s: %llu connections failed", label.c_str(),
                        static_cast<unsigned long long>(
                            phase.connect_failures)));
  }
  for (const auto& stream : phase.samples) {
    for (const Sample& s : stream) {
      if (!s.ok) {
        result->Fail(label + " " + ops[static_cast<std::size_t>(s.op)].name +
                     " failed: " + s.error);
        return;
      }
    }
  }
}

/// The generator's lateness against its open-loop schedule.
void AddLateness(const PhaseResult& phase, RunResult* result) {
  if (phase.lateness_ms.empty()) return;
  const std::uint64_t n = phase.lateness_ms.size();
  result->Add("lateness_p99_ms", Quantile(phase.lateness_ms, 0.99), "ms", n);
  result->Add("lateness_max_ms",
              *std::max_element(phase.lateness_ms.begin(),
                                phase.lateness_ms.end()),
              "ms", n);
}

/// peak_rss_mb: the process's high-water RSS over the timed part (the
/// mark is reset after set-up), or over its whole life where the kernel
/// refuses the reset.
void AddPeakRss(bool reset, RunResult* result) {
  result->Add("peak_rss_mb", PeakRssMb(), "MB", 1);
  if (!reset) result->notes.push_back("peak RSS covers set-up too");
}

/// p50, p90 and (optionally) p99 of one op over the phase, timed from
/// due time.
void AddLatency(const std::vector<const Sample*>& samples,
                const std::string& prefix, bool p99, RunResult* result) {
  const std::uint64_t n = samples.size();
  result->Add(prefix + "_p50_ms", LatencyQuantile(samples, 0.5), "ms", n);
  result->Add(prefix + "_p90_ms", LatencyQuantile(samples, 0.9), "ms", n);
  if (p99) {
    result->Add(prefix + "_p99_ms", LatencyQuantile(samples, 0.99), "ms", n);
  }
}

/// Rows received and decoded per second of round trip: the median over
/// requests, failed ones counting as zero.
void AddRowsPerSecond(const std::vector<const Sample*>& samples,
                      RunResult* result) {
  std::vector<double> rates;
  for (const Sample* s : samples) {
    rates.push_back(s->ok ? double(s->rows) / (s->round_trip_ms() / 1000.0)
                          : 0.0);
  }
  result->Add("rows_per_s", Quantile(rates, 0.5), "rows/s", samples.size());
}

/// Checks every reply of op `op` against its reference digest.
void CheckDigests(const std::vector<const Sample*>& samples,
                  const std::string& op, const RowDigest& ref,
                  RunResult* result) {
  for (const Sample* s : samples) {
    if (s->ok && s->digest != ref) {
      result->Fail(Format("%s reply has %llu rows / digest %016llx, "
                          "reference %llu / %016llx",
                          op.c_str(),
                          static_cast<unsigned long long>(s->digest.rows),
                          static_cast<unsigned long long>(s->digest.sum),
                          static_cast<unsigned long long>(ref.rows),
                          static_cast<unsigned long long>(ref.sum)));
      return;
    }
  }
}

/// Digest of a single reply (warm-up requests, outside any phase).
RowDigest DigestOf(const server::QueryReply& reply) {
  RowDigest d;
  if (!DigestRowText(reply.row_text, reply.attributes.size(), &d)) d = {};
  return d;
}

bool ReplyOk(const server::QueryReply& r) {
  return r.ok && !r.rejected && r.code == 0;
}

/// Set-up route checks: each op must still reach the layer it exists for.
void CheckRoute(const std::string& op, const server::QueryReply& reply,
                const std::string& want, RunResult* result) {
  if (!ReplyOk(reply)) {
    result->Fail("warm-up " + op + " failed: " + reply.error + reply.reason);
    return;
  }
  const std::string& report = reply.report_json;
  const bool planned = report.find("\"planner\"") != std::string::npos;
  const bool delegated = JsonNumberIn(report, "planner", "delegated") != 0;
  bool ok = reply.method == (want == "declined" ? "generic-join" : want);
  if (want == "declined") ok = ok && planned && !delegated;
  if (want == "hybrid-join") {
    ok = ok && JsonNumberIn(report, "planner", "heavy_rows") > 0;
  }
  if (!ok) {
    result->Fail("route check: " + op + " ran " + reply.method +
                 (planned ? " (planner present)" : "") + ", expected " +
                 want);
  }
}

/// Server-wide counters from the `stats` frame.
struct ServerCounters {
  double queries = 0, cache_hits = 0, cache_misses = 0, evictions = 0;
  double snapshot_builds = 0, wal_bytes = 0, syncs = 0, compactions = 0;
  double ivm_updates = 0, sweeps = 0, full_recomputes = 0;

  /// What the counters grew by since `before`.
  ServerCounters Since(const ServerCounters& before) const {
    ServerCounters d;
    d.queries = queries - before.queries;
    d.cache_hits = cache_hits - before.cache_hits;
    d.cache_misses = cache_misses - before.cache_misses;
    d.evictions = evictions - before.evictions;
    d.snapshot_builds = snapshot_builds - before.snapshot_builds;
    d.wal_bytes = wal_bytes - before.wal_bytes;
    d.syncs = syncs - before.syncs;
    d.compactions = compactions - before.compactions;
    d.ivm_updates = ivm_updates - before.ivm_updates;
    d.sweeps = sweeps - before.sweeps;
    d.full_recomputes = full_recomputes - before.full_recomputes;
    return d;
  }
};

ServerCounters ReadStats(const std::string& host, int port,
                         RunResult* result) {
  ServerCounters c;
  server::Client client;
  std::string json, error;
  if (!client.Connect(host, port, &error) || !client.Stats(&json, &error)) {
    result->Fail("stats frame: " + error);
    return c;
  }
  c.queries = JsonNumber(json, "queries");
  c.cache_hits = JsonNumberIn(json, "cache", "hits");
  c.cache_misses = JsonNumberIn(json, "cache", "misses");
  c.evictions = JsonNumberIn(json, "cache", "evictions");
  c.snapshot_builds = JsonNumberIn(json, "mvcc", "snapshot_builds");
  c.wal_bytes = JsonNumberIn(json, "wal", "bytes_appended");
  c.syncs = JsonNumberIn(json, "wal", "syncs");
  c.compactions = JsonNumberIn(json, "wal", "compactions");
  c.ivm_updates = JsonNumberIn(json, "ivm", "updates");
  c.sweeps = JsonNumberIn(json, "ivm", "dirty_subtree_sweeps");
  c.full_recomputes = JsonNumberIn(json, "ivm", "full_recomputes");
  return c;
}

/// Layer counters every served workload reports in its traced run.
void CounterLayers(const ServerCounters& c,
                   const std::vector<const Sample*>& queries, Values* v) {
  std::vector<double> queue, arena;
  std::uint64_t planned = 0, declined = 0;
  for (const Sample* s : queries) {
    if (!s->ok) continue;
    queue.push_back(s->queue_ms);
    arena.push_back(s->arena_bytes);
    if (s->planned) {
      ++planned;
      if (s->method != "hybrid-join") ++declined;
    }
  }
  (*v)["server.admission.queue_p50_ms"] = {Quantile(queue, 0.5), queue.size()};
  (*v)["server.admission.queue_p99_ms"] = {Quantile(queue, 0.99),
                                           queue.size()};
  (*v)["util.arena.high_water_bytes"] = {Quantile(arena, 0.5), arena.size()};
  if (planned > 0) {
    (*v)["db.hybrid.declined_share"] = {double(declined) / double(planned),
                                        planned};
  }
  const double lookups = c.cache_hits + c.cache_misses;
  if (lookups > 0) {
    (*v)["db.index_cache.hit_ratio"] = {c.cache_hits / lookups,
                                        std::uint64_t(lookups)};
  }
  (*v)["db.index_cache.evictions"] = {c.evictions, 1};
  if (c.queries > 0) {
    (*v)["db.mvcc.snapshot_builds_per_query"] = {
        c.snapshot_builds / c.queries, std::uint64_t(c.queries)};
  }
}

/// Per-layer figures of one traced query op, from its spans.
void ChainLayers(const SpanLog& log, const std::string& op,
                 const QueryEffort& effort, Values* v, RunResult* result) {
  if (effort.transport_failed) {
    result->Fail("traced " + op + ": loopback transport failed");
  }
  std::vector<std::string>* notes = &result->notes;
  auto put = [&](const std::string& metric, const char* span, bool self) {
    const std::size_t n = log.Count(op, span);
    if (n == 0) return;
    (*v)[metric] = {self ? log.MedianSelfMs(op, span) : log.MedianMs(op, span),
                    n};
  };
  put("server.client.round_trip_ms", "server.client.round_trip", false);
  put("server.transport_ms", "server.transport", false);
  put("server.handle_ms", "server.handle", false);
  put("server.frame_build_ms", "server.handle", true);
  put("api.execute_ms", "api.execute", false);
  put("api.wire.encode_ms", "api.wire.encode", false);
  put("api.wire.decode_ms", "api.wire.decode", false);
  put("util.report_json_ms", "util.report_json", false);
  put("core.route_ms", "core.route", true);
  put("db.parse_ms", "db.parse", false);
  put("db.mvcc.snapshot_ms", "db.mvcc.snapshot", false);
  put("db.yannakakis_ms", "db.yannakakis", false);
  put("db.hybrid.plan_ms", "db.hybrid.plan", false);
  put("db.generic_join.build_warm_ms", "db.generic_join.build_warm", false);
  put("db.generic_join.build_cold_ms", "db.generic_join.build_cold", false);
  put("db.generic_join.eval_ms", "db.generic_join.eval", false);
  if (effort.rows > 0) {
    (*v)["server.reply_bytes_per_row"] = {
        double(effort.reply_bytes) / double(effort.rows), 1};
  }
  if (effort.generic_join) {
    (*v)["db.generic_join.nodes"] = {double(effort.nodes), 1};
    (*v)["db.generic_join.probes"] = {double(effort.probes), 1};
    (*v)["kernels.intersect.blocks"] = {double(effort.simd_blocks), 1};
    if (effort.rows > 0) {
      (*v)["db.generic_join.nodes_per_row"] = {
          double(effort.nodes) / double(effort.rows), 1};
    }
  }
  // Tracing overhead: the span bookkeeping one traced repetition of the
  // op adds (the timed phases themselves carry no spans).
  const double round_trip = log.MedianMs(op, "server.client.round_trip");
  const std::size_t reps = log.Count(op, "server.client.round_trip");
  if (reps > 0) {
    (*v)["trace.overhead_ms"] = {
        SpanLog::EmptySpanMs() * double(log.CountOp(op)) / double(reps), reps};
  }

  // Self times along the op's path; they add up to the round trip. The
  // round trip's own self time is what no layer below accounts for; it is
  // negative where the served stages overlap (the server sends each frame
  // while the client decodes the ones before).
  static const char* kPath[] = {
      "server.client.round_trip", "api.wire.encode", "api.wire.decode",
      "server.transport", "server.handle", "db.mvcc.snapshot",
      "util.report_json", "api.execute", "db.parse", "core.route",
      "db.yannakakis", "db.hybrid.plan", "db.hybrid.eval",
      "db.generic_join.build_warm", "db.generic_join.eval"};
  double sum = 0;
  notes->push_back("layer self times of op '" + op +
                   "' (median ms; the round trip's self time is unattributed,"
                   " negative where stages overlap):");
  for (const char* span : kPath) {
    if (log.Count(op, span) == 0) continue;
    const double self = log.MedianSelfMs(op, span);
    sum += self;
    notes->push_back(Format("  %-28s self %9.4f  total %9.4f", span, self,
                            log.MedianMs(op, span)));
  }
  notes->push_back(Format("  sum of self times %.4f ms = %.1f%% of the "
                          "%.4f ms round trip",
                          sum, round_trip > 0 ? 100.0 * sum / round_trip : 0,
                          round_trip));
}

/// Repeats `rep(i)` at least kTraceMinReps times, then until the per-op
/// time budget or the rep cap is hit.
template <typename Fn>
void Repeat(Fn&& rep) {
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kTraceMaxReps; ++i) {
    if (i >= kTraceMinReps && Seconds(t0) > kTraceSecondsPerOp) break;
    rep(static_cast<std::uint64_t>(i));
  }
}

void WriteSpans(const Options& o, const SpanLog& log, RunResult* result) {
  if (o.spans_out.empty()) return;
  if (!log.WriteJsonl(o.spans_out)) {
    result->Fail("cannot write spans to " + o.spans_out);
  } else {
    result->notes.push_back("spans written to " + o.spans_out);
  }
}

/// Runs `setup` `count` times, keeping the last server; adds setup_s.
template <typename Fn>
std::unique_ptr<server::QueryServer> TimedSetups(int count, Fn&& setup,
                                                 RunResult* result) {
  std::vector<double> times;
  std::unique_ptr<server::QueryServer> srv;
  for (int i = 0; i < count; ++i) {
    srv.reset();
    const Clock::time_point t0 = Clock::now();
    srv = setup(i == count - 1);
    times.push_back(Seconds(t0));
    if (srv == nullptr) return nullptr;
  }
  result->Add("setup_s", Quantile(times, 0.5), "s", times.size());
  return srv;
}

std::unique_ptr<server::QueryServer> StartServer(
    const server::ServerOptions& options, const std::string& dataset,
    bool durable, RunResult* result) {
  auto srv = std::make_unique<server::QueryServer>(options);
  std::string error;
  if (!srv->Recover(&error) || !LoadDataset(*srv, dataset, durable, &error) ||
      !srv->Start(&error)) {
    result->Fail("set-up: " + error);
    return nullptr;
  }
  return srv;
}

// ---------------------------------------------------------------------
// triangle_read

RunResult TriangleRead(const Options& o) {
  RunResult result;
  Fingerprint(o, "none (no WAL)", &result);
  const TriangleReadData data = MakeTriangleRead(o.seed);
  const std::string dataset = DatasetText(data.relations);
  const std::vector<RowDigest> refs = {
      ReferenceDigest(data.query, data.relations),
      ReferenceDigest(data.hub_query, data.relations)};
  const std::vector<OpDef> ops = {QueryOp("query", data.query),
                                  QueryOp("hub_query", data.hub_query)};
  const server::ServerOptions options = BaseOptions();

  auto srv = TimedSetups(
      kSetups, [&](bool last) -> std::unique_ptr<server::QueryServer> {
        auto s = StartServer(options, dataset, false, &result);
        if (s == nullptr) return nullptr;
        server::Client client;
        std::string error;
        if (!client.Connect(options.host, s->port(), &error)) {
          result.Fail("warm-up connect: " + error);
          return nullptr;
        }
        const server::QueryReply q = client.Query(data.query);
        const server::QueryReply h = client.Query(data.hub_query);
        if (last) {
          CheckRoute("query", q, "declined", &result);
          CheckRoute("hub_query", h, "hybrid-join", &result);
          if (DigestOf(q) != refs[0] || DigestOf(h) != refs[1]) {
            result.Fail("warm-up replies differ from the reference");
          }
        }
        return s;
      },
      &result);
  if (srv == nullptr) return result;
  // Traced runs count the server's counters over the timed part only.
  const ServerCounters before =
      o.trace ? ReadStats(options.host, srv->port(), &result)
              : ServerCounters{};
  const bool hwm_reset = ResetPeakRss();

  // 3:1 mix of query and hub_query, drawn from the seed.
  auto mix = [seed = o.seed](std::uint64_t stream, std::uint64_t k) {
    std::uint64_t x = (seed * 0x9e3779b97f4a7c15ULL) ^ (stream << 48) ^ k;
    x ^= x >> 31;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 29;
    return (x & 3) == 3 ? 1 : 0;
  };
  std::vector<Stream> open, closed;
  for (int i = 0; i < kConnections; ++i) {
    const double rate = kTriangleOfferedRps / kConnections;
    auto next = [mix, i](std::uint64_t k) {
      return std::make_pair(mix(std::uint64_t(i), k), std::uint64_t{0});
    };
    open.push_back({rate, double(i) / kTriangleOfferedRps, next});
    auto next_closed = [mix, i](std::uint64_t k) {
      return std::make_pair(mix(std::uint64_t(i) + 16, k), std::uint64_t{0});
    };
    closed.push_back({0, 0, next_closed});
  }
  const PhaseResult open_phase = RunPhase(
      options.host, srv->port(), ops, open, o.seconds * kOpenLoopShare);
  const PhaseResult closed_phase =
      RunPhase(options.host, srv->port(), ops, closed,
               o.seconds * (1 - kOpenLoopShare));
  AddPeakRss(hwm_reset, &result);

  Account(open_phase, ops, "open-loop", &result);
  Account(closed_phase, ops, "closed-loop", &result);
  for (const PhaseResult* phase : {&open_phase, &closed_phase}) {
    CheckDigests(phase->Of(0), "query", refs[0], &result);
    CheckDigests(phase->Of(1), "hub_query", refs[1], &result);
  }
  AddLatency(open_phase.Of(0), "query", true, &result);
  AddLatency(open_phase.Of(1), "hub_query", true, &result);
  std::uint64_t completed = 0;
  for (const auto& stream : closed_phase.samples) {
    for (const Sample& s : stream) completed += s.ok ? 1 : 0;
  }
  result.Add("query_capacity_rps", double(completed) / closed_phase.wall_s,
             "req/s", completed);
  std::vector<const Sample*> all_queries = open_phase.Of(0);
  for (const Sample* s : closed_phase.Of(0)) all_queries.push_back(s);
  AddRowsPerSecond(all_queries, &result);
  AddLateness(open_phase, &result);

  if (o.trace) {
    Values v;
    const ServerCounters counters =
        ReadStats(options.host, srv->port(), &result).Since(before);
    CounterLayers(counters, open_phase.Of(0), &v);
    SpanLog log;
    server::Client client;
    std::string error;
    client.Connect(options.host, srv->port(), &error);
    std::unique_ptr<qc::db::IndexCache> cache =
        options.session.MakeIndexCache();
    LoopbackPeer peer;
    if (!peer.Open(&error)) result.Fail(error);
    LayerProbe probe{srv.get(), &client, cache.get(), &log, &peer};
    QueryEffort effort, hub;
    Repeat([&](std::uint64_t i) {
      TraceQuery(probe, "query", i, data.query, &effort);
    });
    Repeat([&](std::uint64_t i) {
      TraceQuery(probe, "hub_query", i, data.hub_query, &hub);
    });
    ChainLayers(log, "query", effort, &v, &result);
    if (log.Count("hub_query", "db.hybrid.eval") > 0) {
      v["db.hybrid.eval_ms"] = {log.MedianMs("hub_query", "db.hybrid.eval"),
                                log.Count("hub_query", "db.hybrid.eval")};
      v["kernels.boolmm.heavy_tuples"] = {double(hub.heavy_tuples), 1};
    } else {
      result.Fail("traced hub_query did not take the Boolean-MM route");
    }
    AddLayerMetrics(v, &result);
    WriteSpans(o, log, &result);
  }
  return result;
}

// ---------------------------------------------------------------------
// large_answer

RunResult LargeAnswer(const Options& o) {
  RunResult result;
  Fingerprint(o, "none (no WAL)", &result);
  const LargeAnswerData data = MakeLargeAnswer(o.seed);
  const std::string dataset = DatasetText(data.relations);
  const RowDigest ref = ReferenceDigest(data.query, data.relations);
  const std::vector<OpDef> ops = {QueryOp("query", data.query)};
  const server::ServerOptions options = BaseOptions();

  auto srv = TimedSetups(
      kLargeSetups, [&](bool last) -> std::unique_ptr<server::QueryServer> {
        auto s = StartServer(options, dataset, false, &result);
        if (s == nullptr) return nullptr;
        server::Client client;
        std::string error;
        if (!client.Connect(options.host, s->port(), &error)) {
          result.Fail("warm-up connect: " + error);
          return nullptr;
        }
        const server::QueryReply q = client.Query(data.query);
        if (last) {
          CheckRoute("query", q, "yannakakis", &result);
          if (DigestOf(q) != ref) {
            result.Fail("warm-up reply differs from the reference");
          }
        }
        return s;
      },
      &result);
  if (srv == nullptr) return result;
  // Traced runs count the server's counters over the timed part only.
  const ServerCounters before =
      o.trace ? ReadStats(options.host, srv->port(), &result)
              : ServerCounters{};
  const bool hwm_reset = ResetPeakRss();

  const std::vector<Stream> streams = {
      {0, 0, [](std::uint64_t) { return std::make_pair(0, std::uint64_t{0}); }}};
  const PhaseResult phase =
      RunPhase(options.host, srv->port(), ops, streams, o.seconds);
  AddPeakRss(hwm_reset, &result);
  Account(phase, ops, "closed-loop", &result);
  CheckDigests(phase.Of(0), "query", ref, &result);
  // A run holds a few dozen requests: too few samples for a tail.
  result.Add("query_p50_ms", LatencyQuantile(phase.Of(0), 0.5), "ms",
             phase.Of(0).size());
  AddRowsPerSecond(phase.Of(0), &result);
  std::uint64_t completed = phase.Of(0).size();
  result.Add("query_capacity_rps", double(completed) / phase.wall_s, "req/s",
             completed);

  if (o.trace) {
    Values v;
    const ServerCounters counters =
        ReadStats(options.host, srv->port(), &result).Since(before);
    CounterLayers(counters, phase.Of(0), &v);
    SpanLog log;
    server::Client client;
    std::string error;
    client.Connect(options.host, srv->port(), &error);
    std::unique_ptr<qc::db::IndexCache> cache =
        options.session.MakeIndexCache();
    LoopbackPeer peer;
    if (!peer.Open(&error)) result.Fail(error);
    LayerProbe probe{srv.get(), &client, cache.get(), &log, &peer};
    QueryEffort effort;
    Repeat([&](std::uint64_t i) {
      TraceQuery(probe, "query", i, data.query, &effort);
    });
    ChainLayers(log, "query", effort, &v, &result);
    AddLayerMetrics(v, &result);
    WriteSpans(o, log, &result);
  }
  return result;
}

// ---------------------------------------------------------------------
// ingest_views

constexpr const char* kTriangleView = "triangles";
constexpr const char* kJoinView = "rs_join";

/// A view definition built the way the server rebuilds one from its WAL
/// record (arity 0 = join over `body`, 1 = triangle count over `body`).
qc::db::ViewDefinition ViewDef(const std::string& name, int kind,
                               const std::string& body) {
  qc::db::WalRecord record;
  record.kind = qc::db::WalRecord::Kind::kViewDef;
  record.relation = name;
  record.arity = kind;
  record.dataset = body;
  qc::db::ViewDefinition def;
  qc::db::ViewDefinitionFromRecord(record, &def);
  return def;
}

std::vector<qc::db::ViewDefinition> IngestViews(const IngestData& data) {
  return {ViewDef(kTriangleView, 1, data.relations[0].name),
          ViewDef(kJoinView, 0, data.join_view_query)};
}

RowDigest CountDigest(std::uint64_t count) {
  RowDigest d;
  const db::Value v = static_cast<db::Value>(count);
  d.Add(&v, 1);
  return d;
}

RowDigest RelationDigest(const qc::db::Database& d, const std::string& name) {
  RowDigest digest;
  const qc::db::FlatRelation& flat = d.Flat(name);
  for (std::size_t r = 0; r < flat.size(); ++r) {
    const db::Value row[2] = {flat.At(r, 0), flat.At(r, 1)};
    digest.Add(row, 2);
  }
  return digest;
}

RunResult Ingest(const Options& o) {
  RunResult result;
  Fingerprint(o, "batch (1 MiB)", &result);
  const std::uint64_t per_writer =
      static_cast<std::uint64_t>(std::ceil(kMutateRpsPerWriter * o.seconds)) +
      2;
  // Mutation 0 is the warm-up; writers take 1 + 2k + w; the traced run
  // uses the tail.
  const std::size_t trace_first = 1 + 2 * per_writer;
  const std::size_t trace_count = 2 * kTraceMaxReps + kTraceIvmCommits;
  const IngestData data = MakeIngest(o.seed, trace_first + trace_count);
  const std::string dataset = DatasetText(data.relations);
  const std::vector<qc::db::ViewDefinition> views = IngestViews(data);
  const std::vector<OpDef> ops = {
      QueryOp("query", data.query), MutateOp(&data.mutations),
      ViewReadOp("view_read", kTriangleView),
      ViewReadOp("view_read", kJoinView)};

  server::ServerOptions options = BaseOptions();
  options.wal.dir = o.work_dir + "/wal";
  options.wal.fsync = qc::db::FsyncPolicy::kBatch;
  options.wal.batch_bytes = kWalBatchBytes;
  options.wal.compact_bytes = kCompactBytes;
  options.dedup_window = kDedupWindow;

  // The reference before any insert, to check the warm-up replies.
  IngestReference initial(data);
  const RowDigest ref_triangles = ReferenceDigest(data.query, data.relations);
  if (initial.triangles() != ref_triangles ||
      initial.join() != ReferenceDigest(data.join_view_query,
                                        data.relations)) {
    result.Fail("incremental reference disagrees with GenericJoin");
  }

  std::uint64_t epoch_base = 0;
  std::vector<std::uint64_t> acked;  // Mutation indices acknowledged.
  auto srv = TimedSetups(
      kSetups, [&](bool last) -> std::unique_ptr<server::QueryServer> {
        std::error_code ec;
        fs::remove_all(options.wal.dir, ec);
        fs::create_directories(options.wal.dir, ec);
        auto s = std::make_unique<server::QueryServer>(options);
        std::string error;
        if (!s->Recover(&error) || !LoadDataset(*s, dataset, true, &error)) {
          result.Fail("set-up: " + error);
          return nullptr;
        }
        for (const qc::db::ViewDefinition& def : views) {
          qc::db::MutationResult r = s->database().RegisterView(def);
          if (!r) {
            result.Fail("view registration: " + r.message);
            return nullptr;
          }
        }
        const std::uint64_t base = s->database().Epoch();
        if (!s->Start(&error)) {
          result.Fail("set-up: " + error);
          return nullptr;
        }
        server::Client client;
        if (!client.Connect(options.host, s->port(), &error)) {
          result.Fail("warm-up connect: " + error);
          return nullptr;
        }
        const server::QueryReply q = client.Query(data.query);
        const server::QueryReply t = client.ViewRead(kTriangleView);
        const server::QueryReply j = client.ViewRead(kJoinView);
        const Mutation& m = data.mutations[0];
        const server::MutateReply w = client.Mutate(m.body, "", m.request_id);
        if (last) {
          epoch_base = base;
          if (!ReplyOk(q) || !ReplyOk(t) || !ReplyOk(j) || !w.ok ||
              w.rejected || w.code != 0) {
            result.Fail("warm-up request failed");
          } else if (DigestOf(q) != initial.triangles() ||
                     DigestOf(t) != CountDigest(initial.triangles().rows) ||
                     DigestOf(j) != initial.join()) {
            result.Fail("warm-up replies differ from the reference");
          }
          acked.push_back(0);
        }
        return s;
      },
      &result);
  if (srv == nullptr) return result;
  // Traced runs count the server's counters over the timed part only.
  const ServerCounters before =
      o.trace ? ReadStats(options.host, srv->port(), &result)
              : ServerCounters{};
  const bool hwm_reset = ResetPeakRss();

  std::vector<Stream> streams;
  for (int w = 0; w < 2; ++w) {
    streams.push_back({kMutateRpsPerWriter, w * 0.5 / kMutateRpsPerWriter,
                       [w](std::uint64_t k) {
                         return std::make_pair(
                             1, std::uint64_t(1 + 2 * k + std::uint64_t(w)));
                       }});
  }
  streams.push_back({kViewReadRps, 0.3 / kViewReadRps, [](std::uint64_t k) {
                       return std::make_pair(2 + int(k % 2), std::uint64_t{0});
                     }});
  streams.push_back({kIngestQueryRps, 0.7 / kIngestQueryRps, [](std::uint64_t) {
                       return std::make_pair(0, std::uint64_t{0});
                     }});
  const PhaseResult phase =
      RunPhase(options.host, srv->port(), ops, streams, o.seconds);
  AddPeakRss(hwm_reset, &result);
  Account(phase, ops, "open-loop", &result);
  for (const Sample* s : phase.Of(1)) {
    if (s->ok) acked.push_back(s->arg);
  }
  AddLatency(phase.Of(0), "query", true, &result);
  AddLatency(phase.Of(1), "mutate", false, &result);
  std::vector<const Sample*> view_reads = phase.Of(2);
  for (const Sample* s : phase.Of(3)) view_reads.push_back(s);
  AddLatency(view_reads, "view_read", false, &result);
  AddRowsPerSecond(phase.Of(0), &result);
  AddLateness(phase, &result);

  Values v;
  SpanLog log;
  if (o.trace) {
    const ServerCounters c =
        ReadStats(options.host, srv->port(), &result).Since(before);
    CounterLayers(c, phase.Of(0), &v);
    // WAL bytes appended per byte of mutate body acknowledged in the phase.
    std::uint64_t user_bytes = 0, mutates = 0;
    for (const Sample* s : phase.Of(1)) {
      if (!s->ok) continue;
      user_bytes += data.mutations[s->arg].body.size();
      ++mutates;
    }
    if (user_bytes > 0) {
      v["db.wal.bytes_per_user_byte"] = {c.wal_bytes / double(user_bytes),
                                         mutates};
    }
    v["db.wal.syncs"] = {c.syncs, 1};
    v["db.wal.compactions"] = {c.compactions, 1};
    v["db.ivm.full_recomputes"] = {c.full_recomputes, 1};
    if (c.ivm_updates > 0) {
      v["db.ivm.sweeps_per_update"] = {c.sweeps / c.ivm_updates,
                                       std::uint64_t(c.ivm_updates)};
    }

    server::Client client;
    std::string error;
    client.Connect(options.host, srv->port(), &error);
    std::unique_ptr<qc::db::IndexCache> cache =
        options.session.MakeIndexCache();
    LoopbackPeer peer;
    if (!peer.Open(&error)) result.Fail(error);
    LayerProbe probe{srv.get(), &client, cache.get(), &log, &peer};
    // IVM deltas on a private copy holding the same views; its registry
    // then stands in for the server's in the view-read decomposition.
    qc::db::ViewRegistry mirror;
    const std::vector<Mutation> ivm_batch(
        data.mutations.begin() + trace_first + 2 * kTraceMaxReps,
        data.mutations.end());
    TraceIvmCommits(&log, *srv->database().Snapshot().db, views, ivm_batch,
                    &mirror);
    // Each repetition: a mutate (two inserts), the snapshot rebuild it
    // forces, the triangle query over the new snapshot, and a view read.
    QueryEffort effort;
    Repeat([&](std::uint64_t i) {
      const Mutation& a = data.mutations[trace_first + 2 * i];
      const Mutation& b = data.mutations[trace_first + 2 * i + 1];
      TraceMutate(probe, i, a, b);
      acked.push_back(trace_first + 2 * i);
      acked.push_back(trace_first + 2 * i + 1);
      TraceQuery(probe, "query", i, data.query, &effort);
      TraceViewRead(probe, i, i % 2 == 0 ? kTriangleView : kJoinView, mirror);
    });
    ChainLayers(log, "query", effort, &v, &result);
    // Under writes every query pins a freshly built snapshot.
    v["db.mvcc.snapshot_ms"] = {log.MedianMs("mutate", "db.mvcc.snapshot_build"),
                                log.Count("mutate", "db.mvcc.snapshot_build")};
    v["api.dataset.stage_ms"] = {log.MedianMs("mutate", "api.dataset.stage"),
                                 log.Count("mutate", "api.dataset.stage")};
    v["db.ivm.commit_ms"] = {log.MedianMs("mutate", "db.ivm.commit"),
                             log.Count("mutate", "db.ivm.commit")};
    v["db.ivm.read_ms"] = {log.MedianMs("view_read", "db.ivm.read"),
                           log.Count("view_read", "db.ivm.read")};

    // WAL append/sync on a fresh directory under the same policy.
    std::vector<qc::db::WalRecord> records;
    for (std::size_t i = 0; i < data.mutations.size() &&
                            records.size() < std::size_t(kTraceWalRecords);
         ++i) {
      qc::db::WalRecord r;
      r.kind = qc::db::WalRecord::Kind::kDataset;
      r.request_id = data.mutations[i].request_id;
      r.dataset = data.mutations[i].body;
      records.push_back(std::move(r));
    }
    qc::db::WalOptions wal_trace = options.wal;
    wal_trace.dir = o.work_dir + "/wal_trace";
    std::error_code ec;
    fs::remove_all(wal_trace.dir, ec);
    fs::create_directories(wal_trace.dir, ec);
    TraceWalAppends(&log, wal_trace, records, kTraceWalSyncEvery);
    for (const char* span : {"append", "sync"}) {
      const std::string name = std::string("db.wal.") + span;
      const std::vector<double> d = log.Durations("mutate", name);
      v[name + "_p50_ms"] = {Quantile(d, 0.5), d.size()};
      v[name + "_p99_ms"] = {Quantile(d, 0.99), d.size()};
    }
    // Compaction of the current state into a private WAL directory.
    {
      qc::db::WalOptions wal_compact = options.wal;
      wal_compact.dir = o.work_dir + "/wal_compact";
      fs::remove_all(wal_compact.dir, ec);
      fs::create_directories(wal_compact.dir, ec);
      qc::db::Wal wal;
      if (!wal.Open(wal_compact, &error)) {
        result.Fail("compaction wal: " + error);
      } else {
        qc::db::MvccDatabase copy;
        const auto snap = srv->database().Snapshot();
        for (const char* name : {"E", "R", "S"}) {
          copy.SetRelation(name, snap.db->Flat(name));
        }
        copy.AttachWal(&wal);
        std::vector<std::uint64_t> ids;
        for (std::uint64_t idx : acked) {
          ids.push_back(data.mutations[idx].request_id);
        }
        for (int i = 0; i < 3; ++i) {
          log.Time("db.wal.compact", "mutate", std::uint64_t(i), -1,
                   [&] { copy.CompactWal(ids); });
        }
        v["db.wal.compact_ms"] = {log.MedianMs("mutate", "db.wal.compact"), 3};
      }
      fs::remove_all(wal_compact.dir, ec);
    }
    fs::remove_all(wal_trace.dir, ec);
  }

  // Stop, then read the commit order back from the WAL: the server keeps
  // every applied request id (its dedup window is larger than the run).
  const std::uint64_t final_epoch = srv->database().Epoch();
  srv.reset();
  std::vector<std::uint64_t> order;
  std::uint64_t replay_records = 0;
  {
    const Clock::time_point t0 = Clock::now();
    qc::db::WalRecovery replay = qc::db::Wal::Replay(
        options.wal,
        [](const qc::db::WalRecord&) { return qc::db::MutationResult::Ok(); });
    const double replay_ms = MsBetween(t0, Clock::now());
    if (!replay.ok) {
      result.Fail("wal replay: " + replay.error);
      return result;
    }
    order = replay.request_ids;
    replay_records = replay.snapshot_records + replay.log_records;
    v["db.wal.replay_ms"] = {replay_ms, 1};
    v["db.wal.replay_records"] = {double(replay_records), 1};
  }

  // Restart on the same directory.
  std::vector<double> recover_s;
  std::unique_ptr<server::QueryServer> recovered;
  for (int i = 0; i < kRecoveries; ++i) {
    recovered.reset();
    const Clock::time_point t0 = Clock::now();
    recovered = std::make_unique<server::QueryServer>(options);
    std::string error;
    if (!recovered->Recover(&error) || !recovered->Start(&error)) {
      result.Fail("restart: " + error);
      return result;
    }
    recover_s.push_back(Seconds(t0));
  }
  result.Add("recover_s", Quantile(recover_s, 0.5), "s", recover_s.size());

  // Gate 1: the WAL's commit order holds exactly the acknowledged inserts.
  const std::uint64_t id_base = data.mutations[0].request_id;
  std::vector<std::uint64_t> committed;
  std::unordered_set<std::uint64_t> seen;
  for (std::uint64_t id : order) {
    const std::uint64_t idx = id - id_base;
    if (id < id_base || idx >= data.mutations.size() ||
        !seen.insert(idx).second) {
      result.Fail(Format("unexpected request id %llu in the WAL",
                         static_cast<unsigned long long>(id)));
      return result;
    }
    committed.push_back(idx);
  }
  std::unordered_set<std::uint64_t> acked_set(acked.begin(), acked.end());
  // The per-epoch checks below replay the commits in the WAL's order, so
  // they need every acknowledged insert's request id in it.
  const bool order_complete = acked_set == seen;
  if (!order_complete) {
    std::uint64_t missing = 0;
    for (std::uint64_t idx : acked_set) {
      if (seen.count(idx) == 0) {
        missing = data.mutations[idx].request_id;
        break;
      }
    }
    result.Fail(Format("the WAL's request ids hold %zu inserts, %zu were "
                       "acknowledged (e.g. request id %llu is missing); the "
                       "per-epoch checks are skipped",
                       seen.size(), acked_set.size(),
                       static_cast<unsigned long long>(missing)));
  } else if (final_epoch != epoch_base + committed.size()) {
    result.Fail(Format("final epoch %llu, expected %llu",
                       static_cast<unsigned long long>(final_epoch),
                       static_cast<unsigned long long>(epoch_base +
                                                       committed.size())));
  }

  // Gate 2: the recovered relations are the initial rows plus exactly the
  // acknowledged inserts.
  {
    const auto snap = recovered->database().Snapshot();
    static const char* kNames[] = {"E", "R", "S"};
    for (int rel = 0; rel < 3; ++rel) {
      RowDigest want = DigestTuples(data.relations[rel].rows);
      for (std::uint64_t idx : acked_set) {
        if (data.mutations[idx].relation == rel) {
          want.Add(data.mutations[idx].tuple);
        }
      }
      if (!snap.db->HasRelation(kNames[rel]) ||
          RelationDigest(*snap.db, kNames[rel]) != want) {
        result.Fail(std::string("recovered relation ") + kNames[rel] +
                    " differs from the acknowledged inserts");
      }
    }
  }

  // Gate 3: every query and view read equals the reference at the epoch it
  // reports (epoch_base + j = after the first j commits).
  if (order_complete) {
    std::vector<RowDigest> tri(committed.size() + 1);
    std::vector<RowDigest> join(committed.size() + 1);
    {
      IngestReference ref(data);
      tri[0] = ref.triangles();
      join[0] = ref.join();
      for (std::size_t j = 0; j < committed.size(); ++j) {
        ref.Apply(data.mutations[committed[j]]);
        tri[j + 1] = ref.triangles();
        join[j + 1] = ref.join();
      }
      // The reference's final state against the engines on the recovered db.
      const auto snap = recovered->database().Snapshot();
      std::vector<Relation> now;
      for (const char* name : {"E", "R", "S"}) {
        Relation r{name, snap.db->Tuples(name)};
        now.push_back(std::move(r));
      }
      if (ReferenceDigest(data.query, now) != tri.back() ||
          ReferenceDigest(data.join_view_query, now) != join.back()) {
        result.Fail("final reference state disagrees with GenericJoin");
      }
    }
    auto at = [&](const Sample* s, std::size_t* j) {
      if (s->epoch < epoch_base || s->epoch - epoch_base > committed.size()) {
        return false;
      }
      *j = static_cast<std::size_t>(s->epoch - epoch_base);
      return true;
    };
    for (int op : {0, 2, 3}) {
      for (const Sample* s : phase.Of(op)) {
        if (!s->ok) continue;
        std::size_t j = 0;
        const bool known = at(s, &j);
        const RowDigest want = !known     ? RowDigest{}
                               : op == 0 ? tri[j]
                               : op == 2 ? CountDigest(tri[j].rows)
                                         : join[j];
        if (!known || s->digest != want) {
          result.Fail(Format("%s at epoch %llu differs from the reference",
                             op == 0 ? "query" : "view_read",
                             static_cast<unsigned long long>(s->epoch)));
          break;
        }
      }
    }
  }
  recovered.reset();
  std::error_code ec;
  fs::remove_all(options.wal.dir, ec);
  result.notes.push_back(Format(
      "ingest: %zu inserts committed, %llu WAL records replayed",
      committed.size(), static_cast<unsigned long long>(replay_records)));

  if (o.trace) {
    AddLayerMetrics(v, &result);
    WriteSpans(o, log, &result);
  }
  return result;
}

}  // namespace

const char* WorkloadNames() { return "triangle_read large_answer ingest_views"; }

RunResult RunWorkload(const Options& options) {
  if (options.workload == "triangle_read") return TriangleRead(options);
  if (options.workload == "large_answer") return LargeAnswer(options);
  if (options.workload == "ingest_views") return Ingest(options);
  RunResult result;
  result.Fail("unknown workload '" + options.workload + "' (known: " +
              WorkloadNames() + ")");
  return result;
}

}  // namespace qcbench
