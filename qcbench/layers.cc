#include "layers.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>

#include "api/query_api.h"
#include "api/wire.h"
#include "core/autosolver.h"
#include "db/generic_join.h"
#include "db/hybrid_join.h"
#include "db/parser.h"
#include "db/yannakakis.h"
#include "util/arena.h"
#include "util/budget.h"
#include "util/counters.h"

namespace qcbench {

namespace api = qc::api;

std::vector<double> SpanLog::Durations(const std::string& op,
                                       const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.op == op && s.name == name) out.push_back(s.end_ms - s.start_ms);
  }
  return out;
}

std::vector<double> SpanLog::SelfTimes(const std::string& op,
                                       const std::string& name) const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && !s.side) {
      child[static_cast<std::size_t>(s.parent)] += s.end_ms - s.start_ms;
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.op == op && s.name == name) {
      out.push_back(s.end_ms - s.start_ms - child[i]);
    }
  }
  return out;
}

std::size_t SpanLog::CountOp(const std::string& op) const {
  std::size_t n = 0;
  for (const Span& s : spans_) n += s.op == op ? 1 : 0;
  return n;
}

double SpanLog::EmptySpanMs() {
  constexpr int kSpans = 1000;
  SpanLog spans;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) spans.Time("empty", "empty", i, -1, [] {});
  return MsBetween(t0, Clock::now()) / kSpans;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"span\": %zu, \"name\": \"%s\", \"op\": \"%s\", "
                 "\"op_id\": %llu, \"parent\": %d, \"start_ms\": %.6f, "
                 "\"end_ms\": %.6f, \"side\": %s}\n",
                 i, s.name.c_str(), s.op.c_str(),
                 static_cast<unsigned long long>(s.op_id), s.parent,
                 s.start_ms, s.end_ms, s.side ? "true" : "false");
  }
  return std::fclose(f) == 0;
}

namespace {

/// Wire cost of a reply: encodes every frame, then decodes the bytes back
/// with a fresh FrameParser. Returns the encoded bytes.
std::string TraceCodec(SpanLog& log, const std::string& op,
                       std::uint64_t op_id, int parent,
                       const std::vector<api::Frame>& frames) {
  std::string wire;
  wire.reserve(1 << 16);
  log.Time("api.wire.encode", op, op_id, parent, [&] {
    for (const api::Frame& f : frames) wire += api::EncodeFrame(f);
  });
  // Fed in 64 KiB chunks, each parsed as far as it goes, like
  // server::Client's receive loop.
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  log.Time("api.wire.decode", op, op_id, parent, [&] {
    api::FrameParser parser;
    api::Frame frame;
    std::string error;
    for (std::size_t at = 0; at < wire.size(); at += kChunk) {
      parser.Feed(std::string_view(wire).substr(at, kChunk));
      while (parser.Next(&frame, &error) ==
             api::FrameParser::Result::kFrame) {
      }
    }
  });
  return wire;
}

bool SendAll(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void NoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

LoopbackPeer::~LoopbackPeer() {
  if (near_ >= 0) {
    ::shutdown(near_, SHUT_RDWR);  // Ends Serve()'s recv.
    ::close(near_);
  }
  if (thread_.joinable()) thread_.join();
  if (far_ >= 0) ::close(far_);
}

bool LoopbackPeer::Open(std::string* error) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  bool ok = listener >= 0 &&
            ::bind(listener, reinterpret_cast<sockaddr*>(&addr), len) == 0 &&
            ::listen(listener, 1) == 0 &&
            ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                          &len) == 0;
  if (ok) {
    near_ = ::socket(AF_INET, SOCK_STREAM, 0);
    ok = near_ >= 0 &&
         ::connect(near_, reinterpret_cast<sockaddr*>(&addr), len) == 0;
  }
  if (ok) {
    far_ = ::accept(listener, nullptr, nullptr);
    ok = far_ >= 0;
  }
  const int err = errno;
  if (listener >= 0) ::close(listener);
  if (!ok) {
    *error = std::string("loopback peer: ") + std::strerror(err);
    return false;
  }
  NoDelay(near_);
  NoDelay(far_);
  thread_ = std::thread([this] { Serve(); });
  return true;
}

void LoopbackPeer::Serve() {
  api::FrameParser parser;
  api::Frame frame;
  std::string error;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::recv(far_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    parser.Feed(buf, static_cast<std::size_t>(n));
    while (parser.Next(&frame, &error) == api::FrameParser::Result::kFrame) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        sending_ = true;
      }
      const bool sent = SendAll(far_, reply_.data(), reply_.size());
      {
        std::lock_guard<std::mutex> lock(mu_);
        sending_ = false;
      }
      idle_.notify_all();
      if (!sent) return;
    }
  }
}

void LoopbackPeer::SetReply(const std::string& reply) {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return !sending_; });
  reply_ = reply;
}

bool LoopbackPeer::RoundTrip(const std::string& request) {
  std::size_t expected;
  {
    std::lock_guard<std::mutex> lock(mu_);
    expected = reply_.size();
  }
  if (!SendAll(near_, request.data(), request.size())) return false;
  char buf[1 << 16];
  std::size_t received = 0;
  while (received < expected) {
    const ssize_t n = ::recv(near_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    received += static_cast<std::size_t>(n);
  }
  return true;
}

void TraceQuery(const LayerProbe& probe, const std::string& op,
                std::uint64_t op_id, const std::string& text,
                QueryEffort* effort) {
  SpanLog& log = *probe.log;
  // Every layer below runs with warm index caches: the untimed
  // ExecuteQuery fills this probe's cache for the current snapshot, and
  // the timed phase before the decomposition filled the server's.
  {
    api::QueryRequest warm;
    warm.query_text = text;
    warm.options.threads = 1;
    api::ExecuteQuery(warm, *probe.server->database().Snapshot().db,
                      probe.cache);
  }
  // Results are kept outside the spans so freeing them is not timed,
  // matching the server, which frees a reply after sending it. Each one is
  // freed before the next call, so every call starts from the same heap.
  qc::server::QueryReply reply;
  const int client = log.Time("server.client.round_trip", op, op_id, -1,
                              [&] { reply = probe.client->Query(text); });
  reply = qc::server::QueryReply{};

  api::Frame request;
  request.kind = "query";
  request.Add("id", std::to_string(op_id));
  request.body = text;
  std::vector<api::Frame> frames;
  const int handle = log.Time("server.handle", op, op_id, client, [&] {
    frames = probe.server->HandleRequest(request);
  });
  std::string wire = TraceCodec(log, op, op_id, client, frames);
  effort->reply_bytes = wire.size();
  effort->rows = frames.empty() ? 0 : frames.front().FindUint("rows", 0);
  const std::string request_wire = api::EncodeFrame(request);
  probe.peer->SetReply(wire);
  bool moved = false;
  log.Time("server.transport", op, op_id, client,
           [&] { moved = probe.peer->RoundTrip(request_wire); });
  effort->transport_failed |= !moved;
  frames = {};
  wire = {};

  qc::db::MvccSnapshot snapshot;
  log.Time("db.mvcc.snapshot", op, op_id, handle,
           [&] { snapshot = probe.server->database().Snapshot(); });
  const qc::db::Database& db = *snapshot.db;
  api::QueryRequest qreq;
  qreq.id = op_id;
  qreq.query_text = text;
  qreq.options.threads = 1;
  api::QueryResponse response;
  const int execute = log.Time("api.execute", op, op_id, handle, [&] {
    response = api::ExecuteQuery(qreq, db, probe.cache);
  });
  log.Time("util.report_json", op, op_id, handle,
           [&] { response.report.ToJson(); });
  response = api::QueryResponse{};

  std::optional<qc::db::JoinQuery> parsed;
  log.Time("db.parse", op, op_id, execute, [&] {
    auto result = qc::db::ParseJoinQuery(text);
    if (result) parsed = std::move(*result);
  });
  if (!parsed.has_value()) return;
  const qc::db::JoinQuery& query = *parsed;
  qc::util::Counters counters;
  qc::util::Arena arena;
  qc::ExecutionContext ctx;
  ctx.threads = 1;
  ctx.counters = &counters;
  ctx.index_cache = probe.cache;
  ctx.arena = &arena;
  ctx.budget = std::make_shared<qc::util::Budget>();
  qc::core::AutoQueryResult routed;
  const int route = log.Time("core.route", op, op_id, execute, [&] {
    routed = qc::core::EvaluateQueryAuto(query, db, ctx);
  });
  routed = qc::core::AutoQueryResult{};
  arena.Reset();

  // The engine calls the router makes, in its order.
  std::optional<qc::db::JoinResult> acyclic;
  log.Time("db.yannakakis", op, op_id, route, [&] {
    acyclic = qc::db::EvaluateYannakakis(query, db, nullptr, ctx.budget.get(),
                                         probe.cache, &arena);
  });
  if (acyclic.has_value()) return;
  qc::db::JoinResult joined;
  if (qc::db::DetectHybridPattern(query) != qc::db::HybridPattern::kNone) {
    std::optional<qc::db::HybridJoin> hybrid;
    bool take = false;
    log.Time("db.hybrid.plan", op, op_id, route, [&] {
      hybrid.emplace(query, db, ctx, 0);
      take = hybrid->applicable() && hybrid->ProfitableUnderAuto();
    });
    effort->heavy_tuples = hybrid->plan().heavy_tuples;
    if (take) {
      log.Time("db.hybrid.eval", op, op_id, route,
               [&] { joined = hybrid->Evaluate(); });
      return;
    }
  }
  effort->generic_join = true;
  std::optional<qc::db::GenericJoin> join;
  log.Time("db.generic_join.build_warm", op, op_id, route,
           [&] { join.emplace(query, db, ctx); });
  log.Time("db.generic_join.eval", op, op_id, route,
           [&] { joined = join->Evaluate(); });
  effort->nodes = join->stats().nodes;
  effort->probes = join->stats().probes;
  effort->simd_blocks = join->stats().simd_blocks;
  // Off the path: the same build with no index cache.
  qc::ExecutionContext cold = ctx;
  cold.index_cache = nullptr;
  log.Time("db.generic_join.build_cold", op, op_id, route,
           [&] { qc::db::GenericJoin rebuilt(query, db, cold); },
           /*side=*/true);
}

void TraceViewRead(const LayerProbe& probe, std::uint64_t op_id,
                   const std::string& view,
                   const qc::db::ViewRegistry& mirror) {
  SpanLog& log = *probe.log;
  const std::string op = "view_read";
  const int client = log.Time("server.client.round_trip", op, op_id, -1,
                              [&] { probe.client->ViewRead(view); });
  api::Frame request;
  request.kind = "view_read";
  request.Add("id", std::to_string(op_id));
  request.Add("name", view);
  std::vector<api::Frame> frames;
  const int handle = log.Time("server.handle", op, op_id, client, [&] {
    frames = probe.server->HandleRequest(request);
  });
  TraceCodec(log, op, op_id, client, frames);
  log.Time("db.ivm.read", op, op_id, handle, [&] { mirror.Read(view); });
}

void TraceMutate(const LayerProbe& probe, std::uint64_t op_id,
                 const Mutation& via_client, const Mutation& via_handle) {
  SpanLog& log = *probe.log;
  const std::string op = "mutate";
  const int client = log.Time("server.client.round_trip", op, op_id, -1, [&] {
    probe.client->Mutate(via_client.body, "", via_client.request_id);
  });
  api::Frame request;
  request.kind = "mutate";
  request.Add("id", std::to_string(op_id));
  request.Add("request_id", std::to_string(via_handle.request_id));
  request.body = via_handle.body;
  std::vector<api::Frame> frames;
  const int handle = log.Time("server.handle", op, op_id, client, [&] {
    frames = probe.server->HandleRequest(request);
  });
  TraceCodec(log, op, op_id, client, frames);
  // The first snapshot after a write rebuilds it; off the mutate's path.
  qc::db::MvccSnapshot snapshot;
  log.Time("db.mvcc.snapshot_build", op, op_id, -1,
           [&] { snapshot = probe.server->database().Snapshot(); },
           /*side=*/true);
  log.Time("api.dataset.stage", op, op_id, handle, [&] {
    api::StageDataset(via_handle.body, *snapshot.db, false);
  });
}

void TraceWalAppends(SpanLog* log, const qc::db::WalOptions& options,
                     const std::vector<qc::db::WalRecord>& records,
                     int sync_every) {
  qc::db::Wal wal;
  std::string error;
  if (!wal.Open(options, &error)) {
    std::fprintf(stderr, "qcbench: wal open %s: %s\n", options.dir.c_str(),
                 error.c_str());
    return;
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    log->Time("db.wal.append", "mutate", i, -1,
              [&] { wal.Append(records[i], &error); });
    if ((i + 1) % static_cast<std::size_t>(sync_every) == 0) {
      log->Time("db.wal.sync", "mutate", i, -1, [&] { wal.Sync(&error); });
    }
  }
  wal.Close();
}

void TraceIvmCommits(SpanLog* log, const qc::db::Database& db,
                     const std::vector<qc::db::ViewDefinition>& views,
                     const std::vector<Mutation>& mutations,
                     qc::db::ViewRegistry* mirror) {
  static const char* kNames[] = {"E", "R", "S"};
  qc::db::Database copy = db.Clone();
  for (const qc::db::ViewDefinition& def : views) {
    mirror->Register(def, copy, 0);
  }
  for (std::size_t k = 0; k < mutations.size(); ++k) {
    const std::string name = kNames[mutations[k].relation];
    const std::size_t old_size = copy.NumTuples(name);
    copy.AddTuple(name, mutations[k].tuple);
    const std::vector<qc::db::RelationDelta> deltas = {
        {name, qc::db::RelationDelta::Kind::kAppend, old_size}};
    log->Time("db.ivm.commit", "mutate", k, -1,
              [&] { mirror->OnCommit(copy, k + 1, deltas); });
  }
}

const std::vector<std::pair<std::string, std::string>>& LayerMetricTable() {
  static const std::vector<std::pair<std::string, std::string>> kTable = {
      {"server.client.round_trip_ms", "ms"},
      {"server.transport_ms", "ms"},
      {"server.handle_ms", "ms"},
      {"server.frame_build_ms", "ms"},
      {"server.reply_bytes_per_row", "B/row"},
      {"server.admission.queue_p50_ms", "ms"},
      {"server.admission.queue_p99_ms", "ms"},
      {"api.execute_ms", "ms"},
      {"api.wire.encode_ms", "ms"},
      {"api.wire.decode_ms", "ms"},
      {"api.dataset.stage_ms", "ms"},
      {"util.report_json_ms", "ms"},
      {"util.arena.high_water_bytes", "bytes"},
      {"core.route_ms", "ms"},
      {"db.parse_ms", "ms"},
      {"db.mvcc.snapshot_ms", "ms"},
      {"db.mvcc.snapshot_builds_per_query", "ratio"},
      {"db.hybrid.plan_ms", "ms"},
      {"db.hybrid.declined_share", "ratio"},
      {"db.hybrid.eval_ms", "ms"},
      {"kernels.boolmm.heavy_tuples", "count"},
      {"db.generic_join.build_cold_ms", "ms"},
      {"db.generic_join.build_warm_ms", "ms"},
      {"db.generic_join.eval_ms", "ms"},
      {"db.generic_join.nodes", "count"},
      {"db.generic_join.probes", "count"},
      {"kernels.intersect.blocks", "count"},
      {"db.generic_join.nodes_per_row", "ratio"},
      {"db.yannakakis_ms", "ms"},
      {"db.index_cache.hit_ratio", "ratio"},
      {"db.index_cache.evictions", "count"},
      {"db.wal.append_p50_ms", "ms"},
      {"db.wal.append_p99_ms", "ms"},
      {"db.wal.sync_p50_ms", "ms"},
      {"db.wal.sync_p99_ms", "ms"},
      {"db.wal.bytes_per_user_byte", "ratio"},
      {"db.wal.syncs", "count"},
      {"db.wal.compactions", "count"},
      {"db.wal.compact_ms", "ms"},
      {"db.wal.replay_ms", "ms"},
      {"db.wal.replay_records", "count"},
      {"db.ivm.commit_ms", "ms"},
      {"db.ivm.sweeps_per_update", "ratio"},
      {"db.ivm.full_recomputes", "count"},
      {"db.ivm.read_ms", "ms"},
      {"trace.overhead_ms", "ms"},
  };
  return kTable;
}

void AddLayerMetrics(
    const std::map<std::string, std::pair<double, std::uint64_t>>& values,
    RunResult* result) {
  for (const auto& [name, unit] : LayerMetricTable()) {
    auto it = values.find(name);
    if (it == values.end()) {
      result->Add(name, 0.0, unit, 0);
    } else {
      result->Add(name, it->second.first, unit, it->second.second);
    }
  }
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const auto& row : LayerMetricTable()) known |= row.first == name;
    if (!known) result->Fail("unlisted layer metric " + name);
  }
}

}  // namespace qcbench
