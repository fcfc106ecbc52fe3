#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <string_view>

#include "util/fault.h"
#include "util/json.h"

namespace qc::server {

namespace {

/// Request option fields a client may set per query. Everything else on
/// the SessionOptions surface (report paths, cache sizing, input-error
/// policy) is server configuration and is rejected per-request.
bool IsPerQueryOption(const std::string& key) {
  return key == "deadline_ms" || key == "max_rows" || key == "threads" ||
         key == "hybrid" || key == "hybrid_delta";
}

/// Codes a client may retry after backoff: admission pushback (8/9), the
/// draining/cancelled rejection (6), and internal resource failures (7).
/// Input and protocol errors (1-3) and deadline/budget trips (4/5) will
/// fail identically on a retry, so they are final.
bool IsRetryableCode(int code) {
  return code == 6 || code == 7 || code == kAdmissionRejectedCode ||
         code == kAdmissionTimeoutCode;
}

/// `retryable`: -1 = derive from the code, 0/1 = explicit override (the
/// queue-deadline shed reuses the deadline code 4 but IS retryable — the
/// queue, not the query, consumed the budget).
api::Frame ErrorFrame(std::uint64_t id, int code, const std::string& reason,
                      const std::string& message, int retryable = -1) {
  api::Frame frame;
  frame.kind = "error";
  frame.Add("id", std::to_string(id));
  frame.Add("code", std::to_string(code));
  frame.Add("reason", reason);
  const bool retry = retryable < 0 ? IsRetryableCode(code) : retryable != 0;
  frame.Add("retryable", retry ? "1" : "0");
  frame.Add("message", message);
  return frame;
}

bool SendAll(int fd, std::string_view data) {
  if (util::FaultsEnabled() && util::FaultPoint("socket.write")) {
    return false;  // Injected connection failure: caller drops the conn.
  }
  std::size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Longest decimal form of a db::Value: "-9223372036854775808".
constexpr std::size_t kMaxValueChars = 20;

/// Writes one row as its batch-body line at `out` and returns the end: the
/// values in std::to_string's decimal form, space-separated, then '\n'.
/// `out` must have room for arity * (kMaxValueChars + 1) + 1 bytes.
char* WriteRowLine(const db::Value* row, int arity, char* out) {
  for (int c = 0; c < arity; ++c) {
    if (c > 0) *out++ = ' ';
    out = std::to_chars(out, out + kMaxValueChars, row[c]).ptr;
  }
  *out++ = '\n';
  return out;
}

/// One connection's reply writer: frames are encoded into a reused buffer
/// of at most QueryServer::kWriteBufferBytes, which goes out with SendAll
/// when the next frame would overflow it and on Flush() at the end of
/// every reply. A frame larger than the whole buffer is written through.
/// After the first failed send every call returns false.
class FrameWriter {
 public:
  explicit FrameWriter(int fd) : fd_(fd) {
    buf_.reserve(QueryServer::kWriteBufferBytes);
  }

  bool Write(const api::Frame& frame) {
    if (failed_) return false;
    header_.clear();
    api::AppendFrameHeader(frame, &header_);
    const std::size_t size = header_.size() + frame.body.size();
    if (buf_.size() + size > QueryServer::kWriteBufferBytes && !Flush()) {
      return false;
    }
    if (size > QueryServer::kWriteBufferBytes) {
      failed_ = !SendAll(fd_, header_) || !SendAll(fd_, frame.body);
      return !failed_;
    }
    buf_ += header_;
    buf_ += frame.body;
    return true;
  }

  bool Flush() {
    if (failed_) return false;
    if (!buf_.empty()) failed_ = !SendAll(fd_, buf_);
    buf_.clear();
    return !failed_;
  }

 private:
  int fd_;
  std::string buf_;
  std::string header_;
  bool failed_ = false;
};

}  // namespace

QueryServer::QueryServer(const ServerOptions& options)
    : options_(options),
      cache_(options.session.MakeIndexCache()),
      admission_(options.admission) {
  // Always attached: with no registered views the per-mutation cost is one
  // empty() check, and view_register frames need the hookup in place.
  mvcc_.AttachViews(&views_);
}

QueryServer::~QueryServer() { Stop(); }

bool QueryServer::Recover(std::string* error) {
  if (options_.wal.dir.empty()) return true;

  // Replay the durable state into the database. Structured records go
  // through the (not yet logging) MvccDatabase ops; dataset records go
  // through the exact LoadDataset path their original mutate frames took.
  // View definitions are stashed and rebuilt only after the data replay
  // finishes — a view registers against the final recovered state, and
  // with the WAL still detached nothing is re-logged.
  std::vector<db::WalRecord> view_defs;
  db::WalRecovery recovered = db::Wal::Replay(
      options_.wal, [this, &view_defs](const db::WalRecord& record) {
        switch (record.kind) {
          case db::WalRecord::Kind::kSetRelation:
            return mvcc_.SetRelation(record.relation, record.arity,
                                     record.tuples);
          case db::WalRecord::Kind::kAddTuples:
            return mvcc_.AddTuples(record.relation, record.tuples);
          case db::WalRecord::Kind::kDataset: {
            // Same staged in-place path live mutate frames take (the WAL
            // is not attached yet, so nothing is re-logged). Replaying a
            // long ingest log this way is O(total rows); the old
            // clone-per-record form made recovery time quadratic in the
            // log length.
            api::DatasetStaging staging;
            return mvcc_.MutateLoggedInPlace(
                record,
                [&](const db::Database& live) {
                  staging = api::StageDataset(record.dataset, live,
                                              record.continue_on_error);
                  return staging.load.ok
                             ? db::MutationResult::Ok()
                             : db::MutationResult::Fail("dataset rejected");
                },
                [&](db::Database& live) {
                  return api::ApplyDataset(&staging, &live);
                });
          }
          case db::WalRecord::Kind::kDedup:
            break;  // Consumed by Replay itself.
          case db::WalRecord::Kind::kViewDef:
            view_defs.push_back(record);
            break;
        }
        return db::MutationResult::Ok();
      });
  if (!recovered.ok) {
    *error = "wal recovery failed: " + recovered.error;
    return false;
  }
  for (std::uint64_t id : recovered.request_ids) RememberRequestId(id);

  // Rebuild registered views from the recovered data. Lenient on purpose:
  // view state is derived (the data replay above stays strict), so a
  // definition that no longer validates is counted and skipped rather
  // than refusing to serve the store.
  std::uint64_t views_rebuilt = 0;
  std::uint64_t views_failed = 0;
  for (const db::WalRecord& record : view_defs) {
    db::ViewDefinition def;
    db::MutationResult r = db::ViewDefinitionFromRecord(record, &def);
    if (r && views_.Has(def.name)) continue;  // Snapshot + log duplicate.
    if (r) r = mvcc_.RegisterView(def);
    if (r) {
      ++views_rebuilt;
    } else {
      ++views_failed;
    }
  }

  if (!wal_.Open(options_.wal, error)) return false;
  mvcc_.AttachWal(&wal_);

  std::lock_guard<std::mutex> lock(recovery_mu_);
  recovery_.ran = true;
  recovery_.view_defs = view_defs.size();
  recovery_.views_rebuilt = views_rebuilt;
  recovery_.views_failed = views_failed;
  static_cast<db::WalReplayCounts&>(recovery_) = recovered;
  recovery_.request_ids = recovered.request_ids.size();
  return true;
}

RecoveryInfo QueryServer::recovery() const {
  std::lock_guard<std::mutex> lock(recovery_mu_);
  return recovery_;
}

bool QueryServer::SeenRequestId(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(dedup_mu_);
  return dedup_set_.count(id) != 0;
}

void QueryServer::RememberRequestId(std::uint64_t id) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(dedup_mu_);
  if (!dedup_set_.insert(id).second) return;
  dedup_order_.push_back(id);
  while (dedup_order_.size() > options_.dedup_window) {
    dedup_set_.erase(dedup_order_.front());
    dedup_order_.pop_front();
  }
}

std::vector<std::uint64_t> QueryServer::DedupWindow() const {
  std::lock_guard<std::mutex> lock(dedup_mu_);
  return {dedup_order_.begin(), dedup_order_.end()};
}

void QueryServer::HandleRequest(const api::Frame& request,
                                const FrameSink& sink) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t id = request.FindUint("id", 0);
  // Draining: in-flight work keeps going, new work gets a retryable
  // rejection. Health, stats and ping stay up so orchestration can watch.
  if (draining() &&
      (request.kind == "query" || request.kind == "mutate" ||
       request.kind == "view_register" || request.kind == "view_read")) {
    drain_rejects_.fetch_add(1, std::memory_order_relaxed);
    sink(ErrorFrame(id, 6, "server-draining",
                    "server is draining; retry against a serving "
                    "instance"));
    return;
  }
  if (request.kind == "query") {
    HandleQuery(request, sink);
  } else if (request.kind == "view_read") {
    HandleViewRead(request, sink);
  } else if (request.kind == "mutate") {
    sink(HandleMutate(request));
  } else if (request.kind == "view_register") {
    sink(HandleViewRegister(request));
  } else if (request.kind == "ping") {
    api::Frame pong;
    pong.kind = "pong";
    pong.Add("id", std::to_string(id));
    sink(pong);
  } else if (request.kind == "health") {
    sink(HandleHealth(id));
  } else if (request.kind == "stats") {
    api::Frame reply;
    reply.kind = "stats-reply";
    reply.Add("id", std::to_string(id));
    reply.body = StatsJson();
    sink(reply);
  } else if (request.kind == "shutdown") {
    Drain();  // In-flight work finishes; new work is rejected retryably.
    shutdown_requested_.store(true, std::memory_order_relaxed);
    CloseListener();  // Unblocks the accept loop; Wait() returns.
    api::Frame end;
    end.kind = "end";
    end.Add("id", std::to_string(id));
    end.Add("code", "0");
    sink(end);
  } else {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    sink(ErrorFrame(id, 2, "bad-request",
                    "unknown request kind '" + request.kind + "'"));
  }
}

std::vector<api::Frame> QueryServer::HandleRequest(
    const api::Frame& request) {
  std::vector<api::Frame> frames;
  HandleRequest(request, [&frames](const api::Frame& frame) {
    frames.push_back(frame);
    return true;
  });
  return frames;
}

api::Frame QueryServer::HandleHealth(std::uint64_t id) const {
  api::Frame reply;
  reply.kind = "health-reply";
  reply.Add("id", std::to_string(id));
  reply.Add("status", draining() ? "draining" : "serving");
  reply.Add("epoch", std::to_string(mvcc_.Epoch()));
  reply.Add("wal", wal_.is_open() ? "1" : "0");
  if (wal_.is_open()) {
    reply.Add("wal_bytes", std::to_string(wal_.log_bytes()));
    reply.Add("fsync", db::ToString(wal_.options().fsync));
  }
  AdmissionStats adm = admission_.stats();
  reply.Add("running", std::to_string(adm.running));
  reply.Add("queued", std::to_string(adm.queued));
  return reply;
}

void QueryServer::HandleQuery(const api::Frame& request,
                              const FrameSink& sink) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t id = request.FindUint("id", 0);

  api::QueryRequest qreq;
  qreq.id = id;
  qreq.query_text = request.body;
  qreq.options = options_.session;
  qreq.options.report_json.clear();  // Per-request reports travel on the wire.
  for (const auto& [key, value] : request.fields) {
    if (key == "id") continue;
    if (key == "want_analysis") {
      qreq.want_analysis = value == "1" || value == "true";
      continue;
    }
    if (IsPerQueryOption(key)) {
      std::string err;
      if (!api::SetSessionOption(&qreq.options, key, value, &err)) {
        input_errors_.fetch_add(1, std::memory_order_relaxed);
        sink(ErrorFrame(id, 2, "bad-request", err));
        return;
      }
      continue;
    }
    input_errors_.fetch_add(1, std::memory_order_relaxed);
    sink(ErrorFrame(id, 2, "bad-request",
                    "unknown request field '" + key + "'"));
    return;
  }

  api::QueryResponse resp;
  if (std::optional<api::Frame> rejection = AdmitAndExecute(qreq, &resp)) {
    sink(*rejection);
    return;
  }
  if (!resp.input_ok) {
    input_errors_.fetch_add(1, std::memory_order_relaxed);
    sink(ErrorFrame(id, 1, "input", resp.error));
    return;
  }
  if (resp.internal_error) {
    // Resource failure inside the engine (bad_alloc — real or injected):
    // the request dies structurally, the server and every other request
    // keep going, and the client may retry.
    sink(ErrorFrame(id, 7, "internal", resp.error));
    return;
  }
  resp.report.tool = "qc_serverd";
  resp.report.server.present = true;
  resp.report.server.request_id = id;
  if (!views_.empty()) resp.report.ivm = views_.stats();

  // 4. Stream: hdr, bounded row batches, per-request report, end.
  RowReply(id, resp.status, resp.method, resp.result.truncated,
           resp.report.server.snapshot_epoch, resp.result.attributes,
           resp.result.rows, std::move(resp.analysis_text), resp.report, sink);
}

std::optional<api::Frame> QueryServer::AdmitAndExecute(
    const api::QueryRequest& qreq, api::QueryResponse* resp) {
  const std::uint64_t id = qreq.id;
  // 1. Admission: queue-or-reject before any work is done. A saturated
  // queue pushes back on this request alone with a structured diagnostic
  // instead of degrading every running client.
  AdmissionTicket ticket(&admission_, admission_.Admit());
  if (!ticket.admitted()) {
    const auto& d = ticket.decision();
    int code = kAdmissionRejectedCode;
    std::string reason = "admission-rejected";
    if (d.outcome == AdmissionController::Outcome::kTimedOut) {
      code = kAdmissionTimeoutCode;
      reason = "admission-timeout";
    } else if (d.outcome == AdmissionController::Outcome::kClosed) {
      code = util::ExitCode(util::RunStatus::kCancelled);
      reason = "server-shutting-down";
    }
    api::Frame frame = ErrorFrame(
        id, code, reason,
        "admission queue saturated (" + std::to_string(d.running) +
            " running, " + std::to_string(d.queue_depth) + " queued)");
    frame.Add("queue_depth", std::to_string(d.queue_depth));
    frame.Add("running", std::to_string(d.running));
    return frame;
  }

  // 1b. Deadline-aware shedding: a request whose deadline already elapsed
  // while it sat in the admission queue would only burn an executor slot
  // to produce a deadline error. Shed it now with its own structured
  // diagnostic — a retry (with fresh deadline) may well succeed, so the
  // deadline code 4 is augmented with an explicit shed reason.
  const std::uint64_t deadline_ms = qreq.options.deadline_ms;
  if (deadline_ms > 0 &&
      ticket.decision().queue_ms >= static_cast<double>(deadline_ms)) {
    queue_sheds_.fetch_add(1, std::memory_order_relaxed);
    api::Frame frame = ErrorFrame(
        id, util::ExitCode(util::RunStatus::kDeadlineExceeded),
        "shed-queue-deadline",
        "deadline_ms=" + std::to_string(deadline_ms) + " elapsed during " +
            std::to_string(static_cast<std::uint64_t>(
                ticket.decision().queue_ms)) +
            "ms in the admission queue; request shed before execution",
        /*retryable=*/1);
    frame.Add("queue_ms",
              std::to_string(static_cast<std::uint64_t>(
                  ticket.decision().queue_ms)));
    return frame;
  }

  // 2. Snapshot: pin an immutable MVCC view. Writers keep going; this
  // query reads frozen relation handles whose version stamps keep the
  // shared IndexCache warm across snapshots.
  db::MvccSnapshot snapshot = mvcc_.Snapshot();

  // 3. Execute under the merged per-request budget. The columnar result
  // owns its rows, so it outlives the snapshot.
  *resp = api::ExecuteQuery(qreq, *snapshot.db, cache_.get());
  resp->report.server.queue_ms = ticket.decision().queue_ms;
  resp->report.server.snapshot_epoch = snapshot.epoch;
  return std::nullopt;
}

void QueryServer::RowReply(std::uint64_t id, util::RunStatus status,
                           const std::string& method, bool truncated,
                           std::uint64_t epoch,
                           const std::vector<std::string>& attributes,
                           const db::FlatRelation& rows, std::string analysis,
                           const util::RunReport& report,
                           const FrameSink& sink) const {
  const std::string id_text = std::to_string(id);
  api::Frame hdr;
  hdr.kind = "hdr";
  hdr.Add("id", id_text);
  hdr.Add("status", std::string(util::ToString(status)));
  hdr.Add("method", method);
  hdr.Add("rows", std::to_string(rows.size()));
  hdr.Add("truncated", truncated ? "1" : "0");
  hdr.Add("epoch", std::to_string(epoch));
  std::string attrs;
  for (const auto& a : attributes) {
    if (!attrs.empty()) attrs += ' ';
    attrs += a;
  }
  hdr.Add("attributes", attrs);
  hdr.body = std::move(analysis);
  if (!sink(hdr)) return;

  // One batch frame reused for every batch: its body is rebuilt from a
  // scratch buffer sized for a full batch of worst-case values.
  const std::size_t batch_rows =
      options_.batch_rows > 0 ? static_cast<std::size_t>(options_.batch_rows)
                              : 256;
  const int arity = rows.arity();
  std::vector<char> text(
      std::min(batch_rows, rows.size()) *
      (static_cast<std::size_t>(arity) * (kMaxValueChars + 1) + 1));
  api::Frame batch;
  batch.kind = "batch";
  batch.Add("id", id_text);
  batch.Add("rows", "");
  for (std::size_t begin = 0; begin < rows.size(); begin += batch_rows) {
    const std::size_t end = std::min(begin + batch_rows, rows.size());
    char* out = text.data();
    for (std::size_t i = begin; i < end; ++i) {
      out = WriteRowLine(rows.Row(i), arity, out);
    }
    batch.fields.back().second = std::to_string(end - begin);
    batch.body.assign(text.data(), out);
    if (!sink(batch)) return;
  }

  api::Frame report_frame;
  report_frame.kind = "report";
  report_frame.Add("id", id_text);
  report_frame.body = report.ToJson();
  if (!sink(report_frame)) return;

  api::Frame end;
  end.kind = "end";
  end.Add("id", id_text);
  end.Add("code", std::to_string(util::ExitCode(status)));
  sink(end);
}

api::Frame QueryServer::HandleViewRegister(const api::Frame& request) {
  view_registers_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t id = request.FindUint("id", 0);
  const std::string* name = request.Find("name");
  if (name == nullptr || name->empty()) {
    input_errors_.fetch_add(1, std::memory_order_relaxed);
    return ErrorFrame(id, 2, "bad-request",
                      "view_register needs a non-empty 'name' field");
  }
  std::string kind = "join";
  if (const std::string* k = request.Find("kind")) kind = *k;

  // Reuse the durable record codec as the single parse path: the frame is
  // converted to the kViewDef record it would persist as, then decoded —
  // recovery replays exactly the same bytes through exactly the same code.
  db::WalRecord record;
  record.kind = db::WalRecord::Kind::kViewDef;
  record.relation = *name;
  record.dataset = request.body;
  if (kind == "join") {
    record.arity = 0;
  } else if (kind == "triangle_count") {
    record.arity = 1;
  } else {
    input_errors_.fetch_add(1, std::memory_order_relaxed);
    return ErrorFrame(id, 2, "bad-request",
                      "unknown view kind '" + kind +
                          "' (expected join|triangle_count)");
  }
  db::ViewDefinition def;
  db::MutationResult parsed = db::ViewDefinitionFromRecord(record, &def);
  if (!parsed) {
    input_errors_.fetch_add(1, std::memory_order_relaxed);
    return ErrorFrame(id, 1, "input", parsed.message);
  }
  db::MutationResult registered = mvcc_.RegisterView(def);
  if (!registered) {
    if (registered.message.rfind("wal append failed", 0) == 0) {
      // Durability failed, not the definition: retryable, like a mutate.
      return ErrorFrame(id, 7, "wal", registered.message);
    }
    input_errors_.fetch_add(1, std::memory_order_relaxed);
    return ErrorFrame(id, 1, "input", registered.message);
  }
  db::ViewRead state = views_.Read(*name);
  api::Frame end;
  end.kind = "end";
  end.Add("id", std::to_string(id));
  end.Add("code", "0");
  end.Add("name", *name);
  end.Add("rows", std::to_string(state.ok ? state.rows->size() : 0));
  end.Add("epoch", std::to_string(state.epoch));
  return end;
}

void QueryServer::HandleViewRead(const api::Frame& request,
                                 const FrameSink& sink) {
  view_reads_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t id = request.FindUint("id", 0);
  const std::string* name = request.Find("name");
  if (name == nullptr || name->empty()) {
    input_errors_.fetch_add(1, std::memory_order_relaxed);
    sink(ErrorFrame(id, 2, "bad-request",
                    "view_read needs a non-empty 'name' field"));
    return;
  }
  const auto started = std::chrono::steady_clock::now();
  db::ViewRead state = views_.Read(*name);
  if (!state.ok) {
    input_errors_.fetch_add(1, std::memory_order_relaxed);
    sink(ErrorFrame(id, 1, "input", state.error));
    return;
  }

  // Answered from maintained state: no admission ticket, no snapshot, no
  // engine — the whole point of paying for maintenance on the write path.
  // The reply stream mirrors HandleQuery's (hdr / batch / report / end) so
  // clients decode both with one path; method says where the rows came
  // from.
  util::RunReport report;
  report.tool = "qc_serverd";
  report.status = util::RunStatus::kCompleted;
  report.threads = 1;
  report.server.present = true;
  report.server.request_id = id;
  report.server.queue_ms = 0.0;
  report.server.snapshot_epoch = state.epoch;
  report.ivm = views_.stats();
  report.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - started)
                       .count();

  RowReply(id, util::RunStatus::kCompleted, "ivm", /*truncated=*/false,
           state.epoch, state.attributes, *state.rows, /*analysis=*/"", report,
           sink);
}

api::Frame QueryServer::HandleMutate(const api::Frame& request) {
  mutations_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t id = request.FindUint("id", 0);
  const std::uint64_t request_id = request.FindUint("request_id", 0);
  bool continue_on_error = options_.session.continue_on_input_error;
  if (const std::string* v = request.Find("on_input_error")) {
    api::SessionOptions tmp;
    std::string err;
    if (!api::SetSessionOption(&tmp, "on_input_error", *v, &err)) {
      input_errors_.fetch_add(1, std::memory_order_relaxed);
      return ErrorFrame(id, 2, "bad-request", err);
    }
    continue_on_error = tmp.continue_on_input_error;
  }

  // Idempotent replay: a mutation whose request_id already committed
  // (possibly before a crash — the dedup window is recovered from the WAL)
  // is acknowledged without re-applying. This is what makes client-side
  // mutation retry safe: ack lost on the wire, retry arrives, no double
  // insert.
  auto dedup_ack = [this, id] {
    mutations_deduped_.fetch_add(1, std::memory_order_relaxed);
    api::Frame end;
    end.kind = "end";
    end.Add("id", std::to_string(id));
    end.Add("code", "0");
    end.Add("applied", "0");
    end.Add("skipped", "0");
    end.Add("diagnostics", "0");
    end.Add("deduped", "1");
    end.Add("epoch", std::to_string(mvcc_.Epoch()));
    return end;
  };
  // Fast path only — an already-applied id skips the staging work. The
  // authoritative check re-runs under the writer lock below, where it is
  // atomic with the apply; two concurrent retries of the same id can both
  // get past this unlocked look.
  if (request_id != 0 && SeenRequestId(request_id)) {
    return dedup_ack();
  }

  db::WalRecord record;
  record.kind = db::WalRecord::Kind::kDataset;
  record.request_id = request_id;
  record.dataset = request.body;
  record.continue_on_error = continue_on_error;

  // Stage (parse + validate, read-only) and apply in place under one
  // writer lock — no staged database clone, so a long stream of
  // single-tuple mutate frames costs O(total rows), not O(rows^2).
  bool deduped = false;
  api::DatasetStaging staging;
  db::MutationResult committed = mvcc_.MutateLoggedInPlace(
      record,
      [&](const db::Database& live) {
        if (request_id != 0 && SeenRequestId(request_id)) {
          deduped = true;
          return db::MutationResult::Fail("duplicate request_id");
        }
        staging = api::StageDataset(request.body, live, continue_on_error);
        return staging.load.ok
                   ? db::MutationResult::Ok()
                   : db::MutationResult::Fail("dataset rejected");
      },
      [&](db::Database& live) {
        db::MutationResult applied = api::ApplyDataset(&staging, &live);
        // Remember while still inside the writer lock: a concurrent retry
        // of this id must either see it here or serialize behind the lock
        // and see it in its validate step — never neither.
        if (applied) RememberRequestId(request_id);
        return applied;
      });
  if (deduped) return dedup_ack();
  const api::DatasetLoad& load = staging.load;

  std::string diag_body;
  for (const api::InputDiagnostic& d : load.diagnostics) {
    diag_body += d.ToString();
    diag_body += '\n';
  }
  if (!load.ok) {
    input_errors_.fetch_add(1, std::memory_order_relaxed);
    api::Frame frame = ErrorFrame(
        id, 1, "input",
        "dataset rejected with " + std::to_string(load.diagnostics.size()) +
            " error(s); nothing applied");
    frame.Add("diagnostics", std::to_string(load.diagnostics.size()));
    frame.body = diag_body;
    return frame;
  }
  if (!committed) {
    // The dataset was valid but durability failed (WAL I/O error or
    // injected fault). Nothing was applied — staged-clone rollback — so a
    // retry is safe and may succeed once the log is writable again.
    return ErrorFrame(id, 7, "wal", committed.message);
  }
  // Opportunistic compaction keeps wal.log bounded; failure is non-fatal
  // (the log just stays long) but is surfaced in stats via the WAL stats.
  // The window is read under the writer lock that compacts, so every id
  // committed before the snapshot is persisted with it.
  std::string compact_error;
  mvcc_.MaybeCompactWal([this] { return DedupWindow(); }, &compact_error);

  api::Frame end;
  end.kind = "end";
  end.Add("id", std::to_string(id));
  end.Add("code", "0");
  end.Add("applied", std::to_string(load.tuples_applied));
  end.Add("skipped", std::to_string(load.tuples_skipped));
  end.Add("diagnostics", std::to_string(load.diagnostics.size()));
  end.Add("epoch", std::to_string(mvcc_.Epoch()));
  end.body = diag_body;
  return end;
}

ServerStats QueryServer::stats() const {
  ServerStats s;
  s.admission = admission_.stats();
  s.mvcc = mvcc_.stats();
  s.ivm = views_.stats();
  if (cache_ != nullptr) s.cache = cache_->stats();
  s.wal = wal_.stats();
  s.recovery = recovery();
  s.connections = connections_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.queries = queries_.load(std::memory_order_relaxed);
  s.mutations = mutations_.load(std::memory_order_relaxed);
  s.mutations_deduped = mutations_deduped_.load(std::memory_order_relaxed);
  s.view_registers = view_registers_.load(std::memory_order_relaxed);
  s.view_reads = view_reads_.load(std::memory_order_relaxed);
  s.input_errors = input_errors_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.queue_sheds = queue_sheds_.load(std::memory_order_relaxed);
  s.drain_rejects = drain_rejects_.load(std::memory_order_relaxed);
  s.draining = draining();
  return s;
}

std::string QueryServer::StatsJson() const {
  const ServerStats s = stats();
  util::JsonWriter w;
  w.BeginObject();
  util::WriteFields(w, s);
  util::WriteSection(w, "admission", s.admission);
  util::WriteSection(w, "mvcc", s.mvcc);
  util::WriteSection(w, "ivm", s.ivm);
  w.Key("wal").BeginObject();
  util::WriteFields(w, s.wal);
  util::WriteSection(w, "recovered", s.recovery);
  w.EndObject();
  util::WriteSection(w, "cache", s.cache);
  if (util::FaultsEnabled()) {
    w.Key("faults").BeginObject();
    for (const auto& p : util::FaultRegistry::Global().stats()) {
      util::WriteSection(w, p.point, p);
    }
    w.EndObject();
  }
  w.EndObject();
  return w.Take();
}

bool QueryServer::Start(std::string* error) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    *error = "bad listen address " + options_.host;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    *error = std::string("bind/listen ") + options_.host + ":" +
             std::to_string(options_.port) + ": " + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  accept_thread_ = std::thread(&QueryServer::AcceptLoop, this);
  return true;
}

void QueryServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // Listener was shut down (Stop or shutdown frame).
    }
    // Frames are small request/reply units; Nagle + delayed ACK adds
    // ~40ms per exchange on loopback without this.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_.fetch_add(1, std::memory_order_relaxed);
    std::vector<std::thread> reaped;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      conn_fds_.insert(fd);
      ++live_connections_;
      const std::uint64_t conn_id = next_conn_id_++;
      // Holding conn_mu_ across the spawn guarantees the handle is in
      // conn_threads_ before the new thread's exit path can look for it.
      conn_threads_.emplace(
          conn_id, std::thread(&QueryServer::ServeConnection, this, fd,
                               conn_id));
      reaped.swap(finished_threads_);
    }
    // Finished threads parked their handles on the way out; join them
    // outside the lock (they are past their last member access).
    for (std::thread& t : reaped) t.join();
  }
}

void QueryServer::ServeStream(int fd) {
  api::FrameParser parser;
  FrameWriter writer(fd);
  const FrameSink sink = [&writer](const api::Frame& frame) {
    return writer.Write(frame);
  };
  char buf[1 << 16];
  while (true) {
    api::Frame frame;
    std::string err;
    api::FrameParser::Result r = parser.Next(&frame, &err);
    if (r == api::FrameParser::Result::kFrame) {
      HandleRequest(frame, sink);
      // A failed write stops the reply mid-stream; the connection closes.
      if (!writer.Flush() || frame.kind == "shutdown") break;
      continue;
    }
    if (r == api::FrameParser::Result::kError) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      writer.Write(ErrorFrame(0, 2, "protocol", err));
      writer.Flush();
      break;
    }
    if (util::FaultsEnabled() && util::FaultPoint("socket.read")) {
      break;  // Injected connection drop; client reconnects and retries.
    }
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // Peer closed, reset, or read-side shutdown.
    parser.Feed(buf, static_cast<std::size_t>(n));
  }
}

void QueryServer::ServeConnection(int fd, std::uint64_t conn_id) {
  ServeStream(fd);
  ::close(fd);
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn_fds_.erase(fd);
    --live_connections_;
    // Park this thread's own handle for the accept loop (or Stop) to
    // join; absent means Stop() already claimed it and is waiting in
    // join. Either way this is the last member access the thread makes.
    auto it = conn_threads_.find(conn_id);
    if (it != conn_threads_.end()) {
      finished_threads_.push_back(std::move(it->second));
      conn_threads_.erase(it);
    }
  }
}

void QueryServer::CloseListener() {
  // shutdown() (not close) wakes a blocked accept() without racing fd
  // reuse; the fd itself is closed once the accept thread is joined.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

void QueryServer::Wait() {
  std::unique_lock<std::mutex> lock(conn_mu_);
  // The accept loop exits when the listener shuts down; connections may
  // still be draining — Stop() handles those.
  lock.unlock();
  if (accept_thread_.joinable()) accept_thread_.join();
}

void QueryServer::Stop() {
  if (stopping_.exchange(true)) {
    // Second caller: the teardown below already ran (or is running in the
    // first caller); nothing left to release.
    return;
  }
  draining_.store(true, std::memory_order_relaxed);
  CloseListener();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  admission_.Close();  // Queued queries unwind with "server-shutting-down".
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    // Read-side shutdown only: a connection mid-request finishes and its
    // replies still flush out the write side (graceful drain); the recv
    // loop then sees EOF and closes. SHUT_RDWR would truncate in-flight
    // replies.
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RD);
    for (auto& [id, t] : conn_threads_) to_join.push_back(std::move(t));
    conn_threads_.clear();
    for (std::thread& t : finished_threads_) to_join.push_back(std::move(t));
    finished_threads_.clear();
  }
  // Joining the connection threads IS the drain: each finishes its
  // in-flight request, flushes replies, and exits. After the last join no
  // thread can touch this object again — destruction is race-free.
  for (std::thread& t : to_join) t.join();
  // A kBatch WAL may hold unsynced acknowledged-at-batch-risk records;
  // flush them so a graceful stop never loses the tail.
  if (wal_.is_open()) {
    std::string sync_error;
    wal_.Sync(&sync_error);
  }
}

}  // namespace qc::server
