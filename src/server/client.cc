#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace qc::server {

namespace {

std::uint64_t FieldUint(const api::Frame& f, const char* key) {
  return f.FindUint(key, 0);
}

int FieldInt(const api::Frame& f, const char* key) {
  return static_cast<int>(f.FindUint(key, 0));
}

}  // namespace

Client::~Client() { Close(); }

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Client::set_retry(const RetryOptions& retry) {
  retry_ = retry;
  rng_ = retry.seed != 0 ? retry.seed : 1;
}

std::uint64_t Client::NextRand() {
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  return rng_;
}

std::uint64_t Client::NextRequestId() {
  if (id_rng_ == 0) {
    // Mix per-process entropy into the seed: pid and object address
    // separate concurrent clients, monotonic time separates successive
    // runs. A splitmix64 finisher spreads the mix across all 64 bits.
    std::uint64_t seed = retry_.seed;
    seed ^= static_cast<std::uint64_t>(::getpid()) << 32;
    seed ^= static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    seed ^= static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(this));
    seed += 0x9E3779B97F4A7C15ull;
    seed = (seed ^ (seed >> 30)) * 0xBF58476D1CE4E5B9ull;
    seed = (seed ^ (seed >> 27)) * 0x94D049BB133111EBull;
    seed ^= seed >> 31;
    id_rng_ = seed != 0 ? seed : 1;
  }
  id_rng_ ^= id_rng_ << 13;
  id_rng_ ^= id_rng_ >> 7;
  id_rng_ ^= id_rng_ << 17;
  return id_rng_;
}

void Client::Backoff(int attempt) {
  std::uint64_t cap = retry_.base_backoff_ms;
  for (int i = 0; i < attempt && cap < retry_.max_backoff_ms; ++i) cap *= 2;
  if (cap > retry_.max_backoff_ms) cap = retry_.max_backoff_ms;
  if (cap == 0) return;
  // Jitter in [cap/2, cap]: enough spread to de-synchronize clients,
  // never less than half the intended delay.
  const std::uint64_t half = cap / 2;
  const std::uint64_t sleep_ms = half + NextRand() % (cap - half + 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
}

bool Client::Connect(const std::string& host, int port, std::string* error) {
  Close();
  // A parser carried over from a dead connection may hold a torn partial
  // frame (or be poisoned); the new byte stream starts clean.
  parser_ = api::FrameParser();
  host_ = host;
  port_ = port;
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    *error = "bad address " + host;
    Close();
    return false;
  }
  int rc;
  do {
    rc = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    *error = "connect " + host + ":" + std::to_string(port) + ": " +
             std::strerror(errno);
    Close();
    return false;
  }
  // Request frames are small; without this Nagle holds the tail of a
  // frame until the server's delayed ACK (~40ms per request).
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

bool Client::EnsureConnected(std::string* error) {
  if (fd_ >= 0) return true;
  if (host_.empty()) {
    *error = "not connected";
    return false;
  }
  return Connect(host_, port_, error);
}

bool Client::SendFrame(const api::Frame& frame, std::string* error) {
  if (fd_ < 0) {
    *error = "not connected";
    return false;
  }
  const std::string wire = api::EncodeFrame(frame);
  std::size_t sent = 0;
  while (sent < wire.size()) {
    ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      // ECONNRESET/EPIPE here mean the server went away mid-send — a
      // transport failure the retry layer can heal with a reconnect.
      *error = std::string("send: ") + std::strerror(errno);
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool Client::RecvFrame(api::Frame* frame, std::string* error) {
  char buf[1 << 16];
  while (true) {
    std::string parse_error;
    api::FrameParser::Result r = parser_.Next(frame, &parse_error);
    if (r == api::FrameParser::Result::kFrame) return true;
    if (r == api::FrameParser::Result::kError) {
      *error = "protocol: " + parse_error;
      return false;
    }
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n == 0) {
      // Mid-reply EOF: the server died or dropped us. The parser may hold
      // a torn frame — Connect() resets it before the stream restarts.
      *error = "connection closed by server";
      return false;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      *error = std::string("recv: ") + std::strerror(errno);
      return false;
    }
    parser_.Feed(buf, static_cast<std::size_t>(n));
  }
}

QueryReply Client::Query(
    const std::string& query_text,
    const std::vector<std::pair<std::string, std::string>>& extra_fields) {
  QueryReply reply = QueryOnce(query_text, extra_fields);
  int attempt = 0;
  while (attempt < retry_.max_retries &&
         (!reply.ok || (reply.rejected && reply.retryable))) {
    if (!reply.ok) Close();  // Transport failure: the stream is garbage.
    Backoff(attempt);
    ++attempt;
    std::string error;
    if (!EnsureConnected(&error)) {
      reply = QueryReply{};
      reply.error = error;
      reply.attempts = attempt + 1;
      continue;
    }
    reply = QueryOnce(query_text, extra_fields);
    reply.attempts = attempt + 1;
  }
  return reply;
}

QueryReply Client::QueryOnce(
    const std::string& query_text,
    const std::vector<std::pair<std::string, std::string>>& extra_fields) {
  api::Frame req;
  req.kind = "query";
  req.Add("id", std::to_string(next_id_++));
  for (const auto& [k, v] : extra_fields) req.Add(k, v);
  req.body = query_text;
  return QueryRoundTrip(std::move(req));
}

QueryReply Client::QueryRoundTrip(api::Frame req) {
  QueryReply reply;
  if (!SendFrame(req, &reply.error)) return reply;

  // Sum of the batch frames' `rows`, checked against hdr's total at `end`:
  // a stream that lost or miscounted rows mid-answer must not decode as a
  // shorter answer.
  std::uint64_t batch_rows = 0;
  while (true) {
    api::Frame f;
    if (!RecvFrame(&f, &reply.error)) return reply;
    if (f.kind == "error") {
      reply.ok = true;
      reply.rejected = true;
      reply.retryable = FieldUint(f, "retryable") != 0;
      reply.code = FieldInt(f, "code");
      if (const std::string* s = f.Find("reason")) reply.reason = *s;
      if (const std::string* s = f.Find("message")) reply.message = *s;
      reply.queue_depth = FieldInt(f, "queue_depth");
      reply.running = FieldInt(f, "running");
      return reply;
    }
    if (f.kind == "hdr") {
      if (const std::string* s = f.Find("status")) reply.status = *s;
      if (const std::string* s = f.Find("method")) reply.method = *s;
      reply.rows = FieldUint(f, "rows");
      reply.truncated = FieldUint(f, "truncated") != 0;
      reply.epoch = FieldUint(f, "epoch");
      if (const std::string* s = f.Find("attributes")) {
        std::string attr;
        for (char c : *s) {
          if (c == ' ') {
            if (!attr.empty()) reply.attributes.push_back(attr);
            attr.clear();
          } else {
            attr += c;
          }
        }
        if (!attr.empty()) reply.attributes.push_back(attr);
      }
      reply.analysis_text = f.body;
    } else if (f.kind == "batch") {
      batch_rows += FieldUint(f, "rows");
      reply.row_text += f.body;
    } else if (f.kind == "report") {
      reply.report_json = f.body;
    } else if (f.kind == "end") {
      reply.code = FieldInt(f, "code");
      if (batch_rows != reply.rows) {
        reply.error = "protocol: hdr announced " + std::to_string(reply.rows) +
                      " rows, batches carried " + std::to_string(batch_rows);
        return reply;
      }
      reply.ok = true;
      return reply;
    } else {
      reply.error = "unexpected reply frame '" + f.kind + "'";
      return reply;
    }
  }
}

ViewRegisterReply Client::RegisterView(const std::string& name,
                                       const std::string& kind,
                                       const std::string& body) {
  ViewRegisterReply reply = RegisterViewOnce(name, kind, body);
  int attempt = 0;
  while (attempt < retry_.max_retries &&
         (!reply.ok || (reply.rejected && reply.retryable))) {
    if (!reply.ok) Close();
    Backoff(attempt);
    ++attempt;
    std::string error;
    if (!EnsureConnected(&error)) {
      reply = ViewRegisterReply{};
      reply.error = error;
      reply.attempts = attempt + 1;
      continue;
    }
    reply = RegisterViewOnce(name, kind, body);
    reply.attempts = attempt + 1;
  }
  return reply;
}

ViewRegisterReply Client::RegisterViewOnce(const std::string& name,
                                           const std::string& kind,
                                           const std::string& body) {
  ViewRegisterReply reply;
  api::Frame req;
  req.kind = "view_register";
  req.Add("id", std::to_string(next_id_++));
  req.Add("name", name);
  req.Add("kind", kind);
  req.body = body;
  if (!SendFrame(req, &reply.error)) return reply;

  api::Frame f;
  if (!RecvFrame(&f, &reply.error)) return reply;
  if (f.kind == "error") {
    reply.ok = true;
    reply.rejected = true;
    reply.retryable = FieldUint(f, "retryable") != 0;
    reply.code = FieldInt(f, "code");
    if (const std::string* s = f.Find("reason")) reply.reason = *s;
    if (const std::string* s = f.Find("message")) reply.message = *s;
    return reply;
  }
  if (f.kind != "end") {
    reply.error = "unexpected reply frame '" + f.kind + "'";
    return reply;
  }
  reply.ok = true;
  reply.code = FieldInt(f, "code");
  reply.rows = FieldUint(f, "rows");
  reply.epoch = FieldUint(f, "epoch");
  return reply;
}

QueryReply Client::ViewRead(const std::string& name) {
  api::Frame req;
  req.kind = "view_read";
  req.Add("id", std::to_string(next_id_++));
  req.Add("name", name);
  QueryReply reply = QueryRoundTrip(req);
  int attempt = 0;
  while (attempt < retry_.max_retries &&
         (!reply.ok || (reply.rejected && reply.retryable))) {
    if (!reply.ok) Close();
    Backoff(attempt);
    ++attempt;
    std::string error;
    if (!EnsureConnected(&error)) {
      reply = QueryReply{};
      reply.error = error;
      reply.attempts = attempt + 1;
      continue;
    }
    api::Frame again;
    again.kind = "view_read";
    again.Add("id", std::to_string(next_id_++));
    again.Add("name", name);
    reply = QueryRoundTrip(std::move(again));
    reply.attempts = attempt + 1;
  }
  return reply;
}

MutateReply Client::Mutate(const std::string& dataset_text,
                           const std::string& on_input_error,
                           std::uint64_t request_id) {
  // A retried mutation MUST carry an idempotency id, or a lost ack would
  // double-apply on replay. Auto-generate one (nonzero) whenever a retry
  // policy could resend.
  if (request_id == 0 && retry_.max_retries > 0) {
    do {
      request_id = NextRequestId();
    } while (request_id == 0);
  }
  MutateReply reply = MutateOnce(dataset_text, on_input_error, request_id);
  int attempt = 0;
  while (attempt < retry_.max_retries &&
         (!reply.ok || (reply.rejected && reply.retryable))) {
    if (!reply.ok) Close();
    Backoff(attempt);
    ++attempt;
    std::string error;
    if (!EnsureConnected(&error)) {
      reply = MutateReply{};
      reply.error = error;
      reply.request_id = request_id;
      reply.attempts = attempt + 1;
      continue;
    }
    reply = MutateOnce(dataset_text, on_input_error, request_id);
    reply.attempts = attempt + 1;
  }
  return reply;
}

MutateReply Client::MutateOnce(const std::string& dataset_text,
                               const std::string& on_input_error,
                               std::uint64_t request_id) {
  MutateReply reply;
  reply.request_id = request_id;
  api::Frame req;
  req.kind = "mutate";
  req.Add("id", std::to_string(next_id_++));
  if (request_id != 0) req.Add("request_id", std::to_string(request_id));
  if (!on_input_error.empty()) req.Add("on_input_error", on_input_error);
  req.body = dataset_text;
  if (!SendFrame(req, &reply.error)) return reply;

  api::Frame f;
  if (!RecvFrame(&f, &reply.error)) return reply;
  if (f.kind == "error") {
    reply.ok = true;
    reply.rejected = true;
    reply.retryable = FieldUint(f, "retryable") != 0;
    reply.code = FieldInt(f, "code");
    reply.diagnostics = f.body;
    return reply;
  }
  if (f.kind != "end") {
    reply.error = "unexpected reply frame '" + f.kind + "'";
    return reply;
  }
  reply.ok = true;
  reply.code = FieldInt(f, "code");
  reply.deduped = FieldUint(f, "deduped") != 0;
  reply.applied = FieldUint(f, "applied");
  reply.skipped = FieldUint(f, "skipped");
  reply.epoch = FieldUint(f, "epoch");
  reply.diagnostics = f.body;
  return reply;
}

bool Client::Ping(std::string* error) {
  api::Frame req;
  req.kind = "ping";
  req.Add("id", std::to_string(next_id_++));
  if (!SendFrame(req, error)) return false;
  api::Frame f;
  if (!RecvFrame(&f, error)) return false;
  if (f.kind != "pong") {
    *error = "unexpected reply frame '" + f.kind + "'";
    return false;
  }
  return true;
}

HealthReply Client::Health() {
  HealthReply reply;
  api::Frame req;
  req.kind = "health";
  req.Add("id", std::to_string(next_id_++));
  if (!SendFrame(req, &reply.error)) return reply;
  api::Frame f;
  if (!RecvFrame(&f, &reply.error)) return reply;
  if (f.kind != "health-reply") {
    reply.error = "unexpected reply frame '" + f.kind + "'";
    return reply;
  }
  reply.ok = true;
  if (const std::string* s = f.Find("status")) reply.status = *s;
  reply.epoch = FieldUint(f, "epoch");
  reply.wal = FieldUint(f, "wal") != 0;
  reply.running = FieldInt(f, "running");
  reply.queued = FieldInt(f, "queued");
  return reply;
}

bool Client::Stats(std::string* stats_json, std::string* error) {
  api::Frame req;
  req.kind = "stats";
  req.Add("id", std::to_string(next_id_++));
  if (!SendFrame(req, error)) return false;
  api::Frame f;
  if (!RecvFrame(&f, error)) return false;
  if (f.kind != "stats-reply") {
    *error = "unexpected reply frame '" + f.kind + "'";
    return false;
  }
  *stats_json = f.body;
  return true;
}

bool Client::Shutdown(std::string* error) {
  api::Frame req;
  req.kind = "shutdown";
  req.Add("id", std::to_string(next_id_++));
  if (!SendFrame(req, error)) return false;
  api::Frame f;
  if (!RecvFrame(&f, error)) return false;
  if (f.kind != "end") {
    *error = "unexpected reply frame '" + f.kind + "'";
    return false;
  }
  return true;
}

}  // namespace qc::server
