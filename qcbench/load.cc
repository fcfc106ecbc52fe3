#include "load.h"

#include <limits>
#include <thread>

namespace qcbench {

std::vector<const Sample*> PhaseResult::Of(int op) const {
  std::vector<const Sample*> out;
  for (const auto& stream : samples) {
    for (const Sample& s : stream) {
      if (s.op == op) out.push_back(&s);
    }
  }
  return out;
}

double LatencyQuantile(const std::vector<const Sample*>& samples, double q) {
  std::vector<double> v;
  v.reserve(samples.size());
  for (const Sample* s : samples) {
    v.push_back(s->ok ? s->latency_ms()
                      : std::numeric_limits<double>::infinity());
  }
  return Quantile(std::move(v), q);
}

namespace {

void Finish(const Reply& reply, Sample* s) {
  if (reply.is_mutate) {
    const auto& r = reply.mutate;
    s->rejected = r.ok && r.rejected;
    s->ok = r.ok && !r.rejected && r.code == 0;
    s->epoch = r.epoch;
    s->error = r.error;
    return;
  }
  const auto& r = reply.query;
  s->rejected = r.ok && r.rejected;
  s->ok = r.ok && !r.rejected && r.code == 0;
  s->error = r.ok ? r.reason : r.error;
  if (!s->ok) return;
  s->rows = r.rows;
  s->epoch = r.epoch;
  s->queue_ms = JsonNumberIn(r.report_json, "server", "queue_ms");
  s->method = r.method;
  s->planned = r.report_json.find("\"planner\"") != std::string::npos;
  s->arena_bytes =
      JsonNumberIn(r.report_json, "stats", "arena_high_water_bytes");
  if (!DigestRowText(r.row_text, r.attributes.size(), &s->digest) ||
      s->digest.rows != r.rows) {
    s->ok = false;
    s->error = "reply rows do not decode";
  }
}

void RunStream(const std::string& host, int port,
               const std::vector<OpDef>& ops, const Stream& stream,
               Clock::time_point start, Clock::time_point end,
               std::vector<Sample>* out, std::vector<double>* lateness,
               bool* connect_failed) {
  qc::server::Client client;
  std::string error;
  if (!client.Connect(host, port, &error)) {
    *connect_failed = true;
    return;
  }
  if (stream.rate == 0) std::this_thread::sleep_until(start);
  for (std::uint64_t k = 0;; ++k) {
    Clock::time_point due = Clock::now();
    if (stream.rate > 0) {
      due = start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            stream.offset_s + double(k) / stream.rate));
      if (due >= end) break;
      std::this_thread::sleep_until(due);
    } else if (due >= end) {
      break;
    }
    const auto [op, arg] = stream.next(k);
    Sample s;
    s.op = op;
    s.arg = arg;
    const Clock::time_point sent = Clock::now();
    Reply reply;
    ops[static_cast<std::size_t>(op)].send(client, arg, &reply);
    const Clock::time_point done = Clock::now();
    s.due_ms = MsBetween(start, stream.rate > 0 ? due : sent);
    s.sent_ms = MsBetween(start, sent);
    s.done_ms = MsBetween(start, done);
    if (stream.rate > 0) lateness->push_back(s.sent_ms - s.due_ms);
    Finish(reply, &s);
    out->push_back(std::move(s));
  }
}

}  // namespace

PhaseResult RunPhase(const std::string& host, int port,
                     const std::vector<OpDef>& ops,
                     const std::vector<Stream>& streams, double seconds) {
  PhaseResult result;
  const std::size_t n = streams.size();
  result.samples.resize(n);
  std::vector<std::vector<double>> lateness(n);
  std::vector<char> failed(n, 0);
  // A short lead lets every thread connect before the first request is due.
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(50);
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      bool connect_failed = false;
      RunStream(host, port, ops, streams[i], start, end, &result.samples[i],
                &lateness[i], &connect_failed);
      failed[i] = connect_failed ? 1 : 0;
    });
  }
  for (std::thread& t : threads) t.join();
  result.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  for (std::size_t i = 0; i < n; ++i) {
    result.connect_failures += failed[i];
    result.lateness_ms.insert(result.lateness_ms.end(), lateness[i].begin(),
                              lateness[i].end());
  }
  return result;
}

}  // namespace qcbench
