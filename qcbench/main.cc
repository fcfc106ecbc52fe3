// qcbench: the repository benchmark. Runs one seeded workload against an
// in-process qc_serverd engine over loopback TCP, checks every answer, and
// prints its metrics; the last line of stdout is the full result as JSON.
//
//   qcbench --workload NAME --seed N --seconds S --trace 0|1
//           [--work-dir DIR] [--spans-out FILE]
//
// Exit code 0 when every correctness gate passed, 1 otherwise, 2 on bad
// arguments. qcbench/run.py builds this binary and wraps it.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

using namespace qcbench;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += Format("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string ResultJson(const Options& o, const RunResult& r) {
  std::string json = "{\"workload\": " + JsonString(o.workload);
  json += Format(", \"seed\": %llu, \"trace\": %d",
                 static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0);
  json += Format(", \"correct\": %s, \"attempted\": %llu, \"failed\": %llu",
                 r.correct ? "true" : "false",
                 static_cast<unsigned long long>(r.attempted),
                 static_cast<unsigned long long>(r.failed));
  json += ", \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    json += (i ? ", " : "") + JsonString(r.failures[i]);
  }
  json += "], \"fingerprint\": {";
  for (std::size_t i = 0; i < r.fingerprint.size(); ++i) {
    json += (i ? ", " : "") + JsonString(r.fingerprint[i].first) + ": " +
            JsonString(r.fingerprint[i].second);
  }
  json += "}, \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    // Failed ops count as infinitely late; JSON has no infinity.
    const double value = std::isfinite(m.value) ? m.value : 1e300;
    json += (i ? ", " : "") + JsonString(m.name) +
            Format(": {\"value\": %.17g, \"unit\": ", value) +
            JsonString(m.unit) +
            Format(", \"samples\": %llu}",
                   static_cast<unsigned long long>(m.samples));
  }
  return json + "}}";
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR] [--spans-out FILE]\n  workloads: %s\n",
               argv0, WorkloadNames());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  o.work_dir = ".bench_build/work";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(argv[0]);
    const char* value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      o.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else if (flag == "--spans-out") {
      o.spans_out = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (o.workload.empty() || !(o.seconds > 0)) return Usage(argv[0]);
  o.work_dir += "/" + o.workload + "-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(o.work_dir, ec);

  const RunResult r = RunWorkload(o);
  std::filesystem::remove_all(o.work_dir, ec);

  for (const auto& [key, value] : r.fingerprint) {
    std::printf("# %s = %s\n", key.c_str(), value.c_str());
  }
  for (const std::string& note : r.notes) std::printf("%s\n", note.c_str());
  for (const Metric& m : r.metrics) {
    std::printf("%-36s %16.6f %-8s (n=%llu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  for (const std::string& f : r.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("%s\n", ResultJson(o, r).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
