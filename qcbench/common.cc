#include "common.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace qcbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double idx = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (idx - double(lo));
}

namespace {

std::uint64_t Mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

std::string Quoted(std::string_view key) {
  std::string out(1, '"');
  out.append(key);
  out.push_back('"');
  return out;
}

std::uint64_t RowHash(const db::Value* values, std::size_t n) {
  std::uint64_t h = 0x243f6a8885a308d3ULL ^ n;
  for (std::size_t i = 0; i < n; ++i) {
    h = Mix(h ^ static_cast<std::uint64_t>(values[i])) + 0x9e3779b97f4a7c15ULL;
  }
  return Mix(h);
}

}  // namespace

void RowDigest::Add(const db::Value* values, std::size_t n) {
  ++rows;
  sum += RowHash(values, n);
}

RowDigest DigestTuples(const std::vector<db::Tuple>& tuples) {
  RowDigest d;
  for (const db::Tuple& t : tuples) d.Add(t);
  return d;
}

bool DigestRowText(const std::string& text, std::size_t arity,
                   RowDigest* out) {
  std::vector<db::Value> row(arity);
  const char* p = text.data();
  const char* end = p + text.size();
  while (p < end) {
    for (std::size_t i = 0; i < arity; ++i) {
      while (p < end && *p == ' ') ++p;
      bool neg = false;
      if (p < end && *p == '-') {
        neg = true;
        ++p;
      }
      if (p >= end || *p < '0' || *p > '9') return false;
      std::uint64_t v = 0;
      while (p < end && *p >= '0' && *p <= '9') {
        v = v * 10 + static_cast<std::uint64_t>(*p - '0');
        ++p;
      }
      row[i] = neg ? -static_cast<db::Value>(v) : static_cast<db::Value>(v);
    }
    if (p >= end || *p != '\n') return false;
    ++p;
    out->Add(row.data(), arity);
  }
  return true;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double JsonNumber(std::string_view json, std::string_view key,
                  double fallback) {
  const std::string quoted = Quoted(key);
  std::size_t pos = json.find(quoted);
  if (pos == std::string_view::npos) return fallback;
  pos += quoted.size();
  while (pos < json.size() && (json[pos] == ' ' || json[pos] == ':')) ++pos;
  if (pos >= json.size()) return fallback;
  if (json.compare(pos, 4, "true") == 0) return 1.0;
  if (json.compare(pos, 5, "false") == 0) return 0.0;
  const std::string tail(json.substr(pos, 32));
  char* endp = nullptr;
  const double v = std::strtod(tail.c_str(), &endp);
  return endp == tail.c_str() ? fallback : v;
}

double JsonNumberIn(std::string_view json, std::string_view section,
                    std::string_view key, double fallback) {
  const std::string quoted = Quoted(section);
  std::size_t pos = json.find(quoted);
  if (pos == std::string_view::npos) return fallback;
  return JsonNumber(json.substr(pos), key, fallback);
}

void RunResult::Fail(std::string why) {
  correct = false;
  failures.push_back(std::move(why));
}

void RunResult::Add(std::string name, double value, std::string unit,
                    std::uint64_t samples) {
  metrics.push_back({std::move(name), value, std::move(unit), samples});
}


std::string Format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buf[1024];
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

}  // namespace qcbench
