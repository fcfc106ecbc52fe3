// Shared helpers of the qcbench harness: clocks, quantiles, order-
// independent row digests, process memory, and the result record every
// run prints and saves.
#ifndef QCBENCH_COMMON_H_
#define QCBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "db/database.h"

namespace qcbench {

namespace db = qc::db;

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; 0 for
/// an empty one.
double Quantile(std::vector<double> values, double q);

/// Order-independent digest of a set of rows: the row count plus the
/// wrapping sum of a strong per-row hash. Two row sets with equal digests
/// are equal up to a 2^-64 collision chance, in any row order.
struct RowDigest {
  std::uint64_t rows = 0;
  std::uint64_t sum = 0;

  void Add(const db::Value* values, std::size_t n);
  void Add(const db::Tuple& row) { Add(row.data(), row.size()); }
  bool operator==(const RowDigest& o) const {
    return rows == o.rows && sum == o.sum;
  }
  bool operator!=(const RowDigest& o) const { return !(*this == o); }
};

RowDigest DigestTuples(const std::vector<db::Tuple>& tuples);

/// Digests reply rows in the wire's text form ("v1 v2 ...\n" per row).
/// False when a line does not parse as `arity` integers.
bool DigestRowText(const std::string& text, std::size_t arity,
                   RowDigest* out);

/// High-water resident set of this process in MiB (VmHWM).
double PeakRssMb();
/// Resets the high-water mark to the current RSS; false when the kernel
/// refuses (the mark then covers the whole process lifetime).
bool ResetPeakRss();

/// First number following `"key":` in a JSON text, or `fallback`.
/// Enough for the flat keys of RunReport and the stats frame.
double JsonNumber(std::string_view json, std::string_view key,
                  double fallback = 0.0);
/// Same, but searching only after the first occurrence of `"section"`.
double JsonNumberIn(std::string_view json, std::string_view section,
                    std::string_view key, double fallback = 0.0);

/// One named measurement of a run.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  ///< Observations behind the value.
};

/// Everything one invocation reports: the correctness verdict, the op
/// accounting, the host/build fingerprint and the metrics.
struct RunResult {
  bool correct = true;
  std::vector<std::string> failures;  ///< Why `correct` is false.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::string>> fingerprint;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result.
  std::vector<std::string> notes;

  void Fail(std::string why);
  void Add(std::string name, double value, std::string unit,
           std::uint64_t samples);
};

/// printf into a std::string.
std::string Format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace qcbench

#endif  // QCBENCH_COMMON_H_
