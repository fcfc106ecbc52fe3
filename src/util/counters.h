#ifndef QC_UTIL_COUNTERS_H_
#define QC_UTIL_COUNTERS_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>

namespace qc::util {

/// Unified effort-counter sink: a key -> uint64 accumulator.
///
/// Every engine (Generic Join, the treewidth DPs, the CSP solvers, ...)
/// reports its work measures here under dotted keys such as
/// "generic_join.probes" or "treedp.table_entries", replacing the per-engine
/// stats structs as the cross-engine reporting surface. Not thread-safe:
/// parallel kernels accumulate into per-worker Counters and Merge them in a
/// deterministic order.
///
/// Keys come in two kinds. *Counters* (written with Add) are monotonic work
/// measures; Merge sums them across workers. *Gauges* (written with Set) are
/// level readings — thread counts, configured limits, high-water marks —
/// that would double-count if summed: Merge takes the maximum instead, which
/// is order-independent and therefore deterministic no matter how many
/// workers merge in. Don't mix Add and Set on one key.
class Counters {
 public:
  void Add(std::string_view key, std::uint64_t delta = 1) {
    auto it = values_.find(key);
    if (it == values_.end()) {
      values_.emplace(std::string(key), delta);
    } else {
      it->second += delta;
    }
  }

  /// Writes a gauge: last-write value, max-merge semantics.
  void Set(std::string_view key, std::uint64_t value) {
    auto it = values_.find(key);
    if (it == values_.end()) {
      values_.emplace(std::string(key), value);
    } else {
      it->second = value;
    }
    auto g = gauges_.find(key);
    if (g == gauges_.end()) gauges_.emplace(key);
  }

  /// 0 when the key was never touched.
  std::uint64_t Get(std::string_view key) const {
    auto it = values_.find(key);
    return it == values_.end() ? 0 : it->second;
  }

  bool IsGauge(std::string_view key) const {
    return gauges_.find(key) != gauges_.end();
  }

  /// Sums counter keys; takes the max for keys `other` marks as gauges (a
  /// per-worker thread-count gauge merged 8 times must not read 8x).
  void Merge(const Counters& other) {
    for (const auto& [key, value] : other.values_) {
      if (other.IsGauge(key)) {
        Set(key, std::max(Get(key), value));
      } else {
        Add(key, value);
      }
    }
  }

  void Clear() {
    values_.clear();
    gauges_.clear();
  }
  bool empty() const { return values_.empty(); }
  std::size_t size() const { return values_.size(); }

  /// Sorted key -> value view (std::map iterates in key order).
  const std::map<std::string, std::uint64_t, std::less<>>& items() const {
    return values_;
  }

  /// One "key=value" per line, keys sorted.
  std::string ToString() const {
    std::ostringstream out;
    bool first = true;
    for (const auto& [key, value] : values_) {
      if (!first) out << '\n';
      first = false;
      out << key << '=' << value;
    }
    return out.str();
  }

 private:
  std::map<std::string, std::uint64_t, std::less<>> values_;
  std::set<std::string, std::less<>> gauges_;
};

}  // namespace qc::util

#endif  // QC_UTIL_COUNTERS_H_
