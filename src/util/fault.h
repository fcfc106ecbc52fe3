#ifndef QC_UTIL_FAULT_H_
#define QC_UTIL_FAULT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/counters.h"
#include "util/fault_hook.h"
#include "util/stats_fields.h"

namespace qc::util {

/// Deterministic, seedable fault-injection registry.
///
/// Robust systems are exactly as good as their failure paths, and failure
/// paths that cannot be exercised rot. This registry names every injection
/// point the resilience layer owns (WAL I/O, socket read/write, arena and
/// index-cache allocation) and lets a test — or an operator via the
/// QC_FAULTS environment variable — script precisely when each one fires:
///
///   QC_FAULTS=wal.write:after=3,socket.read:prob=0.01,wal.fsync:once=2
///
/// Trigger kinds per point (one rule per point; the last spec wins):
///   after=N   every evaluation after the first N fails (persistent fault)
///   once=N    exactly the N-th evaluation fails (N is 1-based)
///   every=N   every N-th evaluation fails (N, 2N, 3N, ...)
///   prob=P    each evaluation fails with probability P in [0,1], drawn
///             from the registry's seeded xorshift stream — two runs with
///             the same seed and the same evaluation order fail at the
///             same points
///
/// The seed comes from Configure()'s argument (tests) or QC_FAULT_SEED
/// (environment; default 1). Every evaluation and every fire is counted
/// per point and exported as "fault.<point>.evals"/"fault.<point>.fires"
/// counters, so a RunReport or the server stats JSON shows exactly which
/// failure paths a run actually took.
///
/// Cost when idle: injection sites guard with FaultsEnabled(), a single
/// relaxed atomic load that is false unless some registry holds rules —
/// the hot paths (arena allocation) pay one predictable-branch load.
///
/// Threading: all members thread-safe behind one mutex (injection points
/// are I/O or allocation boundaries; the lock is never on a lock-free hot
/// path thanks to the FaultsEnabled() gate).
class FaultRegistry {
 public:
  struct PointStats {
    std::string point;
    std::uint64_t evals = 0;  ///< ShouldFail() calls for this point.
    std::uint64_t fires = 0;  ///< Evaluations that returned "fail".

    /// The per-point fields; the point name is the key they nest under.
    template <class F>
    void ForEachField(F&& f) const {
      f("evals", evals, FieldKind::kCounter);
      f("fires", fires, FieldKind::kCounter);
    }
  };

  FaultRegistry() = default;
  ~FaultRegistry();
  FaultRegistry(const FaultRegistry&) = delete;
  FaultRegistry& operator=(const FaultRegistry&) = delete;

  /// Replaces the rule set with a parsed spec ("" clears). False + error
  /// on a malformed spec, in which case the previous rules are kept.
  bool Configure(std::string_view spec, std::uint64_t seed,
                 std::string* error);

  /// Drops every rule (stats are kept until ResetStats).
  void Clear();

  /// True when this registry holds at least one rule.
  bool active() const { return active_.load(std::memory_order_relaxed); }

  /// Evaluates the named point: true = the caller must fail now. Only
  /// points with a rule of their own are evaluated and counted; any other
  /// point returns false without touching stats (idle registries are never
  /// consulted thanks to FaultsEnabled()).
  bool ShouldFail(std::string_view point);

  /// Per-point evaluation/fire counts, sorted by point name.
  std::vector<PointStats> stats() const;

  /// Adds "fault.<point>.evals" / "fault.<point>.fires" counters for every
  /// point that was evaluated at least once.
  void ExportCounters(Counters* sink) const;

  void ResetStats();

  /// The process-wide registry, configured once from QC_FAULTS /
  /// QC_FAULT_SEED on first use (a malformed env spec is reported to
  /// stderr and ignored). Production injection sites use this instance;
  /// tests may Configure()/Clear() it around a scenario.
  static FaultRegistry& Global();

 private:
  struct Rule {
    enum class Kind { kAfter, kOnce, kEvery, kProb };
    Kind kind = Kind::kAfter;
    std::uint64_t n = 0;
    double prob = 0.0;
  };
  struct Point {
    std::string name;
    Rule rule;
    bool has_rule = false;
    std::uint64_t evals = 0;
    std::uint64_t fires = 0;
  };

  Point* FindLocked(std::string_view name);

  mutable std::mutex mu_;
  std::vector<Point> points_;
  std::uint64_t rng_ = 1;
  std::atomic<bool> active_{false};
};

// FaultsEnabled() / FaultPoint() live in util/fault_hook.h (header-only,
// link-free) so injection sites in leaf-library headers can use them; this
// header re-exports them via the include above.

}  // namespace qc::util

#endif  // QC_UTIL_FAULT_H_
