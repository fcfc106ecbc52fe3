#ifndef QC_SERVER_ADMISSION_H_
#define QC_SERVER_ADMISSION_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "util/stats_fields.h"

namespace qc::server {

/// Process-style codes for admission outcomes, continuing the repo's
/// exit-code convention (0 ok, 1-3 usage/parse/input, 4-6 budget causes,
/// 7 internal): 8 = rejected because the admission queue is saturated,
/// 9 = gave up waiting in the queue.
inline constexpr int kAdmissionRejectedCode = 8;
inline constexpr int kAdmissionTimeoutCode = 9;

struct AdmissionOptions {
  /// Queries executing at once; further arrivals queue. 0 is legal and
  /// rejects every query (useful for drain/testing).
  int max_concurrent = 8;
  /// Arrivals allowed to wait once the executors are busy; the
  /// (max_concurrent + queue_capacity + 1)-th concurrent query is rejected
  /// with a structured diagnostic instead of degrading everyone.
  int queue_capacity = 64;
  /// How long a queued query waits before giving up (0 = forever).
  std::uint64_t queue_timeout_ms = 0;
};

struct AdmissionStats {
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;   ///< Queue full on arrival.
  std::uint64_t timed_out = 0;  ///< Gave up waiting.
  std::uint64_t max_queued = 0; ///< High-water queue depth.
  int running = 0;              ///< Currently executing.
  int queued = 0;               ///< Currently waiting.

  template <class F>
  void ForEachField(F&& f) const {
    f("admitted", admitted, util::FieldKind::kCounter);
    f("rejected", rejected, util::FieldKind::kCounter);
    f("timed_out", timed_out, util::FieldKind::kCounter);
    f("max_queued", max_queued, util::FieldKind::kGauge);
    f("running", running, util::FieldKind::kGauge);
    f("queued", queued, util::FieldKind::kGauge);
  }
};

/// Global admission control for qc_serverd: a counting gate with a bounded
/// FIFO-ish wait queue. Under saturation the overload is pushed back to the
/// newest arrivals as an explicit, structured rejection — the established
/// alternative to silently queueing without bound and degrading every
/// client's latency.
///
/// Threading: all members thread-safe. Admit() blocks only in the "queued"
/// state; Release() must be called exactly once per kAdmitted decision
/// (AdmissionTicket does this via RAII).
class AdmissionController {
 public:
  enum class Outcome {
    kAdmitted,
    kRejectedSaturated,  ///< Executors busy and queue full on arrival.
    kTimedOut,           ///< Waited queue_timeout_ms without a slot.
    kClosed,             ///< Controller shut down while waiting.
  };

  struct Decision {
    Outcome outcome = Outcome::kRejectedSaturated;
    double queue_ms = 0.0;  ///< Time spent waiting before the outcome.
    int queue_depth = 0;    ///< Waiters at decision time (self excluded).
    int running = 0;        ///< Executors at decision time.
  };

  explicit AdmissionController(const AdmissionOptions& options)
      : options_(options) {}
  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Queue-or-reject: returns kAdmitted (caller MUST Release), or a
  /// rejection decision carrying the queue state for the diagnostic.
  Decision Admit();

  /// Frees one executor slot and wakes a waiter.
  void Release();

  /// Wakes every waiter with kClosed; later Admit()s also return kClosed.
  void Close();

  AdmissionStats stats() const;

 private:
  const AdmissionOptions options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool closed_ = false;
  AdmissionStats stats_;  ///< Live counts and levels, guarded by mu_.
};

/// RAII admission slot: releases on destruction when admitted.
class AdmissionTicket {
 public:
  AdmissionTicket(AdmissionController* controller,
                  AdmissionController::Decision decision)
      : controller_(controller), decision_(decision) {}
  ~AdmissionTicket() {
    if (admitted()) controller_->Release();
  }
  AdmissionTicket(const AdmissionTicket&) = delete;
  AdmissionTicket& operator=(const AdmissionTicket&) = delete;

  bool admitted() const {
    return decision_.outcome == AdmissionController::Outcome::kAdmitted;
  }
  const AdmissionController::Decision& decision() const { return decision_; }

 private:
  AdmissionController* controller_;
  AdmissionController::Decision decision_;
};

}  // namespace qc::server

#endif  // QC_SERVER_ADMISSION_H_
