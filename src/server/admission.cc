#include "server/admission.h"

#include <chrono>

namespace qc::server {

AdmissionController::Decision AdmissionController::Admit() {
  std::unique_lock<std::mutex> lock(mu_);
  Decision decision;
  auto snapshot_state = [&] {
    decision.queue_depth = stats_.queued;
    decision.running = stats_.running;
  };
  if (closed_) {
    decision.outcome = Outcome::kClosed;
    snapshot_state();
    return decision;
  }
  if (stats_.running < options_.max_concurrent) {
    ++stats_.running;
    ++stats_.admitted;
    decision.outcome = Outcome::kAdmitted;
    snapshot_state();
    return decision;
  }
  if (stats_.queued >= options_.queue_capacity) {
    ++stats_.rejected;
    decision.outcome = Outcome::kRejectedSaturated;
    snapshot_state();
    return decision;
  }

  ++stats_.queued;
  if (static_cast<std::uint64_t>(stats_.queued) > stats_.max_queued) {
    stats_.max_queued = static_cast<std::uint64_t>(stats_.queued);
  }
  auto wait_start = std::chrono::steady_clock::now();
  auto admissible = [&] {
    return closed_ || stats_.running < options_.max_concurrent;
  };
  bool got_slot;
  if (options_.queue_timeout_ms > 0) {
    got_slot = cv_.wait_for(
        lock, std::chrono::milliseconds(options_.queue_timeout_ms),
        admissible);
  } else {
    cv_.wait(lock, admissible);
    got_slot = true;
  }
  --stats_.queued;
  decision.queue_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - wait_start)
                          .count();
  if (closed_) {
    decision.outcome = Outcome::kClosed;
  } else if (!got_slot) {
    ++stats_.timed_out;
    decision.outcome = Outcome::kTimedOut;
  } else {
    ++stats_.running;
    ++stats_.admitted;
    decision.outcome = Outcome::kAdmitted;
  }
  snapshot_state();
  return decision;
}

void AdmissionController::Release() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    --stats_.running;
  }
  cv_.notify_one();
}

void AdmissionController::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

AdmissionStats AdmissionController::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace qc::server
