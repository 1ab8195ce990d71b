#include "verifier/governor.h"

namespace wave {

const char* UnknownReasonName(UnknownReason reason) {
  switch (reason) {
    case UnknownReason::kNone: return "none";
    case UnknownReason::kTimeout: return "timeout";
    case UnknownReason::kMemoryLimit: return "memory_limit";
    case UnknownReason::kCandidateBudget: return "candidate_budget";
    case UnknownReason::kExpansionBudget: return "expansion_budget";
    case UnknownReason::kCancelled: return "cancelled";
    case UnknownReason::kRejectedCandidates: return "rejected_candidates";
  }
  return "?";
}

bool IsBudgetLimited(UnknownReason reason) {
  return reason == UnknownReason::kCandidateBudget ||
         reason == UnknownReason::kExpansionBudget;
}

Status UnknownReasonToStatus(UnknownReason reason,
                             const std::string& detail) {
  switch (reason) {
    case UnknownReason::kNone:
      return Status::Ok();
    case UnknownReason::kTimeout:
      return Status::DeadlineExceeded(detail);
    case UnknownReason::kCancelled:
      return Status::Cancelled(detail);
    case UnknownReason::kMemoryLimit:
    case UnknownReason::kCandidateBudget:
    case UnknownReason::kExpansionBudget:
    case UnknownReason::kRejectedCandidates:
      return Status::ResourceExhausted(detail);
  }
  return Status::Internal(detail);
}

void BudgetLedger::Trip(UnknownReason reason, const std::string& message) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tripped_.load(std::memory_order_relaxed) != UnknownReason::kNone) {
    return;  // first trip wins
  }
  trip_message_ = message;
  // Release: a worker that observes the reason also observes the message
  // (readers of the message take the lock anyway; this orders the flag).
  tripped_.store(reason, std::memory_order_release);
}

int64_t BudgetLedger::SyncMemoryReadings() {
  int64_t total_memory = 0;
  for (const std::atomic<int64_t>& slot : worker_memory_) {
    total_memory += slot.load(std::memory_order_relaxed);
  }
  last_memory_.store(total_memory, std::memory_order_relaxed);
  int64_t peak = peak_memory_.load(std::memory_order_relaxed);
  while (total_memory > peak &&
         !peak_memory_.compare_exchange_weak(peak, total_memory,
                                             std::memory_order_relaxed)) {
  }
  return total_memory;
}

UnknownReason BudgetLedger::Check(bool expansion_budget) {
  UnknownReason tripped = trip_reason();
  if (tripped != UnknownReason::kNone) return tripped;
  polls_.fetch_add(1, std::memory_order_relaxed);
  if (limits_.cancellation != nullptr && limits_.cancellation->cancelled()) {
    Trip(UnknownReason::kCancelled,
         "cancelled after " + std::to_string(watch_.ElapsedSeconds()) + "s");
    return trip_reason();
  }
  double elapsed = watch_.ElapsedSeconds();
  if (elapsed > limits_.deadline_seconds) {
    Trip(UnknownReason::kTimeout,
         "timeout after " + std::to_string(limits_.deadline_seconds) + "s");
    return trip_reason();
  }
  int64_t total_memory = SyncMemoryReadings();
  if (limits_.max_memory_bytes >= 0 &&
      total_memory > limits_.max_memory_bytes) {
    Trip(UnknownReason::kMemoryLimit,
         "memory limit exceeded (~" + std::to_string(total_memory) +
             " bytes used, ceiling " +
             std::to_string(limits_.max_memory_bytes) + ")");
    return trip_reason();
  }
  if (expansion_budget && limits_.max_expansions >= 0 &&
      expansions_.load(std::memory_order_relaxed) >= limits_.max_expansions) {
    Trip(UnknownReason::kExpansionBudget,
         "expansion budget exhausted (" +
             std::to_string(limits_.max_expansions) + ")");
    return trip_reason();
  }
  return UnknownReason::kNone;
}

}  // namespace wave
