// Resource governor for one verification attempt (ISSUE 2).
//
// Section 7 of the paper accepts that an attempt may come back
// inconclusive; this file makes "inconclusive" a first-class, *specific*
// outcome. A `BudgetLedger` owns every enforced ceiling of one attempt —
// wall-clock deadline, expansion budget, approximate memory ceiling (fed
// by the visited-set and search-stack accounting), and a thread-safe
// cooperative cancellation token — shared by the attempt's workers: it
// aggregates expansion/memory totals through relaxed atomics, latches the
// first tripped limit, and fans the stop out to every worker. Each worker
// (one when jobs = 1) drives a `WorkerGovernor`, the strided per-thread
// ticker the search hot loops call once per expansion, and once per
// configuration completed between expansions: expensive sources
// (the steady clock, the memory comparison) are only consulted every
// `kPollStride` ticks, so governance costs a counter increment and one
// relaxed atomic load per expansion while cancellation and deadline still
// land within milliseconds.
//
// The ledger answers *which* limit tripped via `UnknownReason`, the enum
// every `Verdict::kUnknown` result carries.
#ifndef WAVE_VERIFIER_GOVERNOR_H_
#define WAVE_VERIFIER_GOVERNOR_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"

namespace wave {

/// Why a verification attempt returned `Verdict::kUnknown`. Budget-limited
/// reasons (`kCandidateBudget`, `kExpansionBudget`) are the ones a retry
/// ladder can escalate away; `kTimeout`/`kMemoryLimit`/`kCancelled` end
/// the ladder.
enum class UnknownReason {
  kNone = 0,            // verdict is not kUnknown
  kTimeout,             // wall-clock deadline exceeded
  kMemoryLimit,         // approximate memory ceiling exceeded
  kCandidateBudget,     // candidate-tuple set overflowed max_candidates
  kExpansionBudget,     // max_expansions exhausted
  kCancelled,           // cooperative cancellation (signal, caller)
  kRejectedCandidates,  // search exhausted after discarding spurious
                        // counterexamples (incomplete-verifier mode)
};

/// Stable snake_case name ("timeout", "candidate_budget", ...) for logs,
/// stats JSON and test assertions.
const char* UnknownReasonName(UnknownReason reason);

/// True for reasons a larger budget could cure (retry-ladder escalation).
bool IsBudgetLimited(UnknownReason reason);

/// Maps a trip reason to the equivalent Status code (kOk for kNone).
Status UnknownReasonToStatus(UnknownReason reason, const std::string& detail);

/// Thread-safe cooperative cancellation flag. `Cancel()` is callable from
/// another thread or from a signal handler (lock-free atomic store); the
/// search observes it at the next governor poll.
class CancellationToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  void Reset() { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// The ceilings one governor enforces. Negative budgets mean "unlimited".
struct GovernorLimits {
  double deadline_seconds = 120.0;
  int64_t max_expansions = -1;
  int64_t max_memory_bytes = -1;
  /// Not owned; may be null (never cancelled) or shared across attempts.
  const CancellationToken* cancellation = nullptr;
};

/// Final readings exported into `VerifyStats` when the attempt ends.
struct GovernorReadings {
  double elapsed_seconds = 0;
  int64_t polls = 0;              // full polls performed
  int64_t memory_bytes = 0;       // last reported estimate
  int64_t peak_memory_bytes = 0;  // high-water mark of the estimate
};

/// Shared budget state of one verification attempt, over its 1..N workers.
///
/// The limits of `GovernorLimits` are *global*: the expansion budget and
/// the memory ceiling bound the sum over every worker, the deadline clock
/// starts at construction (cover prepare/dataflow by constructing the
/// ledger at the top of the attempt), and the first tripped limit latches
/// and stops every worker. Workers never touch the ledger directly on the
/// hot path — they batch deltas through a `WorkerGovernor`, so a budget
/// may be overshot by at most `workers × kPollStride` expansions.
///
/// `RequestStop()` is the non-trip fan-out (first counterexample wins):
/// it sets the stop flag without recording an UnknownReason.
class BudgetLedger {
 public:
  /// `num_workers` fixes the per-worker memory slots (worker ids are
  /// 0..num_workers-1).
  BudgetLedger(const GovernorLimits& limits, int num_workers)
      : limits_(limits),
        worker_memory_(num_workers > 0 ? num_workers : 1) {}

  /// Folds a worker's expansion delta into the global total (relaxed: the
  /// total only gates budgets, it orders nothing).
  void AddExpansions(int64_t delta) {
    expansions_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t expansions() const {
    return expansions_.load(std::memory_order_relaxed);
  }

  /// Publishes `worker`'s current memory estimate (bytes).
  void ReportWorkerMemory(int worker, int64_t bytes) {
    worker_memory_[worker].store(bytes, std::memory_order_relaxed);
  }

  /// Full poll of every limit against the aggregated readings, in the
  /// order cancellation, deadline, memory, expansions. Trips — and
  /// thereby stops every worker — on the first violated limit.
  /// Thread-safe; callable from any worker and from phase boundaries on
  /// the coordinating thread. `expansion_budget` false leaves that last
  /// limit out, for polls made between expansions, which spend none.
  UnknownReason Check(bool expansion_budget = true);

  /// Latches `reason` (first trip wins) and stops the workers.
  void Trip(UnknownReason reason, const std::string& message);

  /// Folds the current per-worker memory slots into the last/peak readings
  /// WITHOUT checking any limit — end-of-attempt bookkeeping must not trip
  /// a deadline the search already beat. Returns the folded total.
  int64_t SyncMemoryReadings();

  /// Stops every worker without recording a trip — used when a worker
  /// found a counterexample and the remaining shards are moot.
  void RequestStop() { stop_.store(true, std::memory_order_relaxed); }

  /// True once a limit tripped or a stop was requested; workers poll this
  /// every expansion (one relaxed load).
  bool stop_requested() const {
    return stop_.load(std::memory_order_relaxed) ||
           trip_reason() != UnknownReason::kNone;
  }

  UnknownReason trip_reason() const {
    return tripped_.load(std::memory_order_acquire);
  }
  std::string trip_message() const {
    std::lock_guard<std::mutex> lock(mu_);
    return trip_message_;
  }

  double ElapsedSeconds() const { return watch_.ElapsedSeconds(); }
  const GovernorLimits& limits() const { return limits_; }

  GovernorReadings readings() const {
    GovernorReadings r;
    r.elapsed_seconds = watch_.ElapsedSeconds();
    r.polls = polls_.load(std::memory_order_relaxed);
    r.memory_bytes = last_memory_.load(std::memory_order_relaxed);
    r.peak_memory_bytes = peak_memory_.load(std::memory_order_relaxed);
    return r;
  }

  /// Expansions between a worker's full polls. Deadline/cancellation
  /// latency is this many expansions — microseconds-to-low-milliseconds
  /// of work.
  static constexpr int64_t kPollStride = 16;

 private:
  GovernorLimits limits_;
  Stopwatch watch_;
  std::vector<std::atomic<int64_t>> worker_memory_;
  std::atomic<int64_t> expansions_{0};
  std::atomic<int64_t> polls_{0};
  std::atomic<int64_t> last_memory_{0};
  std::atomic<int64_t> peak_memory_{0};
  std::atomic<bool> stop_{false};
  std::atomic<UnknownReason> tripped_{UnknownReason::kNone};
  mutable std::mutex mu_;  // guards trip_message_
  std::string trip_message_;
};

/// Per-worker front end of a `BudgetLedger`: a strided Tick/Poll protocol
/// whose deltas flow into the shared ledger and whose trips flow back
/// out. One instance per worker thread; never shared.
class WorkerGovernor {
 public:
  WorkerGovernor(BudgetLedger* ledger, int worker)
      : ledger_(ledger), worker_(worker) {}

  /// Binds the worker-local expansion counter the global budget is
  /// predicted against between flushes.
  void WatchExpansions(const int64_t* expansions) { expansions_ = expansions; }

  /// Updates the worker's memory estimate; forwarded to the ledger at the
  /// next poll.
  void ReportMemory(int64_t bytes) { memory_bytes_ = bytes; }

  /// Hot-loop probe, one call per expansion. Cheap ticks cost a relaxed
  /// load of the ledger trip state plus a counter compare; every
  /// `kPollStride`-th tick flushes the local deltas and runs the full
  /// ledger check. With one worker the expansion budget is exact; with N
  /// workers it may overshoot by at most N × kPollStride.
  UnknownReason Tick() {
    UnknownReason tripped = ledger_->trip_reason();
    if (tripped != UnknownReason::kNone) return tripped;
    const GovernorLimits& limits = ledger_->limits();
    if (expansions_ != nullptr && limits.max_expansions >= 0 &&
        shared_expansions_ + (*expansions_ - flushed_) >=
            limits.max_expansions) {
      return Poll();
    }
    if (limits.cancellation != nullptr && limits.cancellation->cancelled()) {
      return Poll();
    }
    if (ticks_++ % BudgetLedger::kPollStride == 0) return Poll();
    return UnknownReason::kNone;
  }

  /// Probe for work done between expansions: completing one `succP`
  /// skeleton interns up to 2^|extension| × input choices configurations
  /// before the next expansion. Same cheap checks and stride as `Tick`,
  /// on a counter of its own so completions do not shift `Tick`'s poll
  /// phase, but a full poll leaves out the expansion budget, which only
  /// expansions spend.
  UnknownReason TickWork() {
    UnknownReason tripped = ledger_->trip_reason();
    if (tripped != UnknownReason::kNone) return tripped;
    const GovernorLimits& limits = ledger_->limits();
    if ((limits.cancellation != nullptr && limits.cancellation->cancelled()) ||
        work_ticks_++ % BudgetLedger::kPollStride == 0) {
      return Poll(/*expansion_budget=*/false);
    }
    return UnknownReason::kNone;
  }

  /// Flush + full ledger check (also called by `Tick` on stride
  /// boundaries and at phase boundaries).
  UnknownReason Poll(bool expansion_budget = true) {
    Flush();
    shared_expansions_ = ledger_->expansions();
    return ledger_->Check(expansion_budget);
  }

  /// Publishes the unflushed expansion delta and the memory estimate to
  /// the ledger. Call when the worker finishes (or abandons) its work so
  /// the merged stats see everything.
  void Flush() {
    if (expansions_ != nullptr) {
      ledger_->AddExpansions(*expansions_ - flushed_);
      flushed_ = *expansions_;
    }
    ledger_->ReportWorkerMemory(worker_, memory_bytes_);
  }

  BudgetLedger* ledger() const { return ledger_; }

 private:
  BudgetLedger* ledger_;
  int worker_;
  const int64_t* expansions_ = nullptr;
  int64_t flushed_ = 0;             // local expansions already in the ledger
  int64_t shared_expansions_ = 0;   // ledger total at the last poll
  int64_t ticks_ = 0;
  int64_t work_ticks_ = 0;
  int64_t memory_bytes_ = 0;
};

}  // namespace wave

#endif  // WAVE_VERIFIER_GOVERNOR_H_
