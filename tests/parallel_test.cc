// PR 3 — the parallel core-sharded search engine and the unified
// VerifyRequest API.
//
// The headline contract is *determinism*: for every bundled application
// and every property, the verdict at --jobs=N is identical to --jobs=1,
// and any counterexample produced (which MAY differ between job counts —
// the first worker to claim wins) replays as a genuine violating run.
// The suite also covers prompt cooperative cancellation of a worker
// fleet, the ShardQueue / BudgetLedger / WorkerPool building blocks, and
// the request-selector surface of the API.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "apps/apps.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "parser/parser.h"
#include "verifier/governor.h"
#include "verifier/shard.h"
#include "verifier/validate.h"
#include "verifier/verifier.h"
#include "verifier/worker_pool.h"

#include "verify_helpers.h"

namespace wave {
namespace {

// --- determinism across job counts -------------------------------------------

struct ParallelCase {
  const char* name;
  AppBundle (*build)();
  int jobs;
};

// Without this gtest prints the param's raw bytes, a function pointer
// included, so the listed test names would change from build to build.
void PrintTo(const ParallelCase& c, std::ostream* os) {
  *os << c.name << " jobs=" << c.jobs;
}

class DeterminismTest : public ::testing::TestWithParam<ParallelCase> {};

// Every property of the bundled app: verdict at `jobs` workers equals the
// sequential verdict (the parser bundles the expected one), and violated
// properties must come back with a *genuine* counterexample regardless of
// which worker won the race to claim it.
TEST_P(DeterminismTest, VerdictsMatchSequentialAndWitnessesAreGenuine) {
  AppBundle bundle = GetParam().build();
  Verifier verifier(bundle.spec.get());
  for (const ParsedProperty& p : bundle.properties) {
    ASSERT_TRUE(p.has_expected) << p.property.name;
    VerifyOptions options;
    options.timeout_seconds = 120;
    VerifyResult r =
        RunVerify(verifier, p.property, options, GetParam().jobs);
    ASSERT_NE(r.verdict, Verdict::kUnknown)
        << GetParam().name << "/" << p.property.name << " jobs="
        << GetParam().jobs << ": " << r.failure_reason;
    EXPECT_EQ(r.verdict == Verdict::kHolds, p.expected)
        << GetParam().name << "/" << p.property.name
        << " jobs=" << GetParam().jobs;
    if (r.verdict == Verdict::kViolated) {
      ValidationResult validation =
          ValidateCounterexample(bundle.spec.get(), p.property, r);
      EXPECT_TRUE(validation.genuine)
          << GetParam().name << "/" << p.property.name << " jobs="
          << GetParam().jobs << ": " << validation.reason;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, DeterminismTest,
    ::testing::Values(ParallelCase{"E1", BuildE1, 2},
                      ParallelCase{"E1", BuildE1, 8},
                      ParallelCase{"E2", BuildE2, 2},
                      ParallelCase{"E2", BuildE2, 8},
                      ParallelCase{"E3", BuildE3, 2},
                      ParallelCase{"E3", BuildE3, 8},
                      ParallelCase{"E4", BuildE4, 2},
                      ParallelCase{"E4", BuildE4, 8}),
    [](const ::testing::TestParamInfo<ParallelCase>& info) {
      return std::string(info.param.name) + "_jobs" +
             std::to_string(info.param.jobs);
    });

// Aggregate statistics that do not depend on worker scheduling must be
// bit-identical across job counts: assignments enumerated, cores searched,
// and the verdict. (Expansions MAY differ on violated properties — workers
// that lose the race still count partial work — so they are only compared
// on a property that holds.)
TEST(DeterminismTest, HoldingPropertyStatsAreJobCountInvariant) {
  AppBundle bundle = BuildE1();
  const ParsedProperty* holds = nullptr;
  for (const ParsedProperty& p : bundle.properties) {
    if (p.has_expected && p.expected) {
      holds = &p;
      break;
    }
  }
  ASSERT_NE(holds, nullptr);
  Verifier verifier(bundle.spec.get());
  VerifyResult sequential = RunVerify(verifier, holds->property, {}, 1);
  ASSERT_EQ(sequential.verdict, Verdict::kHolds);
  for (int jobs : {2, 4, 8}) {
    VerifyResult parallel = RunVerify(verifier, holds->property, {}, jobs);
    EXPECT_EQ(parallel.verdict, Verdict::kHolds) << "jobs=" << jobs;
    EXPECT_EQ(parallel.stats.num_assignments, sequential.stats.num_assignments)
        << "jobs=" << jobs;
    EXPECT_EQ(parallel.stats.num_cores, sequential.stats.num_cores)
        << "jobs=" << jobs;
    EXPECT_EQ(parallel.stats.num_expansions, sequential.stats.num_expansions)
        << "jobs=" << jobs;
  }
}

// --- cooperative cancellation of a worker fleet -------------------------------

// A pre-cancelled token trips the ledger on the first poll: every worker
// must exit promptly and the merged verdict is kUnknown/kCancelled.
TEST(ParallelCancellationTest, PreCancelledTokenStopsAllWorkers) {
  AppBundle bundle = BuildE3();
  Verifier verifier(bundle.spec.get());
  CancellationToken token;
  token.Cancel();
  VerifyOptions options;
  options.cancellation = &token;
  Stopwatch watch;
  VerifyResult r = RunVerify(verifier, bundle.properties[0].property, options,
                             /*jobs=*/4);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(r.unknown_reason, UnknownReason::kCancelled);
  EXPECT_LT(watch.ElapsedSeconds(), 30.0);
}

// Mid-search cancellation: the candidate filter fires inside a worker's
// NDFS (serialized under the engine mutex), cancels the shared token and
// rejects the candidate. The search must then stop at the next budget
// poll instead of running the remaining shards, and the trip must beat
// the would-be kHolds verdict in the merge.
TEST(ParallelCancellationTest, MidSearchCancellationIsPrompt) {
  AppBundle bundle = BuildE1();
  const ParsedProperty* violated = nullptr;
  for (const ParsedProperty& p : bundle.properties) {
    if (p.has_expected && !p.expected) {
      violated = &p;
      break;
    }
  }
  ASSERT_NE(violated, nullptr);
  Verifier verifier(bundle.spec.get());
  CancellationToken token;
  std::atomic<int> candidates_seen{0};
  VerifyOptions options;
  options.cancellation = &token;
  options.candidate_filter =
      [&](const std::vector<CounterexampleStep>&,
          const std::vector<CounterexampleStep>&,
          const std::map<std::string, SymbolId>&) {
        candidates_seen.fetch_add(1);
        token.Cancel();
        return false;  // reject: without the cancel the search would go on
      };
  VerifyResult r =
      RunVerify(verifier, violated->property, options, /*jobs=*/4);
  ASSERT_GE(candidates_seen.load(), 1);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(r.unknown_reason, UnknownReason::kCancelled);
}

// --- ShardQueue ---------------------------------------------------------------

std::vector<ShardBlock> MakeBlocks(std::vector<std::pair<int, int64_t>> sizes) {
  std::vector<ShardBlock> blocks;
  for (auto [assignment, cores] : sizes) {
    blocks.push_back(ShardBlock{assignment, 0, cores});
  }
  return blocks;
}

TEST(ShardQueueTest, SingleWorkerDrainsInEnumerationOrder) {
  ShardQueue queue(MakeBlocks({{0, 3}, {1, 2}}), 1);
  EXPECT_EQ(queue.total_shards(), 5);
  std::vector<std::pair<int, int64_t>> popped;
  Shard shard;
  while (queue.Pop(0, &shard)) popped.emplace_back(shard.assignment, shard.core);
  std::vector<std::pair<int, int64_t>> expected = {
      {0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}};
  EXPECT_EQ(popped, expected);
  EXPECT_EQ(queue.steals(), 0);
}

TEST(ShardQueueTest, EveryShardDeliveredExactlyOnceAcrossWorkers) {
  const int kWorkers = 4;
  ShardQueue queue(MakeBlocks({{0, 64}, {1, 1}, {2, 17}, {3, 32}}), kWorkers);
  std::mutex mu;
  std::set<std::pair<int, int64_t>> seen;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      Shard shard;
      while (queue.Pop(w, &shard)) {
        std::lock_guard<std::mutex> lock(mu);
        bool inserted = seen.insert({shard.assignment, shard.core}).second;
        EXPECT_TRUE(inserted) << shard.assignment << "/" << shard.core;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(static_cast<int64_t>(seen.size()), queue.total_shards());
}

TEST(ShardQueueTest, IdleWorkerStealsFromBusyVictim) {
  // Two workers, one big block: round-robin gives it to worker 0, so the
  // only way worker 1 gets anything is a steal of the range's upper half.
  ShardQueue queue(MakeBlocks({{0, 100}}), 2);
  Shard shard;
  ASSERT_TRUE(queue.Pop(1, &shard));
  EXPECT_EQ(queue.steals(), 1);
  EXPECT_GE(shard.core, 50);  // the thief takes the upper half
  // The owner still drains its (shrunk) share from the front.
  ASSERT_TRUE(queue.Pop(0, &shard));
  EXPECT_EQ(shard.core, 0);
}

// --- BudgetLedger -------------------------------------------------------------

TEST(BudgetLedgerTest, FirstTripWinsAndStopsEveryWorker) {
  GovernorLimits limits;
  BudgetLedger ledger(limits, 4);
  EXPECT_FALSE(ledger.stop_requested());
  ledger.Trip(UnknownReason::kExpansionBudget, "first");
  ledger.Trip(UnknownReason::kTimeout, "second");
  EXPECT_EQ(ledger.trip_reason(), UnknownReason::kExpansionBudget);
  EXPECT_EQ(ledger.trip_message(), "first");
  EXPECT_TRUE(ledger.stop_requested());
}

TEST(BudgetLedgerTest, SharedExpansionBudgetTripsAcrossWorkers) {
  GovernorLimits limits;
  limits.max_expansions = 100;
  BudgetLedger ledger(limits, 2);
  ledger.AddExpansions(60);  // worker 0's batch
  ledger.AddExpansions(60);  // worker 1's batch — joint total crosses 100
  EXPECT_EQ(ledger.Check(), UnknownReason::kExpansionBudget);
}

TEST(BudgetLedgerTest, SyncMemoryReadingsFoldsWorkerSlotsIntoPeak) {
  GovernorLimits limits;
  BudgetLedger ledger(limits, 2);
  ledger.ReportWorkerMemory(0, 1000);
  ledger.ReportWorkerMemory(1, 500);
  ledger.SyncMemoryReadings();
  ledger.ReportWorkerMemory(0, 100);  // shrink: peak must not regress
  ledger.SyncMemoryReadings();
  EXPECT_EQ(ledger.readings().memory_bytes, 600);
  EXPECT_EQ(ledger.readings().peak_memory_bytes, 1500);
}

TEST(BudgetLedgerTest, CancellationTokenTripsOnCheck) {
  CancellationToken token;
  GovernorLimits limits;
  limits.cancellation = &token;
  BudgetLedger ledger(limits, 1);
  EXPECT_EQ(ledger.Check(), UnknownReason::kNone);
  token.Cancel();
  EXPECT_EQ(ledger.Check(), UnknownReason::kCancelled);
  EXPECT_TRUE(ledger.stop_requested());
}

// --- WorkerPool ---------------------------------------------------------------

TEST(WorkerPoolTest, ResolveJobsSemantics) {
  EXPECT_EQ(WorkerPool::ResolveJobs(1), 1);
  EXPECT_EQ(WorkerPool::ResolveJobs(7), 7);
  EXPECT_GE(WorkerPool::ResolveJobs(0), 1);   // auto: one per hardware thread
  EXPECT_GE(WorkerPool::ResolveJobs(-3), 1);  // negative behaves like auto
}

TEST(WorkerPoolTest, RunsEveryWorkerAndWaitDoneBlocks) {
  WorkerPool pool(3);
  std::atomic<int> ran{0};
  pool.Start([&](int worker) {
    EXPECT_GE(worker, 0);
    EXPECT_LT(worker, 3);
    ran.fetch_add(1);
  });
  EXPECT_TRUE(pool.WaitDone(-1));
  pool.Join();
  EXPECT_EQ(ran.load(), 3);
}

// --- the unified request API --------------------------------------------------

TEST(VerifyRequestTest, SelectsByNameAndIndex) {
  AppBundle bundle = BuildE1();
  Verifier verifier(bundle.spec.get());
  std::vector<Property> catalog = CatalogOf(bundle);

  VerifyRequest by_name;
  by_name.properties = &catalog;
  by_name.property_name = catalog[1].name;
  StatusOr<VerifyResponse> named = verifier.Run(by_name);
  ASSERT_TRUE(named.ok()) << named.status().message();

  VerifyRequest by_index;
  by_index.properties = &catalog;
  by_index.property_index = 1;
  StatusOr<VerifyResponse> indexed = verifier.Run(by_index);
  ASSERT_TRUE(indexed.ok()) << indexed.status().message();
  EXPECT_EQ(named->verdict, indexed->verdict);
}

TEST(VerifyRequestTest, BadSelectorsAreInvalidArgument) {
  AppBundle bundle = BuildE1();
  Verifier verifier(bundle.spec.get());
  std::vector<Property> catalog = {bundle.properties[0].property};

  VerifyRequest empty;  // no property, no catalog
  EXPECT_EQ(verifier.Run(empty).status().code(), StatusCode::kInvalidArgument);

  VerifyRequest bad_name;
  bad_name.properties = &catalog;
  bad_name.property_name = "no_such_property";
  EXPECT_EQ(verifier.Run(bad_name).status().code(),
            StatusCode::kInvalidArgument);

  VerifyRequest bad_index;
  bad_index.properties = &catalog;
  bad_index.property_index = 99;
  EXPECT_EQ(verifier.Run(bad_index).status().code(),
            StatusCode::kInvalidArgument);
}

// Parallel runs surface their shape in the metrics registry and merge
// worker trace spans (tid >= 2) into the caller's tracer.
TEST(VerifyRequestTest, ParallelObservabilitySurfaces) {
  AppBundle bundle = BuildE3();
  Verifier verifier(bundle.spec.get());
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  VerifyOptions options;
  options.tracer = &tracer;
  options.metrics = &metrics;
  VerifyResult r =
      RunVerify(verifier, bundle.properties[0].property, options, /*jobs=*/4);
  ASSERT_NE(r.verdict, Verdict::kUnknown) << r.failure_reason;
  EXPECT_EQ(metrics.gauge("verify.jobs")->value(), 4);
  bool worker_span_seen = false;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (e.tid >= 2) worker_span_seen = true;
  }
  EXPECT_TRUE(worker_span_seen);
}

}  // namespace
}  // namespace wave
