// Experiment: parallel core-sharded search scaling (PR 3).
//
// Measures wall-clock speedup of the work-stealing (assignment, core)
// shard engine as --jobs grows, on two contrasting workloads:
//
//   * e1_p7_exhaustive — E1's P7 under exhaustive equality-pattern
//     enumeration: 30 independent assignments, the shape the shard
//     queue was built for. This is the scaling headline: on a machine
//     with >= 4 hardware threads, jobs=4 is expected to finish >= 2x
//     faster than jobs=1.
//   * e1_p4 — a single-shard property (1 assignment x 1 core): nothing
//     to parallelize, so its numbers bound the engine's overhead (pool
//     spawn + prepared-spec copies) rather than its speedup.
//
// Every run asserts verdict identity against the jobs=1 baseline (the
// determinism contract of docs/PARALLELISM.md) before recording. The
// emitted BENCH_parallel.json carries {jobs, median_s, speedup_vs_j1,
// hardware_threads} per row, so perf trajectories across machines stay
// interpretable: on a single-core container every speedup is ~1x by
// construction, and the record says so.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.h"
#include "bench_util.h"

namespace {

using namespace wave;  // NOLINT: experiment harness

struct Workload {
  const char* label;
  const char* property;
  bool exhaustive;
};

}  // namespace

int main() {
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("parallel shard-engine scaling (hardware threads: %u)\n\n", hw);

  AppBundle e1 = BuildE1();
  Verifier verifier(e1.spec.get());
  bench::JsonLinesEmitter emitter("parallel");

  const std::vector<Workload> workloads = {
      {"e1_p7_exhaustive", "P7", true},
      {"e1_p4", "P4", false},
  };
  const std::vector<int> job_counts = {1, 2, 4, 8};
  const int kSamples = 3;

  int failures = 0;
  for (const Workload& w : workloads) {
    const Property* property = FindProperty(e1, w.property);
    if (property == nullptr) {
      std::fprintf(stderr, "no property %s in E1\n", w.property);
      return 1;
    }
    std::printf("== %s\n", w.label);
    std::printf("%-6s %10s %10s %12s %10s\n", "jobs", "median[s]", "min[s]",
                "expansions", "speedup");

    Verdict baseline_verdict = Verdict::kUnknown;
    double baseline_median = 0;
    for (int jobs : job_counts) {
      std::vector<double> times;
      VerifyResult last;
      for (int i = 0; i < kSamples; ++i) {
        VerifyOptions options;
        options.timeout_seconds = 300;
        options.exhaustive_existential = w.exhaustive;
        last = bench::RunProperty(verifier, *property, options, jobs);
        times.push_back(last.stats.seconds);
      }
      if (jobs == 1) {
        baseline_verdict = last.verdict;
      } else if (last.verdict != baseline_verdict) {
        // The determinism contract: any verdict drift across job counts
        // is a bug, and a scaling number for a wrong answer is useless.
        std::fprintf(stderr, "FAIL %s: verdict at jobs=%d differs from jobs=1\n",
                     w.label, jobs);
        ++failures;
        continue;
      }

      std::vector<double> sorted = times;
      std::sort(sorted.begin(), sorted.end());
      double median = sorted[sorted.size() / 2];
      if (jobs == 1) baseline_median = median;
      double speedup = median > 0 ? baseline_median / median : 0;
      std::printf("%-6d %10.3f %10.3f %12lld %9.2fx\n", jobs, median,
                  sorted.front(),
                  static_cast<long long>(last.stats.num_expansions), speedup);

      obs::Json params = obs::Json::Object();
      params.Set("workload", obs::Json::Str(w.label));
      params.Set("jobs", obs::Json::Int(jobs));
      params.Set("hardware_threads", obs::Json::Int(hw));
      obs::Json counters = last.stats.ToJson();
      counters.Set("speedup_vs_j1", obs::Json::Number(speedup));
      emitter.Emit(bench::TimingRecord(w.label, std::move(params),
                                       std::move(times), std::move(counters)));
    }
    std::printf("\n");
  }

  if (hw >= 4) {
    std::printf("expectation on this host (%u threads): jobs=4 on the "
                "sharded workload should be >= 2x jobs=1\n", hw);
  } else {
    std::printf("note: only %u hardware thread(s) — speedup is bounded at "
                "~1x here; the record still tracks engine overhead\n", hw);
  }
  return failures == 0 ? 0 : 1;
}
