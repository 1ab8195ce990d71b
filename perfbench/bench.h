// Shared pieces of the benchmark harness: run options, the result every
// workload fills, the bundled E1–E4 catalog, the seeded generated corpus
// with its first-cut reference verdicts, and small statistics helpers.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "testing/spec_gen.h"
#include "verifier/verifier.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string root;       // source checkout: specs/ and bench/baselines/
  std::string serve_bin;  // the wave_serve daemon binary
  std::string work_dir;   // scratch space for caches and traces
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports; `main` prints it as the final JSON line.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;  // wrong + unknown + error + refused + dropped
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records one failed operation (and prints why, to stderr).
  void Fail(const std::string& why);
};

/// One bundled spec of specs/: its source text and, per property, the
/// `expect` annotation that is the reference verdict.
struct CatalogSpec {
  std::string suite;  // "e1" .. "e4" (the BENCH_verify.json prefix)
  std::string text;
  std::vector<std::string> properties;
  std::vector<bool> expect_holds;
};

/// Reads and parses specs/e1..e4 under `root`. Empty on any error (the
/// reason goes to stderr).
std::vector<CatalogSpec> LoadCatalog(const std::string& root);

/// The frozen generator shape of the `generated` workload: wider than the
/// fuzz defaults (6 pages, 4 constants, property depth 4).
wave::testing::GeneratorConfig FrozenGeneratorConfig();

/// A generated case with its reference verdict from `FirstCutVerifier`.
struct ReferenceCase {
  wave::testing::FuzzCase fuzz;
  std::string text;  // spec + property, what the parser reads
  wave::Verdict reference = wave::Verdict::kUnknown;
};

/// Draws `count` cases of shape `config` from the seeded stream of
/// `seed`, skipping every case the first-cut baseline cannot decide within
/// its budget (the skips are counted in `*skipped`). Deterministic per
/// seed. Returns fewer cases only when 20 * `count` draws were not enough.
std::vector<ReferenceCase> DrawReferenceCorpus(
    uint64_t seed, int count, const wave::testing::GeneratorConfig& config,
    int* skipped);

/// SplitMix64 step: the harness's seed derivation.
uint64_t Mix(uint64_t x);

/// Quantile with linear interpolation between order statistics (the
/// inclusive method of Python's statistics.quantiles); 0 when empty.
double Quantile(std::vector<double> values, double q);

/// Peak resident set (VmHWM) of `pid` (0 = this process), in MiB.
double PeakRssMb(pid_t pid);

std::string VerdictName(wave::Verdict verdict);

/// The workloads. Each fills `result`; a false return is a set-up error
/// (no result is printed).
bool RunPaper(const RunOptions& options, RunResult* result);
bool RunGenerated(const RunOptions& options, RunResult* result);
bool RunServe(const RunOptions& options, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
