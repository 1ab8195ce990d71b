// wave_bench — the suite-registry bench runner and regression gate
// (ISSUE 6). Runs one registered suite (e1..e4, or "verify" = all four)
// with warmup + min-of-N timing, writes schema-versioned JSON-lines
// records, and optionally gates against a committed baseline:
//
//   wave_bench --suite e1                       # run, write BENCH_e1.json
//   wave_bench --suite verify --out BENCH_verify.json
//   wave_bench --suite e1 --compare bench/baselines/BENCH_verify.json
//   wave_bench --suite e1 --compare ... --slowdown=2   # must exit 3
//
// Exit codes: 0 ok; 1 usage / I/O error; 2 verdict mismatch vs the
// bundle's expected verdicts; 3 regression vs the baseline.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/wave_bench_lib.h"
#include "obs/json.h"

#include "flags.h"

namespace {

/// Upper bound of the ratio flags: a sanity limit, not tuning advice.
constexpr double kMaxRatio = 1e9;

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: wave_bench --suite NAME [options]\n"
      "       wave_bench --list\n"
      "\n"
      "options:\n"
      "  --suite NAME           suite to run (--list shows the registry)\n"
      "  --warmup N             discarded runs per property (default 1)\n"
      "  --repeat N             timed runs per property (default 3)\n"
      "  --jobs N               engine worker count (default 1)\n"
      "  --timeout SECONDS      per-property budget (default 120)\n"
      "  --out PATH             JSON-lines output (default BENCH_<suite>.json)\n"
      "  --compare BASELINE     gate this run against a baseline file\n"
      "  --threshold-time F     relative time regression bound (default 0.75)\n"
      "  --threshold-counter F  relative counter drift bound (default 0: exact)\n"
      "  --min-time-ms F        noise floor for time gating (default 5)\n"
      "  --slowdown F           multiply measured times by F (gate self-test)\n"
      "  --quiet                suppress the per-property table\n");
}

bool ParseValue(int argc, char** argv, int* i, const char* flag,
                std::string* out) {
  size_t flag_len = std::strlen(flag);
  const char* arg = argv[*i];
  if (std::strncmp(arg, flag, flag_len) == 0 && arg[flag_len] == '=') {
    *out = arg + flag_len + 1;
    return true;
  }
  if (std::strcmp(arg, flag) == 0) {
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "wave_bench: %s needs a value\n", flag);
      std::exit(1);
    }
    *out = argv[++*i];
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string suite;
  std::string out_path;
  std::string compare_path;
  wave::bench::BenchConfig config;
  wave::bench::CompareThresholds thresholds;
  bool quiet = false;
  bool list = false;
  std::string error;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];  // the flag as typed, for a usage error
    std::string value;
    bool parsed = true;
    if (ParseValue(argc, argv, &i, "--suite", &value)) {
      suite = value;
    } else if (ParseValue(argc, argv, &i, "--warmup", &value)) {
      parsed = wave::ParseIntFlag(arg, value.c_str(), 0, wave::kMaxInt,
                                  &config.warmup, &error);
    } else if (ParseValue(argc, argv, &i, "--repeat", &value)) {
      parsed = wave::ParseIntFlag(arg, value.c_str(), 1, wave::kMaxInt,
                                  &config.repeat, &error);
    } else if (ParseValue(argc, argv, &i, "--jobs", &value)) {
      parsed = wave::ParseThreadsFlag(arg, value.c_str(), 0, &config.jobs,
                                      &error);
    } else if (ParseValue(argc, argv, &i, "--timeout", &value)) {
      parsed = wave::ParseNumberFlag(arg, value.c_str(), 0, wave::kMaxSeconds,
                                     &config.timeout_seconds, &error);
    } else if (ParseValue(argc, argv, &i, "--out", &value)) {
      out_path = value;
    } else if (ParseValue(argc, argv, &i, "--compare", &value)) {
      compare_path = value;
    } else if (ParseValue(argc, argv, &i, "--threshold-time", &value)) {
      parsed = wave::ParseNumberFlag(arg, value.c_str(), 0, kMaxRatio,
                                     &thresholds.time_frac, &error);
    } else if (ParseValue(argc, argv, &i, "--threshold-counter", &value)) {
      parsed = wave::ParseNumberFlag(arg, value.c_str(), 0, kMaxRatio,
                                     &thresholds.counter_frac, &error);
    } else if (ParseValue(argc, argv, &i, "--min-time-ms", &value)) {
      double ms = 0;
      parsed = wave::ParseNumberFlag(arg, value.c_str(), 0,
                                     wave::kMaxSeconds * 1e3, &ms, &error);
      thresholds.min_time_s = ms / 1000.0;
    } else if (ParseValue(argc, argv, &i, "--slowdown", &value)) {
      parsed = wave::ParseNumberFlag(arg, value.c_str(), 0, kMaxRatio,
                                     &config.slowdown, &error);
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else if (std::strcmp(argv[i], "--list") == 0) {
      list = true;
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      PrintUsage();
      return 0;
    } else {
      std::fprintf(stderr, "wave_bench: unknown flag '%s'\n", argv[i]);
      PrintUsage();
      return 1;
    }
    if (!parsed) {
      std::fprintf(stderr, "wave_bench: %s\n", error.c_str());
      PrintUsage();
      return 1;
    }
  }

  if (list) {
    for (const std::string& name : wave::bench::BenchSuiteNames()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (suite.empty()) {
    PrintUsage();
    return 1;
  }
  if (config.slowdown <= 0) {
    std::fprintf(stderr, "wave_bench: --slowdown must be > 0\n");
    return 1;
  }

  std::vector<wave::obs::Json> records;
  int mismatches = wave::bench::RunBenchSuite(suite, config, &records, &error,
                                              /*verbose=*/!quiet);
  if (mismatches < 0) {
    std::fprintf(stderr, "wave_bench: %s\n", error.c_str());
    return 1;
  }

  if (out_path.empty()) {
    out_path = "BENCH_" + wave::bench::SanitizeBenchName(suite) + ".json";
  }
  {
    std::ofstream out(out_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "wave_bench: cannot write %s\n", out_path.c_str());
      return 1;
    }
    for (const wave::obs::Json& r : records) out << r.Dump() << "\n";
  }
  if (!quiet) {
    std::printf("wrote %zu record(s) -> %s\n", records.size(),
                out_path.c_str());
  }

  int exit_code = 0;
  if (mismatches > 0) {
    std::fprintf(stderr, "wave_bench: %d verdict mismatch(es)\n", mismatches);
    exit_code = 2;
  }

  if (!compare_path.empty()) {
    std::vector<wave::obs::Json> baseline;
    if (!wave::bench::LoadJsonLines(compare_path, &baseline, &error)) {
      std::fprintf(stderr, "wave_bench: %s\n", error.c_str());
      return 1;
    }
    wave::bench::CompareResult cmp =
        wave::bench::CompareRecords(baseline, records, thresholds);
    std::printf("%s", cmp.Summary().c_str());
    if (!cmp.ok() && exit_code == 0) exit_code = 3;
  }
  return exit_code;
}
