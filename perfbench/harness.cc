// perfbench_harness — the WAVE benchmark (see README.md).
//
//   perfbench_harness --workload=paper|generated|serve --seed=N
//                     --seconds=S --trace=0|1 --root=DIR --work-dir=DIR
//
// Runs one workload for S seconds of measurement, checks every verdict
// against a reference that does not come from WAVE, prints human-readable
// lines, and ends its standard output with one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// --trace=0 reports the end-to-end metrics, --trace=1 the per-layer ones
// (and writes a Chrome trace under --work-dir). Exit 0 on a complete run,
// 1 on a usage or set-up error, 2 when any verdict was wrong.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "baseline/firstcut.h"
#include "bench.h"
#include "common/io.h"
#include "parser/parser.h"

#ifndef PERFBENCH_SERVE_BIN
#define PERFBENCH_SERVE_BIN ""
#endif
#ifndef PERFBENCH_ROOT
#define PERFBENCH_ROOT ""
#endif

namespace perfbench {

void RunResult::Fail(const std::string& why) {
  ++failed;
  correct = false;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

std::vector<CatalogSpec> LoadCatalog(const std::string& root) {
  const char* files[][2] = {{"e1", "e1_shopping.spec"},
                            {"e2", "e2_motogp.spec"},
                            {"e3", "e3_airline.spec"},
                            {"e4", "e4_bookstore.spec"}};
  std::vector<CatalogSpec> catalog;
  for (const auto& [suite, file] : files) {
    CatalogSpec spec;
    spec.suite = suite;
    wave::StatusOr<std::string> text =
        wave::ReadFileToString(root + "/specs/" + file);
    if (!text.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", text.status().ToString().c_str());
      return {};
    }
    spec.text = std::move(*text);
    wave::ParseResult parsed = wave::ParseSpec(spec.text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "perfbench: %s does not parse\n", file);
      return {};
    }
    for (const wave::ParsedProperty& p : parsed.properties) {
      if (!p.has_expected) {
        std::fprintf(stderr, "perfbench: %s/%s has no expect annotation\n",
                     file, p.property.name.c_str());
        return {};
      }
      spec.properties.push_back(p.property.name);
      spec.expect_holds.push_back(p.expected);
    }
    catalog.push_back(std::move(spec));
  }
  return catalog;
}

wave::testing::GeneratorConfig FrozenGeneratorConfig() {
  wave::testing::GeneratorConfig config;
  config.max_pages = 6;
  config.max_constants = 4;
  config.allow_second_database = true;
  config.allow_actions = true;
  config.max_property_depth = 4;
  config.max_forall_vars = 1;
  return config;
}

std::vector<ReferenceCase> DrawReferenceCorpus(
    uint64_t seed, int count, const wave::testing::GeneratorConfig& config,
    int* skipped) {
  // The skip rule depends only on deterministic budgets (expansions,
  // database tuple bits), never on wall time, so a seed draws the same
  // corpus on every host. The timeout is a backstop only.
  wave::FirstCutOptions budget;
  budget.extra_domain_values = 1;
  budget.max_expansions = 2000;
  budget.max_db_tuple_bits = 12;
  budget.timeout_seconds = 30;

  std::vector<ReferenceCase> corpus;
  *skipped = 0;
  // Bounded, so a generator that stops producing decidable cases fails
  // the set-up instead of hanging it.
  for (uint64_t i = 0; static_cast<int>(corpus.size()) < count &&
                       i < 20 * static_cast<uint64_t>(count);
       ++i) {
    ReferenceCase c;
    c.fuzz = wave::testing::GenerateCase(Mix(seed ^ Mix(i)), config);
    c.text = c.fuzz.Text();
    wave::ParseResult parsed = wave::ParseSpec(c.text);
    if (!parsed.ok() || parsed.properties.size() != 1) {
      ++*skipped;
      continue;
    }
    wave::FirstCutVerifier baseline(parsed.spec.get());
    c.reference = baseline.Verify(parsed.properties[0].property, budget).verdict;
    if (c.reference == wave::Verdict::kUnknown) {
      ++*skipped;
      continue;
    }
    corpus.push_back(std::move(c));
  }
  return corpus;
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] * (1 - frac) + values[hi] * frac;
}

double PeakRssMb(pid_t pid) {
  std::string path = pid == 0 ? std::string("/proc/self/status")
                              : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

std::string VerdictName(wave::Verdict verdict) {
  switch (verdict) {
    case wave::Verdict::kHolds:
      return "holds";
    case wave::Verdict::kViolated:
      return "violated";
    case wave::Verdict::kUnknown:
      break;
  }
  return "unknown";
}

namespace {

constexpr char kUsage[] =
    "usage: perfbench_harness --workload=paper|generated|serve --seed=N "
    "--seconds=S --trace=0|1 [--root=DIR] [--work-dir=DIR]\n";

bool ParseArgs(int argc, char** argv, RunOptions* out) {
  out->root = PERFBENCH_ROOT;
  out->serve_bin = PERFBENCH_SERVE_BIN;
  out->work_dir = ".";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    size_t eq = arg.find('=');
    if (eq == std::string::npos) return false;
    std::string flag = arg.substr(0, eq), value = arg.substr(eq + 1);
    char* end = nullptr;
    if (flag == "--workload") {
      out->workload = value;
    } else if (flag == "--seed") {
      out->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      out->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && out->seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      out->trace = value == "1";
    } else if (flag == "--root") {
      out->root = value;
    } else if (flag == "--work-dir") {
      out->work_dir = value;
    } else {
      return false;
    }
  }
  return have_seed && have_seconds && have_trace &&
         (out->workload == "paper" || out->workload == "generated" ||
          out->workload == "serve");
}

void PrintResult(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  char buf[96];
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    // Non-finite values (an empty sample) are not JSON; report 0.
    double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fputs(kUsage, stderr);
    return 1;
  }
  RunResult result;
  bool ran = false;
  if (options.workload == "paper") {
    ran = RunPaper(options, &result);
  } else if (options.workload == "generated") {
    ran = RunGenerated(options, &result);
  } else {
    ran = RunServe(options, &result);
  }
  if (!ran) {
    std::fprintf(stderr, "perfbench: %s: set-up failed\n",
                 options.workload.c_str());
    return 1;
  }
  std::printf("attempted=%" PRId64 " failed=%" PRId64 " fail_frac=%.6f\n",
              result.attempted, result.failed,
              result.attempted > 0
                  ? static_cast<double>(result.failed) / result.attempted
                  : 0.0);
  std::fflush(stdout);
  PrintResult(result);
  return result.correct ? 0 : 2;
}
