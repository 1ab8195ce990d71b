#include "bench/wave_bench_lib.h"

#include <sys/utsname.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "apps/apps.h"
#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "verifier/verifier.h"

namespace wave::bench {
namespace {

struct SuiteEntry {
  const char* name;
  AppBundle (*build)();
};

// The registry: every entry is one of the paper's Section 5 workloads.
// "verify" (the committed-baseline suite) is the union of all of them.
constexpr SuiteEntry kSuites[] = {
    {"e1", &BuildE1},
    {"e2", &BuildE2},
    {"e3", &BuildE3},
    {"e4", &BuildE4},
};

/// `git rev-parse HEAD` of the working directory; "" when not a repo
/// (bench results are still valid, just unpinned).
std::string GitSha() {
  FILE* pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r");
  if (pipe == nullptr) return "";
  char buf[128];
  std::string out;
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  ::pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  // A sha is 40 hex chars; anything else (error text) is noise.
  if (out.size() != 40) return "";
  return out;
}

/// Only the deterministic search counters go into the compared
/// `counters` block: per the PR-3 determinism contract these are
/// run-to-run stable at jobs=1 (the bench default), so the gate can
/// require exact equality. Times, trie hit rates and telemetry live in
/// the full `--stats-json` payload, not here.
obs::Json DeterministicCounters(const VerifyStats& stats) {
  obs::Json counters = obs::Json::Object();
  counters.Set("num_assignments", obs::Json::Int(stats.num_assignments));
  counters.Set("num_cores", obs::Json::Int(stats.num_cores));
  counters.Set("num_expansions", obs::Json::Int(stats.num_expansions));
  counters.Set("num_successors", obs::Json::Int(stats.num_successors));
  counters.Set("buchi_states", obs::Json::Int(stats.buchi_states));
  counters.Set("max_trie_size", obs::Json::Int(stats.max_trie_size));
  counters.Set("max_pseudorun_length",
               obs::Json::Int(stats.max_pseudorun_length));
  return counters;
}

/// One sub-suite (one AppBundle) of a run; returns verdict mismatches.
/// `verbose` prints the paper's table columns per property plus the
/// suite's ranges (Section 5 reports them as ranges).
int RunOneBundle(const char* suite_name, AppBundle bundle,
                 const BenchConfig& config, const obs::Json& env,
                 std::vector<obs::Json>* records, bool verbose) {
  Verifier verifier(bundle.spec.get());
  int mismatches = 0;
  double min_time = 1e9, max_time = 0;
  int min_len = 1 << 30, max_len = 0, min_trie = 1 << 30, max_trie = 0;
  if (verbose) {
    std::printf("==== %s: %s ====\n", suite_name,
                bundle.spec->StatsString().c_str());
    std::printf("%-10s %-4s %-19s %10s %10s %8s %9s %6s\n", "property",
                "type", "verdict (expected)", "min", "median", "run len",
                "trie max", "buchi");
  }
  for (const ParsedProperty& p : bundle.properties) {
    VerifyOptions options;
    options.timeout_seconds = config.timeout_seconds;
    // Warmup runs prime the session's pre-pass memoization so the timed
    // runs measure the steady state, like any repeated `Run` call would.
    for (int i = 0; i < config.warmup; ++i) {
      RunProperty(verifier, p.property, options, config.jobs);
    }
    std::vector<double> times;
    VerifyResult last;
    for (int i = 0; i < config.repeat; ++i) {
      Stopwatch watch;
      last = RunProperty(verifier, p.property, options, config.jobs);
      times.push_back(watch.ElapsedSeconds() * config.slowdown);
    }
    bool expected_ok = last.verdict != Verdict::kUnknown &&
                       (last.verdict == Verdict::kHolds) == p.expected;
    if (!expected_ok) ++mismatches;

    obs::Json params = obs::Json::Object();
    params.Set("jobs", obs::Json::Int(config.jobs));
    obs::Json record =
        TimingRecord(std::string(suite_name) + "/" + p.property.name,
                     std::move(params), times,
                     DeterministicCounters(last.stats));
    record.Set("suite", obs::Json::Str(suite_name));
    record.Set("warmup", obs::Json::Int(config.warmup));
    record.Set("verdict", obs::Json::Str(api::VerdictName(last.verdict)));
    record.Set("expected_ok", obs::Json::Bool(expected_ok));
    record.Set("env", env);
    if (verbose) {
      const VerifyStats& st = last.stats;
      double median = record.Find("median_s")->AsDouble();
      std::string verdict =
          std::string(api::VerdictName(last.verdict)) + " (" +
          api::VerdictName(p.expected ? Verdict::kHolds : Verdict::kViolated) +
          ")";
      std::printf("%-10s %-4s %-19s %9.3fs %9.3fs %8d %9d %6d%s\n",
                  record.Find("name")->AsString().c_str(),
                  p.property.type_code.c_str(), verdict.c_str(),
                  record.Find("min_s")->AsDouble(), median,
                  st.max_pseudorun_length, st.max_trie_size, st.buchi_states,
                  expected_ok ? "" : "  !! verdict mismatch");
      min_time = std::min(min_time, median);
      max_time = std::max(max_time, median);
      min_len = std::min(min_len, st.max_pseudorun_length);
      max_len = std::max(max_len, st.max_pseudorun_length);
      min_trie = std::min(min_trie, st.max_trie_size);
      max_trie = std::max(max_trie, st.max_trie_size);
    }
    records->push_back(std::move(record));
  }
  if (verbose && !bundle.properties.empty()) {
    std::printf(
        "%s: %zu properties; median times %.3f-%.3f s; pseudorun lengths "
        "%d-%d; trie sizes %d-%d\n\n",
        suite_name, bundle.properties.size(), min_time, max_time, min_len,
        max_len, min_trie, max_trie);
  }
  return mismatches;
}

double NumberOr(const obs::Json* v, double fallback) {
  return (v != nullptr && v->is_number()) ? v->AsDouble() : fallback;
}

}  // namespace

std::vector<std::string> BenchSuiteNames() {
  std::vector<std::string> names;
  for (const SuiteEntry& s : kSuites) names.push_back(s.name);
  names.push_back("verify");
  return names;
}

bool IsBenchSuite(const std::string& name) {
  if (name == "verify") return true;
  for (const SuiteEntry& s : kSuites) {
    if (name == s.name) return true;
  }
  return false;
}

obs::Json BenchEnvJson() {
  obs::Json env = obs::Json::Object();
  env.Set("git_sha", obs::Json::Str(GitSha()));
  struct utsname uts = {};
  if (::uname(&uts) == 0) {
    env.Set("host", obs::Json::Str(uts.nodename));
    env.Set("os", obs::Json::Str(std::string(uts.sysname) + " " +
                                 uts.release + " " + uts.machine));
  }
  env.Set("cpus",
          obs::Json::Int(static_cast<int64_t>(
              std::thread::hardware_concurrency())));
#if defined(__clang__)
  env.Set("compiler", obs::Json::Str("clang " __clang_version__));
#elif defined(__GNUC__)
  env.Set("compiler", obs::Json::Str("gcc " __VERSION__));
#else
  env.Set("compiler", obs::Json::Str("unknown"));
#endif
#ifdef NDEBUG
  env.Set("build", obs::Json::Str("release"));
#else
  env.Set("build", obs::Json::Str("debug"));
#endif
  return env;
}

int RunBenchSuite(const std::string& suite, const BenchConfig& config,
                  std::vector<obs::Json>* records, std::string* error,
                  bool verbose) {
  if (!IsBenchSuite(suite)) {
    if (error != nullptr) {
      std::string known;
      for (const std::string& n : BenchSuiteNames()) {
        if (!known.empty()) known += ", ";
        known += n;
      }
      *error = "unknown suite '" + suite + "' (known: " + known + ")";
    }
    return -1;
  }
  obs::Json env = BenchEnvJson();
  int mismatches = 0;
  for (const SuiteEntry& s : kSuites) {
    if (suite != "verify" && suite != s.name) continue;
    mismatches +=
        RunOneBundle(s.name, s.build(), config, env, records, verbose);
  }
  return mismatches;
}

bool LoadJsonLines(const std::string& path, std::vector<obs::Json>* records,
                   std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Tolerate blank lines and trailing whitespace-only lines.
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    std::string parse_error;
    std::optional<obs::Json> record = obs::Json::Parse(line, &parse_error);
    if (!record.has_value()) {
      if (error != nullptr) {
        *error = path + ":" + std::to_string(line_no) + ": " + parse_error;
      }
      return false;
    }
    records->push_back(std::move(*record));
  }
  return true;
}

std::string CompareResult::Summary() const {
  std::ostringstream out;
  out << "compared " << compared_records << " record(s); "
      << regressions.size() << " regression(s)";
  if (!missing.empty()) {
    out << "; " << missing.size() << " baseline record(s) missing from run";
  }
  out << "\n";
  for (const std::string& r : regressions) out << "  REGRESSION " << r << "\n";
  for (const std::string& m : missing) out << "  missing: " << m << "\n";
  return out.str();
}

CompareResult CompareRecords(const std::vector<obs::Json>& baseline,
                             const std::vector<obs::Json>& current,
                             const CompareThresholds& thresholds) {
  CompareResult result;

  // Index the run by record name; note which suites it actually ran so
  // a single-suite run can gate against the all-suite baseline.
  std::map<std::string, const obs::Json*> by_name;
  std::set<std::string> current_suites;
  for (const obs::Json& r : current) {
    const obs::Json* name = r.Find("name");
    if (name == nullptr || !name->is_string()) continue;
    by_name[name->AsString()] = &r;
    const obs::Json* suite = r.Find("suite");
    if (suite != nullptr && suite->is_string()) {
      current_suites.insert(suite->AsString());
    }
  }

  auto add_delta = [&](const std::string& name, const std::string& metric,
                       double base, double cur, bool regressed,
                       std::string detail) {
    MetricDelta d;
    d.name = name;
    d.metric = metric;
    d.baseline = base;
    d.current = cur;
    d.regressed = regressed;
    d.detail = std::move(detail);
    if (regressed) {
      result.regressions.push_back(name + " " + metric + ": " + d.detail);
    }
    result.deltas.push_back(std::move(d));
  };

  for (const obs::Json& base : baseline) {
    const obs::Json* name_field = base.Find("name");
    if (name_field == nullptr || !name_field->is_string()) continue;
    const std::string& name = name_field->AsString();
    const obs::Json* suite = base.Find("suite");
    if (suite != nullptr && suite->is_string() &&
        current_suites.find(suite->AsString()) == current_suites.end()) {
      continue;  // suite not run this time — not comparable, not missing
    }
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      result.missing.push_back(name);
      continue;
    }
    const obs::Json& cur = *it->second;
    ++result.compared_records;

    // Verdict flips are always regressions, no threshold.
    const obs::Json* base_verdict = base.Find("verdict");
    const obs::Json* cur_verdict = cur.Find("verdict");
    if (base_verdict != nullptr && cur_verdict != nullptr &&
        base_verdict->is_string() && cur_verdict->is_string() &&
        base_verdict->AsString() != cur_verdict->AsString()) {
      add_delta(name, "verdict", 0, 0, true,
                base_verdict->AsString() + " -> " + cur_verdict->AsString());
    }

    // Wall time: relative, gated only above the noise floor.
    for (const char* metric : {"min_s", "median_s"}) {
      double base_t = NumberOr(base.Find(metric), -1);
      double cur_t = NumberOr(cur.Find(metric), -1);
      if (base_t < 0 || cur_t < 0) continue;
      if (base_t < thresholds.min_time_s) {
        add_delta(name, metric, base_t, cur_t, false,
                  "below noise floor, not gated");
        continue;
      }
      double limit = base_t * (1.0 + thresholds.time_frac);
      bool regressed = cur_t > limit;
      char detail[128];
      std::snprintf(detail, sizeof(detail),
                    "%.3fs -> %.3fs (%+.0f%%, limit %+.0f%%)", base_t, cur_t,
                    (cur_t / base_t - 1.0) * 100.0,
                    thresholds.time_frac * 100.0);
      add_delta(name, metric, base_t, cur_t, regressed, detail);
    }

    // Counters: exact (or within counter_frac when relaxed).
    const obs::Json* base_counters = base.Find("counters");
    const obs::Json* cur_counters = cur.Find("counters");
    if (base_counters != nullptr && base_counters->is_object() &&
        cur_counters != nullptr && cur_counters->is_object()) {
      for (const auto& member : base_counters->members()) {
        if (!member.second.is_number()) continue;
        const obs::Json* cur_v = cur_counters->Find(member.first);
        if (cur_v == nullptr || !cur_v->is_number()) continue;
        double base_c = member.second.AsDouble();
        double cur_c = cur_v->AsDouble();
        double slack = thresholds.counter_frac * std::fabs(base_c);
        bool regressed = std::fabs(cur_c - base_c) > slack;
        char detail[128];
        std::snprintf(detail, sizeof(detail), "%.0f -> %.0f%s", base_c,
                      cur_c, thresholds.counter_frac == 0
                                 ? " (exact match required)"
                                 : "");
        add_delta(name, std::string("counters.") + member.first, base_c,
                  cur_c, regressed, detail);
      }
    }
  }
  return result;
}

}  // namespace wave::bench
