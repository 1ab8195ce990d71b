// Shared helpers for the experiment harnesses.
#ifndef WAVE_BENCH_BENCH_UTIL_H_
#define WAVE_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <fstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "verifier/verifier.h"

namespace wave::bench {

// --- JSON-lines perf records (ISSUE 1) ---------------------------------------
// Every bench binary can persist its measurements machine-readably next to
// its text output: one `BENCH_<name>.json` file per binary, one JSON object
// per line. This is the perf-trajectory format future PRs diff against.

/// Version stamped on every emitted record (ISSUE 6). History:
///   1 — implicit (PR 1 records carried no version field);
///   2 — `schema_version` on every record; wave_bench suite records add
///       min/median-of-N timing, counters and env/git-sha capture.
inline constexpr int kBenchSchemaVersion = 2;

/// `"e1 table"` → `"e1_table"` (safe file-name component).
inline std::string SanitizeBenchName(const std::string& name) {
  std::string out;
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '-' || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// Linearly interpolated `q`-quantile of ascending `sorted` (0 if empty).
inline double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  double pos = q * (sorted.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - lo;
  return sorted[lo] * (1 - frac) + sorted[hi] * frac;
}

/// Builds the canonical timing record: {"name": ..., "params": ...,
/// "n", "median_s", "p90_s", "min_s", "max_s", "counters": ...}.
/// `times_seconds` may hold a single sample (median == the sample).
inline obs::Json TimingRecord(const std::string& name, obs::Json params,
                              std::vector<double> times_seconds,
                              obs::Json counters) {
  std::sort(times_seconds.begin(), times_seconds.end());
  obs::Json record = obs::Json::Object();
  record.Set("schema_version", obs::Json::Int(kBenchSchemaVersion));
  record.Set("name", obs::Json::Str(name));
  record.Set("params", std::move(params));
  record.Set("n", obs::Json::Int(static_cast<int64_t>(times_seconds.size())));
  record.Set("median_s", obs::Json::Number(Quantile(times_seconds, 0.5)));
  record.Set("p90_s", obs::Json::Number(Quantile(times_seconds, 0.9)));
  record.Set("min_s",
             obs::Json::Number(times_seconds.empty() ? 0 : times_seconds.front()));
  record.Set("max_s",
             obs::Json::Number(times_seconds.empty() ? 0 : times_seconds.back()));
  record.Set("counters", std::move(counters));
  return record;
}

/// Appends compact JSON records, one per line, to `BENCH_<name>.json` in
/// the working directory (truncated per construction, i.e. per bench run).
class JsonLinesEmitter {
 public:
  explicit JsonLinesEmitter(const std::string& bench_name)
      : out_("BENCH_" + SanitizeBenchName(bench_name) + ".json",
             std::ios::trunc) {}

  void Emit(const obs::Json& record) {
    if (!out_) return;  // unwritable directory: benches still print text
    out_ << record.Dump() << "\n";
    out_.flush();
  }

  bool ok() const { return static_cast<bool>(out_); }

 private:
  std::ofstream out_;
};


/// All bench harness verification goes through the unified VerifyRequest
/// API; `jobs` selects the worker count of the parallel search engine.
inline VerifyResult RunProperty(Verifier& verifier, const Property& property,
                                VerifyOptions options = {}, int jobs = 1) {
  VerifyRequest request;
  request.property = &property;
  request.options = std::move(options);
  request.jobs = jobs;
  StatusOr<VerifyResponse> response = verifier.Run(request);
  if (!response.ok()) {
    std::fprintf(stderr, "bench: %s: %s\n", property.name.c_str(),
                 response.status().ToString().c_str());
    std::abort();
  }
  return std::move(static_cast<VerifyResult&>(*response));
}

}  // namespace wave::bench

#endif  // WAVE_BENCH_BENCH_UTIL_H_
