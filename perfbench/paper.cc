// The `paper` workload: the 56 E1–E4 properties, verified cold in a closed
// loop on one thread with jobs=1. Each pass parses every spec from its
// text, builds a fresh `Verifier`, and `Run`s every property — what
// `wave_verify spec.spec` does — so nothing is memoized across passes.
// Verdicts are checked against the specs' `expect` annotations, and the
// deterministic search counters against bench/baselines/BENCH_verify.json.
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "common/io.h"
#include "hostspeed.h"
#include "layers.h"
#include "obs/json.h"
#include "parser/parser.h"
#include "spans.h"
#include "verifier/session.h"

namespace perfbench {
namespace {

// The host reference kernel (hostspeed.h) runs between properties at most
// this often.
constexpr double kHostSampleMs = 20;
// Set-up runs this often; setup_s is the median.
constexpr int kSetupRepeats = 15;

/// The counters BENCH_verify.json pins for every property.
struct Counters {
  int64_t assignments = 0;
  int64_t cores = 0;
  int64_t expansions = 0;
  int64_t successors = 0;
  int64_t buchi_states = 0;
  int64_t max_trie_size = 0;
  int64_t max_pseudorun_length = 0;

  bool operator==(const Counters&) const = default;

  static Counters Of(const wave::VerifyStats& s) {
    return {s.num_assignments, s.num_cores,    s.num_expansions,
            s.num_successors,  s.buchi_states, s.max_trie_size,
            s.max_pseudorun_length};
  }
  std::string ToString() const {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "assignments=%lld cores=%lld expansions=%lld "
                  "successors=%lld buchi_states=%lld max_trie_size=%lld "
                  "max_pseudorun_length=%lld",
                  static_cast<long long>(assignments),
                  static_cast<long long>(cores),
                  static_cast<long long>(expansions),
                  static_cast<long long>(successors),
                  static_cast<long long>(buchi_states),
                  static_cast<long long>(max_trie_size),
                  static_cast<long long>(max_pseudorun_length));
    return buf;
  }
};

/// "e1/P1" -> counters, from the committed jobs=1 baseline (read only).
bool LoadBaseline(const std::string& root,
                  std::map<std::string, Counters>* out) {
  wave::StatusOr<std::string> text =
      wave::ReadFileToString(root + "/bench/baselines/BENCH_verify.json");
  if (!text.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", text.status().ToString().c_str());
    return false;
  }
  std::string line;
  std::istringstream lines(*text);
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::optional<wave::obs::Json> record = wave::obs::Json::Parse(line);
    if (!record) return false;
    const wave::obs::Json* name = record->Find("name");
    const wave::obs::Json* c = record->Find("counters");
    if (name == nullptr || c == nullptr) return false;
    auto get = [&](const char* key) -> int64_t {
      const wave::obs::Json* v = c->Find(key);
      return v != nullptr ? v->AsInt() : -1;
    };
    (*out)[name->AsString()] = {get("num_assignments"), get("num_cores"),
                                get("num_expansions"),  get("num_successors"),
                                get("buchi_states"),    get("max_trie_size"),
                                get("max_pseudorun_length")};
  }
  return true;
}

struct PassOutcome {
  double seconds = 0;  // without the host samples
  int64_t start_ns = 0, end_ns = 0;
  // Per property, catalog order: when its `Run` started and ended.
  std::vector<std::pair<int64_t, int64_t>> runs;
  std::vector<wave::Verdict> verdicts;
  std::vector<Counters> counters;
};

/// One cold pass over the catalog. With a live span log the pass also
/// calls the session's plan and pre-pass layers before `Run`, so each
/// layer gets its own span; `Run` then finds them memoized. Between
/// properties the pass samples `host`; that time is not part of the pass.
PassOutcome RunPass(const std::vector<CatalogSpec>& catalog,
                    const std::map<std::string, Counters>& baseline,
                    SpanLog* log, LayerSamples* layers, RunResult* result,
                    int64_t* request_id, HostSpeed* host) {
  PassOutcome out;
  int64_t pass_start = NowNs();
  int64_t host_ns = 0;  // reference-kernel time, not part of the pass
  ScopedSpan pass_span(log, "pass", 0);
  for (const CatalogSpec& spec : catalog) {
    int64_t spec_request = ++*request_id;
    int64_t t0 = NowNs();
    wave::ParseResult parsed;
    {
      ScopedSpan span(log, "parser.parse", spec_request);
      parsed = wave::ParseSpec(spec.text);
    }
    if (!parsed.ok()) {
      result->Fail(spec.suite + ": " + parsed.ErrorText());
      continue;
    }
    int64_t t1 = NowNs();
    wave::StatusOr<std::unique_ptr<wave::Verifier>> verifier = [&] {
      ScopedSpan span(log, "spec.create", spec_request);
      return wave::Verifier::Create(parsed.spec.get());
    }();
    int64_t t2 = NowNs();
    if (!verifier.ok()) {
      result->Fail(spec.suite + ": " + verifier.status().ToString());
      continue;
    }
    layers->parse_ms.push_back((t1 - t0) / 1e6);
    layers->create_ms.push_back((t2 - t1) / 1e6);
    layers->parsed_bytes += static_cast<int64_t>(spec.text.size());
    layers->parse_seconds += (t1 - t0) / 1e9;

    std::vector<wave::Property> properties;
    for (const wave::ParsedProperty& p : parsed.properties) {
      properties.push_back(p.property);
    }
    for (size_t i = 0; i < properties.size(); ++i) {
      host_ns += host->MaybeSample(kHostSampleMs);
      wave::VerifyRequest request;
      request.properties = &properties;
      request.property_index = static_cast<int>(i);
      request.jobs = 1;
      int64_t property_request = ++*request_id;
      int64_t start = NowNs();
      if (log->enabled()) {
        ProbeSessionLayers(**verifier, properties[i], request.options, log,
                           property_request, layers);
      }
      wave::StatusOr<wave::VerifyResponse> response = [&] {
        ScopedSpan span(log, "search.run", property_request);
        int64_t r0 = NowNs();
        auto r = (*verifier)->Run(request);
        if (log->enabled()) layers->run_ms.push_back((NowNs() - r0) / 1e6);
        return r;
      }();
      int64_t end = NowNs();
      ++result->attempted;
      std::string name = spec.suite + "/" + properties[i].name;
      if (!response.ok()) {
        result->Fail(name + ": " + response.status().ToString());
        continue;
      }
      out.runs.emplace_back(start, end);
      out.verdicts.push_back(response->verdict);
      Counters counters = Counters::Of(response->stats);
      out.counters.push_back(counters);
      if (log->enabled()) layers->AddSearch(response->stats);

      wave::Verdict want = spec.expect_holds[i] ? wave::Verdict::kHolds
                                                : wave::Verdict::kViolated;
      if (response->verdict != want) {
        result->Fail(name + ": verdict " + VerdictName(response->verdict) +
                     ", expected " + VerdictName(want));
        continue;
      }
      auto pinned = baseline.find(name);
      if (pinned == baseline.end() || !(pinned->second == counters)) {
        result->Fail(name + ": counters " + counters.ToString() +
                     " differ from BENCH_verify.json");
      }
    }
  }
  out.start_ns = pass_start;
  out.end_ns = NowNs();
  out.seconds = (out.end_ns - pass_start - host_ns) / 1e9;
  return out;
}

}  // namespace

bool RunPaper(const RunOptions& options, RunResult* result) {
  // Set-up: read and parse the catalog and the counter baseline. Repeated
  // between host samples, so the reported set-up time is a median of
  // scaled times.
  std::vector<CatalogSpec> catalog;
  std::map<std::string, Counters> baseline;
  std::vector<double> setup_s;
  HostSpeed setup_host;
  setup_host.Sample();
  std::vector<std::pair<int64_t, int64_t>> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    int64_t t0 = NowNs();
    catalog = LoadCatalog(options.root);
    baseline.clear();
    if (catalog.empty() || !LoadBaseline(options.root, &baseline)) {
      return false;
    }
    setups.emplace_back(t0, NowNs());
    setup_host.Sample();
  }
  for (const auto& [start, end] : setups) {
    setup_s.push_back(setup_host.Scale((end - start) / 1e9, start, end));
  }
  size_t num_properties = 0;
  for (const CatalogSpec& spec : catalog) {
    num_properties += spec.properties.size();
  }

  SpanLog untraced(false);
  SpanLog traced(true);
  LayerSamples layers;
  LayerSamples discard;
  int64_t request_id = 0;
  HostSpeed host;
  HostSpeed untimed;  // samples of the warm-up pass are not kept

  // One untimed pass first: the allocator and page cache settle, and a
  // broken build fails before the clock starts.
  RunResult warmup;
  PassOutcome reference = RunPass(catalog, baseline, &untraced, &discard,
                                  &warmup, &request_id, &untimed);
  if (!warmup.correct) {
    *result = warmup;
    return true;
  }
  std::map<std::string, int64_t> suite_expansions;
  {
    size_t k = 0;
    for (const CatalogSpec& spec : catalog) {
      for (size_t i = 0; i < spec.properties.size(); ++i, ++k) {
        suite_expansions[spec.suite] += reference.counters[k].expansions;
      }
    }
  }

  // Timed window. The traced run alternates untraced and traced passes:
  // their ratio is the tracing overhead, and their verdicts and counters
  // must be identical.
  std::vector<PassOutcome> passes;
  std::vector<bool> traced_pass;
  int64_t deadline = NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  for (int pass = 0; pass == 0 || NowNs() < deadline; ++pass) {
    bool trace_this = options.trace && pass % 2 == 1;
    SpanLog* log = trace_this ? &traced : &untraced;
    PassOutcome out = RunPass(catalog, baseline, log,
                              trace_this ? &layers : &discard, result,
                              &request_id, &host);
    if (out.verdicts != reference.verdicts ||
        out.counters != reference.counters) {
      result->Fail(std::string(trace_this ? "traced" : "untraced") +
                   " pass differs from the reference pass");
      continue;
    }
    passes.push_back(std::move(out));
    traced_pass.push_back(trace_this);
  }
  host.Sample();  // the last pass has samples on both sides

  // Scaled pass times; time to verdict is each property's median over the
  // passes, then quantiles over the 56 properties (p99 reads E1/P4).
  std::vector<double> pass_s, untraced_pass_s, traced_pass_s, raw_pass_s;
  std::vector<std::vector<double>> property_ms(num_properties);
  for (size_t p = 0; p < passes.size(); ++p) {
    const PassOutcome& out = passes[p];
    std::vector<double> ms;
    double s = host.ScalePass(out.runs, out.seconds, out.start_ns, out.end_ns,
                              &ms);
    pass_s.push_back(s);
    raw_pass_s.push_back(out.seconds);
    (traced_pass[p] ? traced_pass_s : untraced_pass_s).push_back(s);
    for (size_t k = 0; k < num_properties; ++k) property_ms[k].push_back(ms[k]);
  }
  std::vector<double> verdict_ms;
  for (const std::vector<double>& samples : property_ms) {
    verdict_ms.push_back(Quantile(samples, 0.5));
  }
  double total_s = 0;
  for (double s : pass_s) total_s += s;
  std::printf("paper: %zu passes x %zu properties\n", pass_s.size(),
              num_properties);
  for (const auto& [suite, n] : suite_expansions) {
    std::printf("paper: %s expansions=%lld (matches BENCH_verify.json)\n",
                suite.c_str(), static_cast<long long>(n));
  }
  std::printf("paper: unscaled median pass %.4f s, scaled %.4f s\n",
              Quantile(raw_pass_s, 0.5), Quantile(pass_s, 0.5));
  std::printf("%s\n", host.Describe().c_str());

  if (!options.trace) {
    result->Add("setup_s", Quantile(setup_s, 0.5), "s");
    result->Add("catalog_s", Quantile(pass_s, 0.5), "s");
    result->Add("verdict_ms_p50", Quantile(verdict_ms, 0.50), "ms");
    result->Add("verdict_ms_p90", Quantile(verdict_ms, 0.90), "ms");
    result->Add("verdict_ms_p99", Quantile(verdict_ms, 0.99), "ms");
    result->Add("verdicts_per_s",
                static_cast<double>(pass_s.size() * num_properties) / total_s,
                "1/s");
    result->Add("peak_rss_mb", PeakRssMb(0), "MB");
    return true;
  }
  LayerReport report;
  layers.Fill(&report, static_cast<int>(traced_pass_s.size()));
  if (!traced_pass_s.empty()) {
    report.Set("trace.overhead_frac", Quantile(traced_pass_s, 0.5) /
                                          Quantile(untraced_pass_s, 0.5) -
                                      1);
  }
  report.Emit(result);
  std::printf("%s", traced.SelfTimeTable().c_str());
  WriteTrace(traced, options);
  return true;
}

}  // namespace perfbench
