// The `generated` workload: a seeded corpus of distinct spec_gen cases,
// each verified cold (parse -> Create -> Run) in a closed loop on one
// thread. Cases are tiny, so parsing, construction, the GPVW translation
// and the dataflow pre-pass carry a far larger share of the time than in
// `paper`, and the random LTL skeletons vary automaton shape. Verdicts
// are checked against the first-cut baseline, computed during set-up.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench.h"
#include "hostspeed.h"
#include "layers.h"
#include "parser/parser.h"
#include "spans.h"

namespace perfbench {
namespace {

// Distinct cases per pass.
constexpr int kCorpusSize = 300;
// The corpus is frozen: its cost is heavy-tailed (a few cases take 100x
// the median), so corpora drawn per --seed would differ more between
// seeds than any change worth detecting. --seed orders the cases.
constexpr uint64_t kCorpusSeed = 0x3a7e5eed;
// The host reference kernel (hostspeed.h) runs between cases at most this
// often.
constexpr double kHostSampleMs = 20;
// Set-up runs this often; setup_s is the median.
constexpr int kSetupRepeats = 5;

struct PassOutcome {
  double seconds = 0;  // without the host samples
  int64_t start_ns = 0, end_ns = 0;
  // Per case, corpus order: when its parse started and its `Run` ended.
  std::vector<std::pair<int64_t, int64_t>> cases;
  std::vector<wave::Verdict> verdicts;
};

/// One cold pass over the corpus. Between cases the pass samples `host`;
/// that time is not part of the pass.
PassOutcome RunPass(const std::vector<ReferenceCase>& corpus, SpanLog* log,
                    LayerSamples* layers, RunResult* result,
                    int64_t* request_id, HostSpeed* host) {
  PassOutcome out;
  int64_t pass_start = NowNs();
  int64_t host_ns = 0;
  ScopedSpan pass_span(log, "pass", 0);
  for (const ReferenceCase& c : corpus) {
    host_ns += host->MaybeSample(kHostSampleMs);
    int64_t request = ++*request_id;
    ScopedSpan case_span(log, "case", request);
    ++result->attempted;
    int64_t t0 = NowNs();
    wave::ParseResult parsed;
    {
      ScopedSpan span(log, "parser.parse", request);
      parsed = wave::ParseSpec(c.text);
    }
    int64_t t1 = NowNs();
    if (!parsed.ok() || parsed.properties.size() != 1) {
      result->Fail("case " + std::to_string(c.fuzz.seed) + ": parse failed");
      continue;
    }
    wave::StatusOr<std::unique_ptr<wave::Verifier>> verifier = [&] {
      ScopedSpan span(log, "spec.create", request);
      return wave::Verifier::Create(parsed.spec.get());
    }();
    int64_t t2 = NowNs();
    if (!verifier.ok()) {
      result->Fail("case " + std::to_string(c.fuzz.seed) + ": " +
                   verifier.status().ToString());
      continue;
    }
    wave::VerifyRequest request_body;
    request_body.property = &parsed.properties[0].property;
    request_body.jobs = 1;
    if (log->enabled()) {
      ProbeSessionLayers(**verifier, parsed.properties[0].property,
                         request_body.options, log, request, layers);
    }
    int64_t t3 = NowNs();
    wave::StatusOr<wave::VerifyResponse> response = [&] {
      ScopedSpan span(log, "search.run", request);
      return (*verifier)->Run(request_body);
    }();
    int64_t t4 = NowNs();
    if (!response.ok()) {
      result->Fail("case " + std::to_string(c.fuzz.seed) + ": " +
                   response.status().ToString());
      continue;
    }
    out.cases.emplace_back(t0, t4);
    out.verdicts.push_back(response->verdict);
    if (log->enabled()) {
      layers->parse_ms.push_back((t1 - t0) / 1e6);
      layers->create_ms.push_back((t2 - t1) / 1e6);
      layers->run_ms.push_back((t4 - t3) / 1e6);
      layers->parsed_bytes += static_cast<int64_t>(c.text.size());
      layers->parse_seconds += (t1 - t0) / 1e9;
      layers->AddSearch(response->stats);
    }
    if (response->verdict != c.reference) {
      result->Fail("case " + std::to_string(c.fuzz.seed) + ": verdict " +
                   VerdictName(response->verdict) + ", first-cut reference " +
                   VerdictName(c.reference));
    }
  }
  out.start_ns = pass_start;
  out.end_ns = NowNs();
  out.seconds = (out.end_ns - pass_start - host_ns) / 1e9;
  return out;
}

}  // namespace

bool RunGenerated(const RunOptions& options, RunResult* result) {
  // Set-up: draw the corpus and its first-cut reference verdicts. Run
  // several times between host samples, so the reported set-up time is a
  // median of scaled times.
  std::vector<ReferenceCase> corpus;
  int skipped = 0;
  std::vector<double> setup_s;
  HostSpeed setup_host;
  setup_host.Sample();
  std::vector<std::pair<int64_t, int64_t>> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    int64_t t0 = NowNs();
    corpus = DrawReferenceCorpus(kCorpusSeed, kCorpusSize,
                                 FrozenGeneratorConfig(), &skipped);
    setups.emplace_back(t0, NowNs());
    setup_host.Sample();
  }
  for (const auto& [start, end] : setups) {
    setup_s.push_back(setup_host.Scale((end - start) / 1e9, start, end));
  }
  if (static_cast<int>(corpus.size()) != kCorpusSize) return false;
  // Seeded Fisher-Yates: the same --seed gives the same order everywhere.
  uint64_t state = options.seed;
  for (size_t i = corpus.size(); i > 1; --i) {
    state = Mix(state);
    std::swap(corpus[i - 1], corpus[state % i]);
  }
  std::printf("generated: %d cases, %d skipped by the first-cut budget\n",
              kCorpusSize, skipped);

  SpanLog untraced(false);
  SpanLog traced(true);
  LayerSamples layers;
  LayerSamples discard;
  int64_t request_id = 0;
  HostSpeed host;
  HostSpeed untimed;  // samples of the warm-up pass are not kept

  RunResult warmup;
  PassOutcome reference =
      RunPass(corpus, &untraced, &discard, &warmup, &request_id, &untimed);
  if (!warmup.correct) {
    *result = warmup;
    return true;
  }

  std::vector<PassOutcome> passes;
  std::vector<bool> traced_pass;
  int64_t deadline = NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  for (int pass = 0; pass == 0 || NowNs() < deadline; ++pass) {
    bool trace_this = options.trace && pass % 2 == 1;
    PassOutcome out = RunPass(corpus, trace_this ? &traced : &untraced,
                              trace_this ? &layers : &discard, result,
                              &request_id, &host);
    if (out.verdicts != reference.verdicts) {
      result->Fail(std::string(trace_this ? "traced" : "untraced") +
                   " pass differs from the reference pass");
      continue;
    }
    passes.push_back(std::move(out));
    traced_pass.push_back(trace_this);
  }
  host.Sample();  // the last pass has samples on both sides

  // Scaled pass times; time to verdict is each case's median over the
  // passes, then quantiles over the 300 cases.
  std::vector<double> pass_s, untraced_pass_s, traced_pass_s, raw_pass_s;
  std::vector<std::vector<double>> per_case_ms(corpus.size());
  for (size_t p = 0; p < passes.size(); ++p) {
    const PassOutcome& out = passes[p];
    std::vector<double> ms;
    double s = host.ScalePass(out.cases, out.seconds, out.start_ns,
                              out.end_ns, &ms);
    pass_s.push_back(s);
    raw_pass_s.push_back(out.seconds);
    (traced_pass[p] ? traced_pass_s : untraced_pass_s).push_back(s);
    for (size_t k = 0; k < corpus.size(); ++k) per_case_ms[k].push_back(ms[k]);
  }
  std::vector<double> case_ms;
  for (const std::vector<double>& samples : per_case_ms) {
    case_ms.push_back(Quantile(samples, 0.5));
  }
  double total_s = 0;
  for (double s : pass_s) total_s += s;
  std::printf("generated: %zu passes, unscaled median pass %.4f s, "
              "scaled %.4f s\n",
              pass_s.size(), Quantile(raw_pass_s, 0.5), Quantile(pass_s, 0.5));
  std::printf("%s\n", host.Describe().c_str());

  if (!options.trace) {
    result->Add("setup_s", Quantile(setup_s, 0.5), "s");
    result->Add("catalog_s", Quantile(pass_s, 0.5), "s");
    result->Add("verdict_ms_p50", Quantile(case_ms, 0.50), "ms");
    result->Add("verdict_ms_p90", Quantile(case_ms, 0.90), "ms");
    result->Add("verdict_ms_p99", Quantile(case_ms, 0.99), "ms");
    result->Add("verdicts_per_s",
                static_cast<double>(pass_s.size() * corpus.size()) / total_s,
                "1/s");
    result->Add("peak_rss_mb", PeakRssMb(0), "MB");
    return true;
  }
  LayerReport report;
  layers.Fill(&report, static_cast<int>(traced_pass_s.size()));
  report.Set("corpus.skipped", skipped);
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
