#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "verifier/governor.h"
#include "verifier/session.h"

namespace perfbench {
namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// The per_layer list of BENCHMARK.json, in print order.
constexpr LayerMetric kLayerMetrics[] = {
    {"parser.parse_ms", "ms"},
    {"parser.mb_per_s", "MB/s"},
    {"spec.create_ms", "ms"},
    {"prepare.plan_ms", "ms"},
    {"prepare.buchi_states", "count"},
    {"prepare.gpvw_states_before_simplify", "count"},
    {"analysis.prepass_ms", "ms"},
    {"analysis.assignments", "count"},
    {"analysis.cores", "count"},
    {"search.run_ms", "ms"},
    {"search.expansions", "count"},
    {"search.successors", "count"},
    {"search.new_config_ratio", "ratio"},
    {"search.ns_per_successor", "ns"},
    {"search.max_trie_size", "count"},
    {"search.peak_memory_bytes", "bytes"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_p99", "ms"},
    {"serve.service_ms_mean", "ms"},
    {"serve.rejected", "count"},
    {"session_pool.hit_ratio", "ratio"},
    {"session_pool.evictions", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.stores", "count"},
    {"cache.lock_waits", "count"},
    {"cache.entries_end", "count"},
    {"wire.decode_us_p50", "us"},
    {"loadgen.lateness_ms_p99", "ms"},
    {"loadgen.latency_ms_p50.low", "ms"},
    {"loadgen.latency_ms_p99.low", "ms"},
    {"corpus.skipped", "count"},
    {"run.fail_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

}  // namespace

void LayerReport::Set(const std::string& name, double value) {
  bool known = std::any_of(std::begin(kLayerMetrics), std::end(kLayerMetrics),
                           [&](const LayerMetric& m) { return name == m.name; });
  if (!known) {
    std::fprintf(stderr, "perfbench: unknown layer metric %s\n", name.c_str());
    std::abort();
  }
  values_[name] = value;
}

void LayerReport::Emit(RunResult* result) const {
  std::map<std::string, double> values = values_;
  values["run.fail_frac"] =
      result->attempted > 0
          ? static_cast<double>(result->failed) / result->attempted
          : 0.0;
  for (const LayerMetric& m : kLayerMetrics) {
    auto it = values.find(m.name);
    result->Add(m.name, it == values.end() ? 0.0 : it->second, m.unit);
  }
}

void LayerSamples::AddSearch(const wave::VerifyStats& stats) {
  buchi_states += stats.buchi_states;
  assignments += stats.num_assignments;
  cores += stats.num_cores;
  expansions += stats.num_expansions;
  successors += stats.num_successors;
  trie_hits += stats.trie_hits;
  trie_misses += stats.trie_misses;
  max_trie_size = std::max<int64_t>(max_trie_size, stats.max_trie_size);
  peak_memory_bytes = std::max(peak_memory_bytes, stats.peak_memory_bytes);
}

void LayerSamples::Fill(LayerReport* report, int passes) const {
  double per_pass = passes > 0 ? 1.0 / passes : 0.0;
  double run_ms_total = 0;
  for (double ms : run_ms) run_ms_total += ms;
  report->Set("parser.parse_ms", Quantile(parse_ms, 0.5));
  report->Set("parser.mb_per_s",
              parse_seconds > 0 ? parsed_bytes / parse_seconds / 1e6 : 0);
  report->Set("spec.create_ms", Quantile(create_ms, 0.5));
  report->Set("prepare.plan_ms", Quantile(plan_ms, 0.5));
  report->Set("prepare.buchi_states", buchi_states * per_pass);
  report->Set("prepare.gpvw_states_before_simplify",
              gpvw_states_before_simplify * per_pass);
  report->Set("analysis.prepass_ms", Quantile(prepass_ms, 0.5));
  report->Set("analysis.assignments", assignments * per_pass);
  report->Set("analysis.cores", cores * per_pass);
  report->Set("search.run_ms", Quantile(run_ms, 0.5));
  report->Set("search.expansions", expansions * per_pass);
  report->Set("search.successors", successors * per_pass);
  int64_t lookups = trie_hits + trie_misses;
  report->Set("search.new_config_ratio",
              lookups > 0 ? static_cast<double>(trie_misses) / lookups : 0);
  report->Set("search.ns_per_successor",
              successors > 0 ? run_ms_total * 1e6 / successors : 0);
  report->Set("search.max_trie_size", static_cast<double>(max_trie_size));
  report->Set("search.peak_memory_bytes",
              static_cast<double>(peak_memory_bytes));
}

void ProbeSessionLayers(wave::Verifier& verifier,
                        const wave::Property& property,
                        const wave::VerifyOptions& options, SpanLog* log,
                        int64_t request, LayerSamples* samples) {
  wave::VerifierSession& session = verifier.session();
  int64_t t0 = NowNs();
  const wave::PropertyPlan* plan = nullptr;
  {
    ScopedSpan span(log, "prepare.plan", request);
    plan = session.GetPlan(property, nullptr);
  }
  int64_t t1 = NowNs();
  wave::GovernorLimits limits;
  limits.deadline_seconds = options.timeout_seconds;
  limits.max_expansions = options.max_expansions;
  limits.max_memory_bytes = options.max_memory_bytes;
  wave::BudgetLedger ledger(limits, 1);
  wave::PrepassResult prepass;
  {
    ScopedSpan span(log, "analysis.prepass", request);
    prepass = session.GetPrepass(property, options, &ledger, nullptr);
  }
  int64_t t2 = NowNs();
  if (prepass.artifacts != nullptr) session.UnpinPrepass(prepass.artifacts);
  samples->plan_ms.push_back((t1 - t0) / 1e6);
  samples->prepass_ms.push_back((t2 - t1) / 1e6);
  if (plan != nullptr) {
    samples->gpvw_states_before_simplify +=
        plan->gpvw_stats.states_before_simplify;
  }
}

void WriteTrace(const SpanLog& log, const RunOptions& options) {
  std::string path = options.work_dir + "/trace-" + options.workload + "-" +
                     std::to_string(options.seed) + ".json";
  if (log.WriteChromeTrace(path)) {
    std::printf("chrome trace -> %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
}

}  // namespace perfbench
