// Per-layer metrics of the traced run. Every workload reports the same
// names (README.md maps each to the end-to-end metric it should move); a
// layer a workload does not reach reads 0.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "spans.h"
#include "verifier/verifier.h"

namespace perfbench {

/// Per-layer values by name; `Emit` prints every known name in a fixed
/// order.
class LayerReport {
 public:
  /// Sets a known metric; an unknown name aborts (a harness bug).
  void Set(const std::string& name, double value);
  void Emit(RunResult* result) const;

 private:
  std::map<std::string, double> values_;
};

/// What the traced passes of `paper` and `generated` measured around
/// their own calls into parser, spec, session and verifier.
struct LayerSamples {
  std::vector<double> parse_ms, create_ms, plan_ms, prepass_ms, run_ms;
  int64_t parsed_bytes = 0;
  double parse_seconds = 0;
  int64_t buchi_states = 0;
  int64_t gpvw_states_before_simplify = 0;
  int64_t assignments = 0;
  int64_t cores = 0;
  int64_t expansions = 0;
  int64_t successors = 0;
  int64_t trie_hits = 0;
  int64_t trie_misses = 0;
  int64_t max_trie_size = 0;
  int64_t peak_memory_bytes = 0;

  void AddSearch(const wave::VerifyStats& stats);
  /// Counts are per pass: totals divided by the traced pass count.
  void Fill(LayerReport* report, int passes) const;
};

/// Calls the verifier session's plan and pre-pass layers for `property`
/// under their own spans (the `Run` that follows finds both memoized).
void ProbeSessionLayers(wave::Verifier& verifier,
                        const wave::Property& property,
                        const wave::VerifyOptions& options, SpanLog* log,
                        int64_t request, LayerSamples* samples);

/// Writes the Chrome trace and prints where it went.
void WriteTrace(const SpanLog& log, const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
