#include "hostspeed.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <unordered_map>

#include "bench.h"
#include "spans.h"

namespace perfbench {
namespace {

// A 4 MiB table the kernel scatters into and a 128 KiB open-addressing set
// it probes, like the search's trie lookups; static, so this half of the
// kernel never allocates.
uint64_t scatter[1 << 19];
uint64_t probe_set[1 << 14];
volatile uint64_t sink;

uint64_t ScatterAndProbe() {
  uint64_t x = 0x2545f4914f6cdd1dULL;
  uint64_t found = 0;
  int filled = 0;
  for (int i = 0; i < 60000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    scatter[x >> 45] += x;
    uint64_t key = (x >> 20) & 0xffff;
    for (uint64_t slot = Mix(key) & ((1 << 14) - 1);;
         slot = (slot + 1) & ((1 << 14) - 1)) {
      if (probe_set[slot] == key + 1) {
        ++found;
        break;
      }
      if (probe_set[slot] == 0) {
        if ((i & 3) == 0) {
          probe_set[slot] = key + 1;
          ++filled;
        }
        break;
      }
    }
    // Emptied at half full, so a probe always ends.
    if (filled == (1 << 13)) {
      for (uint64_t& v : probe_set) v = 0;
      filled = 0;
    }
  }
  return x + found;
}

// Small-object churn through the global allocator: hashed and ordered
// containers of short strings, as the parser and session layers build.
uint64_t AllocationChurn() {
  std::unordered_map<uint64_t, std::string> by_hash;
  std::map<uint64_t, int> ordered;
  uint64_t x = 7;
  for (int i = 0; i < 3000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    by_hash[x >> 52] = std::to_string(x);
    ordered[x >> 48] += i;
    if (i % 3 == 0) ordered.erase(ordered.begin());
  }
  return by_hash.size() + ordered.size();
}

}  // namespace

void HostSpeed::Sample() {
  int64_t t0 = NowNs();
  sink = ScatterAndProbe() + AllocationChurn();
  int64_t t1 = NowNs();
  samples_.emplace_back((t0 + t1) / 2, (t1 - t0) / 1e6);
}

int64_t HostSpeed::MaybeSample(double interval_ms) {
  int64_t t0 = NowNs();
  if (!samples_.empty() &&
      t0 - samples_.back().first < static_cast<int64_t>(interval_ms * 1e6)) {
    return 0;
  }
  Sample();
  return NowNs() - t0;
}

double HostSpeed::FactorAt(int64_t start_ns, int64_t end_ns) const {
  if (samples_.empty()) return 1;
  int64_t mid = start_ns + (end_ns - start_ns) / 2;
  auto at = std::lower_bound(samples_.begin(), samples_.end(), mid,
                             [](const std::pair<int64_t, double>& s,
                                int64_t t) { return s.first < t; });
  size_t i = static_cast<size_t>(at - samples_.begin());
  size_t lo = i >= 2 ? i - 2 : 0;
  size_t hi = std::min(i + 2, samples_.size());
  if (hi - lo < 2) lo = hi >= 2 ? hi - 2 : 0;  // an end: the nearest two
  std::vector<double> around;
  for (size_t k = lo; k < hi; ++k) around.push_back(samples_[k].second);
  return kReferenceMs / Quantile(around, 0.5);
}

double HostSpeed::ScalePass(
    const std::vector<std::pair<int64_t, int64_t>>& ops, double seconds,
    int64_t pass_start_ns, int64_t pass_end_ns,
    std::vector<double>* op_ms) const {
  double ops_s = 0, scaled_s = 0;
  for (const auto& [start, end] : ops) {
    double s = (end - start) / 1e9;
    double scaled = Scale(s, start, end);
    ops_s += s;
    scaled_s += scaled;
    op_ms->push_back(scaled * 1e3);
  }
  return scaled_s + Scale(seconds - ops_s, pass_start_ns, pass_end_ns);
}

std::string HostSpeed::Describe() const {
  std::vector<double> ms;
  for (const auto& s : samples_) ms.push_back(s.second);
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "host: reference kernel p10 %.4f median %.4f p90 %.4f ms "
                "over %zu samples; times scaled to a %.1f ms kernel",
                Quantile(ms, 0.1), Quantile(ms, 0.5), Quantile(ms, 0.9),
                ms.size(), kReferenceMs);
  return buf;
}

}  // namespace perfbench
