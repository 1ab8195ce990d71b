// The host speed reference of the benchmark.
//
// The benchmark runs on shared machines whose speed drifts by up to 2x
// within seconds while other tenants load the same cores, caches and
// memory; the drift shows in CPU time as much as in wall time. So the
// harness also times a fixed reference kernel — table scatter, hash
// probes and small-object churn, code of the benchmark only — between its
// timed operations, at most every few tens of milliseconds, and reports
// each measured time scaled to a host that runs the kernel in exactly
// kReferenceMs:
//
//   reported = measured * kReferenceMs / (kernel time around it)
//
// where "around it" is the median of the two kernel samples before the
// operation's midpoint and the two after. A change to the program moves a
// reported time as much as the measured one; a drift of the host, which
// slows the kernel alike, cancels. The unscaled times are printed too.
#ifndef PERFBENCH_HOSTSPEED_H_
#define PERFBENCH_HOSTSPEED_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class HostSpeed {
 public:
  /// What the kernel takes on the host the reported times are scaled to.
  static constexpr double kReferenceMs = 4.0;

  /// Times the kernel once.
  void Sample();
  /// Times the kernel if at least `interval_ms` passed since the last
  /// sample; returns the nanoseconds it spent (0 when it did not sample).
  int64_t MaybeSample(double interval_ms);

  /// kReferenceMs / the kernel time around [start_ns, end_ns]: multiply a
  /// time measured over that interval by it. 1 before any sample.
  double FactorAt(int64_t start_ns, int64_t end_ns) const;
  /// A time measured over [start_ns, end_ns] (in any unit), scaled.
  double Scale(double time, int64_t start_ns, int64_t end_ns) const {
    return time * FactorAt(start_ns, end_ns);
  }

  /// Scales one pass of timed operations (each [start, end] ns). Appends
  /// each operation's scaled time in ms to `*op_ms` and returns the scaled
  /// pass: its operations, plus the rest of its `seconds` scaled by the
  /// kernel around [pass_start_ns, pass_end_ns].
  double ScalePass(const std::vector<std::pair<int64_t, int64_t>>& ops,
                   double seconds, int64_t pass_start_ns, int64_t pass_end_ns,
                   std::vector<double>* op_ms) const;

  /// One human-readable line: sample count and kernel time quantiles.
  std::string Describe() const;

 private:
  std::vector<std::pair<int64_t, double>> samples_;  // (midpoint ns, ms)
};

}  // namespace perfbench

#endif  // PERFBENCH_HOSTSPEED_H_
