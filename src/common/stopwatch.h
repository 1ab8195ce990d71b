// Monotonic wall-clock stopwatch used by verifier statistics and benches.
#ifndef WAVE_COMMON_STOPWATCH_H_
#define WAVE_COMMON_STOPWATCH_H_

#include <chrono>

namespace wave {

/// Starts on construction; `ElapsedSeconds` can be read repeatedly.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace wave

#endif  // WAVE_COMMON_STOPWATCH_H_
