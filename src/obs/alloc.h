// Thin counting-allocator hook for per-phase allocation profiling
// (ISSUE 6).
//
// The hot search structures (visited set, encoded-key scratch, NDFS
// stacks, candidate tables, GPVW tableau) already account their own
// growth in bytes; this hook lets the verifier attribute that growth to
// a phase. A phase installs an `AllocStats` sink for the current thread
// with `ScopedAllocTracking`; the structures report growth through
// `CountAlloc`. With no sink installed — the default, and always the
// case when both metrics and tracing are off — `CountAlloc` is a
// thread-local load plus a predicted-not-taken branch: no atomics, no
// locks, no allocation. That is the zero-overhead guard the disabled
// path micro-test pins down.
//
// This is deliberately NOT a global `operator new` replacement: it only
// sees the structures that opt in, which is exactly the set the
// ROADMAP's "raw speed" rewrite (bitmap pseudoconfigurations, the
// visited set's key arena) targets, and it keeps the disabled path free.
#ifndef WAVE_OBS_ALLOC_H_
#define WAVE_OBS_ALLOC_H_

#include <cstdint>

namespace wave::obs {

/// Tally of tracked allocation events: total bytes and event count.
struct AllocStats {
  int64_t bytes = 0;
  int64_t count = 0;

  void MergeFrom(const AllocStats& other) {
    bytes += other.bytes;
    count += other.count;
  }
};

namespace internal {
// `constinit` says the variable has no dynamic initializer, so accesses
// compile to plain TLS references instead of going through a TLS wrapper
// and its weak init-function check. On that path GCC 12's UBSan null
// check reads flags that the linker's TLS relaxation no longer sets, and
// reports a false "store to null pointer".
extern constinit thread_local AllocStats* tls_alloc_sink;
}  // namespace internal

/// Reports one tracked allocation of `bytes` to the current thread's
/// sink, if any. Safe (and free) to call unconditionally from hot paths.
inline void CountAlloc(int64_t bytes, int64_t count = 1) {
  AllocStats* sink = internal::tls_alloc_sink;
  if (sink != nullptr) {
    sink->bytes += bytes;
    sink->count += count;
  }
}

/// The sink currently installed on this thread (null when tracking is off).
inline AllocStats* CurrentAllocSink() { return internal::tls_alloc_sink; }

/// Installs `sink` as this thread's allocation sink for the enclosing
/// scope; restores the previous sink (usually none) on destruction.
/// Scopes nest: an inner phase temporarily redirects the tally.
class ScopedAllocTracking {
 public:
  explicit ScopedAllocTracking(AllocStats* sink)
      : prev_(internal::tls_alloc_sink) {
    internal::tls_alloc_sink = sink;
  }
  ~ScopedAllocTracking() { internal::tls_alloc_sink = prev_; }

  ScopedAllocTracking(const ScopedAllocTracking&) = delete;
  ScopedAllocTracking& operator=(const ScopedAllocTracking&) = delete;

 private:
  AllocStats* prev_;
};

}  // namespace wave::obs

#endif  // WAVE_OBS_ALLOC_H_
