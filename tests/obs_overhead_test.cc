// Zero-overhead guard for disabled telemetry (ISSUE 6 satellite).
//
// The PR-6 search histograms and the counting-allocator hook must cost
// nothing when observability is off (`VerifyOptions::metrics` and
// `tracer` both null): the recording sites reduce to a predicted branch
// and the alloc hook to a TLS load. This binary replaces global
// `operator new` with a counting shim to prove the disabled paths
// allocate nothing, asserts a disabled end-to-end run leaves every
// telemetry field empty, and pins wall-time parity between disabled and
// enabled runs with a deliberately loose (4x + constant) bound that
// survives noisy single-core CI hosts.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "apps/apps.h"
#include "common/stopwatch.h"
#include "gtest/gtest.h"
#include "obs/alloc.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "verifier/verifier.h"

namespace {

// Binary-local replacement allocator: every operator-new in the process
// bumps g_news. Counting only (no behavior change), so coexists with
// sanitizer malloc interceptors.
std::atomic<uint64_t> g_news{0};

}  // namespace

void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace wave {
namespace {

VerifyResult RunE2Property(Verifier& verifier, const Property& property,
                           obs::MetricsRegistry* metrics) {
  VerifyRequest request;
  request.property = &property;
  request.options.metrics = metrics;
  StatusOr<VerifyResponse> response = verifier.Run(request);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  return *response;
}

TEST(ObsOverheadTest, DisabledAllocHookAllocatesNothing) {
  // No sink installed: CountAlloc must be a TLS load + branch, zero
  // allocations. (The loop is volatile-ish enough via the atomic read.)
  ASSERT_EQ(obs::CurrentAllocSink(), nullptr);
  uint64_t before = g_news.load(std::memory_order_relaxed);
  for (int i = 0; i < 100000; ++i) {
    obs::CountAlloc(64);
    obs::CountAlloc(128, 2);
  }
  uint64_t after = g_news.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);

  // With a sink: still zero allocations (plain field adds).
  obs::AllocStats sink;
  {
    obs::ScopedAllocTracking tracking(&sink);
    before = g_news.load(std::memory_order_relaxed);
    for (int i = 0; i < 100000; ++i) obs::CountAlloc(64);
    after = g_news.load(std::memory_order_relaxed);
  }
  EXPECT_EQ(after, before);
  EXPECT_EQ(sink.bytes, 64 * 100000);
  EXPECT_EQ(sink.count, 100000);
  ASSERT_EQ(obs::CurrentAllocSink(), nullptr);
}

TEST(ObsOverheadTest, DisabledHistogramRecordSitesStayDark) {
  AppBundle bundle = BuildE2();
  Verifier verifier(bundle.spec.get());
  // Telemetry off: every ISSUE-6 stats field must stay all-zero — the
  // recording sites are gated, not merely discarded downstream.
  for (const ParsedProperty& p : bundle.properties) {
    VerifyResult result =
        RunE2Property(verifier, p.property, /*metrics=*/nullptr);
    EXPECT_EQ(result.stats.search_depth.count, 0) << p.property.name;
    EXPECT_EQ(result.stats.trie_lookup_us.count, 0) << p.property.name;
    EXPECT_EQ(result.stats.shard_expansions.count, 0) << p.property.name;
    EXPECT_EQ(result.stats.shard_alloc_bytes.count, 0) << p.property.name;
    EXPECT_EQ(result.stats.alloc_bytes, 0) << p.property.name;
    EXPECT_EQ(result.stats.alloc_count, 0) << p.property.name;
  }
}

TEST(ObsOverheadTest, TelemetryWallTimeParityWithinNoise) {
  AppBundle bundle = BuildE1();
  Verifier verifier(bundle.spec.get());
  // A mid-weight property (~tens of ms): long enough to measure, short
  // enough to run min-of-3 both ways. Index 4 is E1/P5.
  const Property& property = bundle.properties.at(4).property;
  // Warm the session so both measurements see the memoized pre-pass.
  RunE2Property(verifier, property, nullptr);

  auto min_of = [&](obs::MetricsRegistry* metrics) {
    double best = 1e9;
    for (int i = 0; i < 3; ++i) {
      Stopwatch watch;
      VerifyResult r = RunE2Property(verifier, property, metrics);
      double t = watch.ElapsedSeconds();
      EXPECT_NE(r.verdict, Verdict::kUnknown);
      if (t < best) best = t;
    }
    return best;
  };

  double off = min_of(nullptr);
  obs::MetricsRegistry metrics;
  double on = min_of(&metrics);
  // Loose parity: telemetry may not blow up the search. 4x + 10ms
  // absorbs scheduler noise on 1-cpu hosts while still catching a
  // pathological always-on cost (e.g. timing every trie op).
  EXPECT_LT(on, off * 4 + 0.010)
      << "telemetry-on=" << on << "s telemetry-off=" << off << "s";
}

}  // namespace
}  // namespace wave
