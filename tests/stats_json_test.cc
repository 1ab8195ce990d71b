// VerifyStats::ToJson round-trip coverage (ISSUE 6 satellite): every
// stats field grown across PR 1–6 must surface in the JSON payload with
// its stable snake_case key, parse back with obs::Json::Parse, and — in
// a telemetry-on end-to-end run — the ISSUE-6 search histograms must be
// populated. A field silently dropped from ToJson breaks the
// `wave_verify --stats-json` contract external tooling diffs against.
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "api/wire.h"
#include "apps/apps.h"
#include "gtest/gtest.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "verifier/verifier.h"

namespace wave {
namespace {

VerifyResult RunWithMetrics(Verifier& verifier, const Property& property,
                            obs::MetricsRegistry* metrics) {
  VerifyRequest request;
  request.property = &property;
  request.options.metrics = metrics;
  StatusOr<VerifyResponse> response = verifier.Run(request);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  return *response;
}

// The full key inventory, PR by PR. Kept explicit (not derived from the
// struct) so removing a field from ToJson fails this test by name.
const char* const kScalarKeys[] = {
    // PR 1 (paper columns + phase times + trie/heartbeat telemetry):
    "seconds", "prepare_seconds", "dataflow_seconds", "search_seconds",
    "validate_seconds", "max_pseudorun_length", "max_trie_size",
    "buchi_states", "num_assignments", "num_cores", "num_expansions",
    "num_successors", "num_rejected_candidates", "trie_hits", "trie_misses",
    "heartbeats",
    // PR 2 (resource governor):
    "peak_memory_bytes", "governor_polls",
    // PR 4 (sessions + persistent cache):
    "cache_hits", "prepass_reuses",
    // PR 6 (allocation profiling):
    "alloc_bytes", "alloc_count",
};

const char* const kHistogramKeys[] = {
    "search_depth",     "trie_lookup_us",    "shard_expansions",
    "shard_alloc_bytes",
};

const char* const kHistogramSummaryKeys[] = {
    "count", "sum", "min", "max", "mean", "p50", "p90", "p99",
};

TEST(StatsJsonTest, EveryFieldPresentAndRoundTrips) {
  AppBundle bundle = BuildE2();
  Verifier verifier(bundle.spec.get());
  obs::MetricsRegistry metrics;
  VerifyResult result =
      RunWithMetrics(verifier, bundle.properties.front().property, &metrics);

  obs::Json j = result.stats.ToJson();
  ASSERT_TRUE(j.is_object());
  for (const char* key : kScalarKeys) {
    const obs::Json* v = j.Find(key);
    ASSERT_NE(v, nullptr) << "missing scalar key: " << key;
    EXPECT_TRUE(v->is_number()) << key;
  }
  for (const char* key : kHistogramKeys) {
    const obs::Json* h = j.Find(key);
    ASSERT_NE(h, nullptr) << "missing histogram key: " << key;
    ASSERT_TRUE(h->is_object()) << key;
    for (const char* summary : kHistogramSummaryKeys) {
      EXPECT_TRUE(h->Has(summary)) << key << "." << summary;
    }
  }

  // Round trip: the compact dump parses back and numeric fields agree.
  std::string error;
  std::optional<obs::Json> parsed = obs::Json::Parse(j.Dump(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->Find("num_expansions")->AsInt(),
            result.stats.num_expansions);
  EXPECT_EQ(parsed->Find("max_trie_size")->AsInt(),
            result.stats.max_trie_size);
  EXPECT_EQ(parsed->Find("peak_memory_bytes")->AsInt(),
            result.stats.peak_memory_bytes);
  EXPECT_EQ(parsed->Find("cache_hits")->AsInt(), result.stats.cache_hits);
  EXPECT_EQ(parsed->Find("prepass_reuses")->AsInt(),
            result.stats.prepass_reuses);
  EXPECT_DOUBLE_EQ(parsed->Find("search_depth")->Find("count")->AsDouble(),
                   static_cast<double>(result.stats.search_depth.count));
}

TEST(StatsJsonTest, MergeSumsCountersAndTimesKeepsMaximaAndMergesBuckets) {
  const std::set<std::string> high_water_marks = {
      "max_pseudorun_length", "max_trie_size", "buchi_states",
      "peak_memory_bytes", "governor_polls"};
  obs::HistogramData all_samples;
  for (double v : {1.0, 4.0, 4.0, 1000.0}) all_samples.Record(v);
  VerifyStats a, b;
  VerifyStats::ForEachField([&](const char*, auto member, StatsMerge) {
    if constexpr (std::is_same_v<std::decay_t<decltype(a.*member)>,
                                 obs::HistogramData>) {
      (a.*member).Record(1.0);
      (a.*member).Record(4.0);
      (b.*member).Record(4.0);
      (b.*member).Record(1000.0);
    } else {
      a.*member = 3;
      b.*member = 5;
    }
  });
  a.Merge(b);
  int scalars = 0, histograms = 0;
  VerifyStats::ForEachField([&](const char* key, auto member, StatsMerge) {
    const auto& merged = a.*member;
    if constexpr (std::is_same_v<std::decay_t<decltype(merged)>,
                                 obs::HistogramData>) {
      ++histograms;
      EXPECT_EQ(merged.count, all_samples.count) << key;
      EXPECT_EQ(merged.sum, all_samples.sum) << key;
      EXPECT_EQ(merged.min, all_samples.min) << key;
      EXPECT_EQ(merged.max, all_samples.max) << key;
      EXPECT_EQ(merged.buckets, all_samples.buckets) << key;
    } else {
      ++scalars;
      EXPECT_EQ(merged, high_water_marks.count(key) > 0 ? 5 : 3 + 5) << key;
    }
  });
  EXPECT_EQ(scalars, 22);
  EXPECT_EQ(histograms, 4);
}

TEST(StatsJsonTest, TelemetryOnRunPopulatesSearchHistograms) {
  AppBundle bundle = BuildE1();
  Verifier verifier(bundle.spec.get());
  obs::MetricsRegistry metrics;
  // P1 is tiny; any property with a real search populates the telemetry.
  VerifyResult result =
      RunWithMetrics(verifier, bundle.properties.front().property, &metrics);

  EXPECT_GT(result.stats.search_depth.count, 0);
  EXPECT_GT(result.stats.shard_expansions.count, 0);
  EXPECT_GT(result.stats.alloc_bytes, 0);
  EXPECT_GT(result.stats.alloc_count, 0);

  // The same telemetry lands in the shared registry under the ISSUE-6
  // metric names.
  EXPECT_GT(metrics.histogram("search.depth")->count(), 0);
  EXPECT_GT(metrics.histogram("search.shard_expansions")->count(), 0);
  EXPECT_GT(metrics.counter("alloc.search.bytes")->value(), 0);
  EXPECT_GT(metrics.counter("alloc.search.count")->value(), 0);

  // And the JSON summaries reflect the recorded data.
  obs::Json j = result.stats.ToJson();
  EXPECT_GT(j.Find("shard_expansions")->Find("count")->AsInt(), 0);
  EXPECT_GT(j.Find("search_depth")->Find("max")->AsDouble(), 0);
  EXPECT_GE(j.Find("search_depth")->Find("p99")->AsDouble(),
            j.Find("search_depth")->Find("p50")->AsDouble());
}

TEST(StatsJsonTest, BatchMergedStatsCarryTelemetry) {
  AppBundle bundle = BuildE2();
  Verifier verifier(bundle.spec.get());
  obs::MetricsRegistry metrics;
  BatchRequest request;
  std::vector<Property> properties;
  for (const ParsedProperty& p : bundle.properties) {
    properties.push_back(p.property);
  }
  request.properties = &properties;
  request.options.metrics = &metrics;
  StatusOr<BatchResponse> response = verifier.RunBatch(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();

  // Merged histograms are the exact bucket-sum of the per-property ones.
  int64_t per_property_expansion_records = 0;
  for (const VerifyResponse& r : response->responses) {
    per_property_expansion_records += r.stats.shard_expansions.count;
  }
  EXPECT_EQ(response->merged.shard_expansions.count,
            per_property_expansion_records);
  EXPECT_GT(response->merged.search_depth.count, 0);
  EXPECT_GT(response->merged.alloc_bytes, 0);
  EXPECT_TRUE(response->merged.ToJson().Has("shard_alloc_bytes"));
}

// `wave_verify --stats-json` writes a run's retry history with the wire
// codec: the bytes wave_serve sends under `attempts`, whose stats carry
// lossless histogram buckets rather than p50/p90/p99 summaries.
TEST(StatsJsonTest, AttemptsUseTheWireCodec) {
  AppBundle bundle = BuildE1();
  Verifier verifier(bundle.spec.get());
  obs::MetricsRegistry metrics;  // telemetry on: histograms get samples
  VerifyRequest request;
  request.property = FindProperty(bundle, "P1");
  ASSERT_NE(request.property, nullptr);
  request.options.metrics = &metrics;
  request.options.max_expansions = 4;  // P1 takes 40: early rungs fail
  request.retry.enabled = true;
  StatusOr<VerifyResponse> response = verifier.Run(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_GE(response->attempts.size(), 2u);
  EXPECT_EQ(response->verdict, Verdict::kHolds);

  obs::Json attempts = api::AttemptsToJson(response->attempts);
  obs::Json wire = api::ResponseToJson(*response, *bundle.spec);
  ASSERT_TRUE(wire.Has("attempts"));
  EXPECT_EQ(attempts.Dump(), wire.Find("attempts")->Dump());
  const obs::Json* depth =
      attempts.items().back().Find("stats")->Find("search_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_GT(depth->Find("count")->AsInt(), 0);
  EXPECT_TRUE(depth->Has("buckets"));
  EXPECT_FALSE(depth->Has("p50"));
}

}  // namespace
}  // namespace wave
