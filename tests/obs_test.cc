// Observability layer tests (ISSUE 1): JSON round-trips, metric
// aggregation, span nesting/ordering, and the disabled-tracer fast path.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <random>
#include <string>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace wave::obs {
namespace {

// --- Json --------------------------------------------------------------------

TEST(JsonTest, DumpsScalars) {
  EXPECT_EQ(Json::Null().Dump(), "null");
  EXPECT_EQ(Json::Bool(true).Dump(), "true");
  EXPECT_EQ(Json::Bool(false).Dump(), "false");
  EXPECT_EQ(Json::Int(42).Dump(), "42");
  EXPECT_EQ(Json::Int(-7).Dump(), "-7");
  EXPECT_EQ(Json::Str("hi").Dump(), "\"hi\"");
}

TEST(JsonTest, EscapesStrings) {
  EXPECT_EQ(Json::Str("a\"b\\c\n\t").Dump(), "\"a\\\"b\\\\c\\n\\t\"");
  EXPECT_EQ(Json::Str(std::string("\x01", 1)).Dump(), "\"\\u0001\"");
}

TEST(JsonTest, ObjectPreservesInsertionOrderAndReplaces) {
  Json obj = Json::Object();
  obj.Set("z", Json::Int(1));
  obj.Set("a", Json::Int(2));
  obj.Set("z", Json::Int(3));  // replace, not append
  EXPECT_EQ(obj.Dump(), "{\"z\":3,\"a\":2}");
  ASSERT_NE(obj.Find("z"), nullptr);
  EXPECT_EQ(obj.Find("z")->AsInt(), 3);
  EXPECT_EQ(obj.Find("missing"), nullptr);
}

TEST(JsonTest, RoundTripsNestedDocument) {
  Json doc = Json::Object();
  doc.Set("name", Json::Str("wave"));
  doc.Set("pi", Json::Number(3.25));
  doc.Set("big", Json::Int(1234567890123456789LL));
  doc.Set("flag", Json::Bool(true));
  doc.Set("nothing", Json::Null());
  Json arr = Json::Array();
  arr.Append(Json::Int(1));
  Json inner = Json::Object();
  inner.Set("k", Json::Str("v\nwith\tescapes\""));
  arr.Append(std::move(inner));
  doc.Set("items", std::move(arr));

  for (int indent : {-1, 2}) {
    std::string text = doc.Dump(indent);
    std::string error;
    std::optional<Json> parsed = Json::Parse(text, &error);
    ASSERT_TRUE(parsed.has_value()) << error << " in: " << text;
    EXPECT_EQ(parsed->Dump(), doc.Dump());
    EXPECT_EQ(parsed->Find("big")->AsInt(), 1234567890123456789LL);
    EXPECT_DOUBLE_EQ(parsed->Find("pi")->AsDouble(), 3.25);
    EXPECT_TRUE(parsed->Find("nothing")->is_null());
    EXPECT_EQ(parsed->Find("items")->items()[1].Find("k")->AsString(),
              "v\nwith\tescapes\"");
  }
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2",
        "{\"a\" 1}", "[1 2]", "nul"}) {
    std::string error;
    EXPECT_FALSE(Json::Parse(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
  // Nesting is bounded: 2 MB of '[' (or of '{"a":') fails cleanly instead
  // of overflowing the recursive parser's stack, while 512 levels parse.
  std::string objects;
  for (int i = 0; i < 200000; ++i) objects += "{\"a\":";
  for (const std::string& deep : {std::string(2 << 20, '['), objects}) {
    std::string error;
    EXPECT_FALSE(Json::Parse(deep, &error).has_value());
    EXPECT_NE(error.find("nesting"), std::string::npos) << error;
  }
  std::string limit = std::string(512, '[') + std::string(512, ']');
  EXPECT_TRUE(Json::Parse(limit).has_value());
  std::string past = "[" + limit + "]";
  EXPECT_FALSE(Json::Parse(past).has_value());
}

TEST(JsonTest, ParseHandlesWhitespaceAndUnicodeEscapes) {
  std::optional<Json> v = Json::Parse("  { \"a\" : [ 1 , \"\\u0041\" ] } ");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->Find("a")->items()[1].AsString(), "A");
}

TEST(JsonTest, ManyKeyObjectsParseFastAndRepeatedKeysKeepTheLastValue) {
  // 200,000 distinct keys, then two repeats: one of an early key and one
  // of the last key. A linear scan per member makes this take minutes.
  constexpr int kKeys = 200000;
  std::string text = "{";
  for (int i = 0; i < kKeys; ++i) {
    text += "\"k" + std::to_string(i) + "\":" + std::to_string(i) + ",";
  }
  text += "\"k5\":-5,\"k" + std::to_string(kKeys - 1) + "\":-1}";

  auto start = std::chrono::steady_clock::now();
  std::optional<Json> v = Json::Parse(text);
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  ASSERT_TRUE(v.has_value());
  EXPECT_LT(seconds, 20.0);
  ASSERT_EQ(v->members().size(), static_cast<size_t>(kKeys));
  EXPECT_EQ(v->members()[5].first, "k5") << "the first position is kept";
  EXPECT_EQ(v->members()[5].second.AsInt(), -5) << "with the last value";
  EXPECT_EQ(v->members().back().second.AsInt(), -1);
  EXPECT_EQ(v->Find("k6")->AsInt(), 6);

  std::optional<Json> small = Json::Parse("{\"a\":1,\"b\":2,\"a\":3}");
  ASSERT_TRUE(small.has_value());
  EXPECT_EQ(small->Dump(), "{\"a\":3,\"b\":2}");
}

// --- Json property tests -----------------------------------------------------

/// Random bytes for strings and keys: every control byte, the quote, the
/// backslash, the slash, DEL, non-ASCII bytes and plain letters.
std::string RandomBytes(std::mt19937_64* rng) {
  static const std::string kSpecial = std::string("\"\\/\x7f", 4);
  std::string s;
  const int length = static_cast<int>((*rng)() % 12);
  for (int i = 0; i < length; ++i) {
    switch ((*rng)() % 5) {
      case 0: s.push_back(static_cast<char>((*rng)() % 0x20)); break;
      case 1: s.push_back(kSpecial[(*rng)() % kSpecial.size()]); break;
      case 2: s.push_back(static_cast<char>(0x80 + (*rng)() % 0x80)); break;
      default: s.push_back(static_cast<char>('a' + (*rng)() % 26));
    }
  }
  return s;
}

/// Finite doubles the dumper prints in each of its two forms, the
/// boundaries between them, and random bit patterns.
double RandomDouble(std::mt19937_64* rng) {
  static const double kSpecial[] = {
      -0.0, 0.0, 1e300, -1e300, 5e-324, 2.0, -3.0, 0.1, 1e15, 1e15 - 1,
      -1e15, 1e17, 0x1p63, -0x1p63, 1.7976931348623157e308, 2.5e-308};
  if ((*rng)() % 2 == 0) return kSpecial[(*rng)() % std::size(kSpecial)];
  while (true) {
    uint64_t bits = (*rng)();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    if (std::isfinite(v)) return v;
  }
}

Json RandomJson(std::mt19937_64* rng, int depth, int max_depth) {
  static const int64_t kInts[] = {INT64_MIN, INT64_MAX, 0, -1, 1};
  // Past `max_depth` only scalars; a chain document forces the depth.
  const uint64_t kinds = depth >= max_depth ? 6 : 8;
  switch ((*rng)() % kinds) {
    case 0: return Json::Null();
    case 1: return Json::Bool((*rng)() % 2 == 0);
    case 2:
      return Json::Int((*rng)() % 2 == 0
                           ? kInts[(*rng)() % std::size(kInts)]
                           : static_cast<int64_t>((*rng)()));
    case 3: return Json::Number(RandomDouble(rng));
    case 4:
    case 5: return Json::Str(RandomBytes(rng));
    case 6: {
      Json array = Json::Array();
      const int n = static_cast<int>((*rng)() % 5);
      for (int i = 0; i < n; ++i) {
        array.Append(RandomJson(rng, depth + 1, max_depth));
      }
      return array;
    }
    default: {
      Json object = Json::Object();
      const int n = static_cast<int>((*rng)() % 5);
      for (int i = 0; i < n; ++i) {
        object.Set(RandomBytes(rng), RandomJson(rng, depth + 1, max_depth));
      }
      return object;
    }
  }
}

/// Wraps `leaf` in `levels` alternating arrays and objects.
Json Chain(Json leaf, int levels, std::mt19937_64* rng) {
  for (int i = 0; i < levels; ++i) {
    if (i % 2 == 0) {
      Json array = Json::Array();
      array.Append(Json::Int(i));
      array.Append(std::move(leaf));
      leaf = std::move(array);
    } else {
      Json object = Json::Object();
      object.Set(RandomBytes(rng), std::move(leaf));
      leaf = std::move(object);
    }
  }
  return leaf;
}

TEST(JsonPropertyTest, DumpParseDumpIsTheIdentity) {
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    std::mt19937_64 rng(seed);
    Json doc = seed % 10 == 0 ? Chain(RandomJson(&rng, 0, 2), 64, &rng)
                              : RandomJson(&rng, 0, 6);
    for (int indent : {-1, 2}) {
      const std::string text = doc.Dump(indent);
      std::string error;
      std::optional<Json> parsed = Json::Parse(text, &error);
      ASSERT_TRUE(parsed.has_value())
          << "seed " << seed << " indent " << indent << ": " << error;
      EXPECT_EQ(parsed->Dump(indent), text)
          << "seed " << seed << " indent " << indent;
    }
  }
}

TEST(JsonPropertyTest, EveryEscapeDecodesAndReencodesStably) {
  // Escapes the dumper never writes (\/, \u of printable and non-ASCII
  // code points, upper-case hex) decode to the bytes they name, and the
  // decoded value then round-trips exactly.
  std::mt19937_64 rng(7);
  static const char* kEscapes[] = {"\\\"", "\\\\", "\\/", "\\b", "\\f",
                                   "\\n", "\\r", "\\t", "\\u0041",
                                   "\\u00e9", "\\u20AC", "\\u0000",
                                   "\\u001F", "\\uD83D"};
  for (int round = 0; round < 200; ++round) {
    std::string text = "\"";
    for (int i = 0; i < 8; ++i) {
      if (rng() % 2 == 0) {
        text += kEscapes[rng() % std::size(kEscapes)];
      } else {
        text.push_back(static_cast<char>('a' + rng() % 26));
      }
    }
    text += "\"";
    std::optional<Json> once = Json::Parse(text);
    ASSERT_TRUE(once.has_value()) << text;
    std::optional<Json> twice = Json::Parse(once->Dump());
    ASSERT_TRUE(twice.has_value()) << once->Dump();
    EXPECT_EQ(twice->AsString(), once->AsString()) << text;
    EXPECT_EQ(twice->Dump(), once->Dump()) << text;
  }
  std::optional<Json> decoded = Json::Parse(R"("\/\u00e9\u20AC")");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->AsString(), "/\xc3\xa9\xe2\x82\xac");
  EXPECT_EQ(decoded->Dump(), "\"/\xc3\xa9\xe2\x82\xac\"");
}

TEST(JsonPropertyTest, NumbersKeepTheirPrintfText) {
  // Integral doubles below 1e15 print as "%.1f", every other finite double
  // as "%.17g", integers as "%lld".
  std::mt19937_64 rng(11);
  for (int i = 0; i < 20000; ++i) {
    double v = RandomDouble(&rng);
    char want[40];
    std::snprintf(want, sizeof(want),
                  v == std::floor(v) && std::fabs(v) < 1e15 ? "%.1f" : "%.17g",
                  v);
    ASSERT_EQ(Json::Number(v).Dump(), want);
    int64_t n = static_cast<int64_t>(rng());
    std::snprintf(want, sizeof(want), "%lld", static_cast<long long>(n));
    ASSERT_EQ(Json::Int(n).Dump(), want);
  }
  EXPECT_EQ(Json::Int(INT64_MIN).Dump(), "-9223372036854775808");
  EXPECT_EQ(Json::Number(-0.0).Dump(), "-0.0");
  EXPECT_EQ(Json::Number(5e-324).Dump(), "4.9406564584124654e-324");
  EXPECT_EQ(Json::Number(std::nan("")).Dump(), "null");
  // Magnitudes past double's range read as strtod reads them.
  EXPECT_EQ(Json::Parse("1e400")->AsDouble(), HUGE_VAL);
  EXPECT_EQ(Json::Parse("-1e-400")->AsDouble(), 0.0);
  EXPECT_EQ(Json::Parse("99999999999999999999")->AsDouble(), 1e20);
}

TEST(JsonPropertyTest, RepeatedKeysKeepTheFirstPositionAndTheLastValue) {
  // Objects on both sides of the size where the parser stops scanning
  // keys and starts indexing them, with repeats early, late and of the
  // last key; `Set` has the same semantics and is the oracle.
  std::mt19937_64 rng(5);
  for (int keys : {1, 2, 31, 32, 33, 64, 300}) {
    std::string text = "{";
    Json expected = Json::Object();
    for (int i = 0; i < keys + keys / 2 + 3; ++i) {
      const int k = i < keys ? i : static_cast<int>(rng() % keys);
      const std::string key = "k" + std::to_string(k);
      if (i > 0) text += ",";
      text += "\"" + key + "\":" + std::to_string(i);
      expected.Set(key, Json::Int(i));
    }
    text += "}";
    std::optional<Json> parsed = Json::Parse(text);
    ASSERT_TRUE(parsed.has_value()) << keys;
    EXPECT_EQ(parsed->Dump(), expected.Dump()) << keys;
    EXPECT_EQ(parsed->members().size(), static_cast<size_t>(keys));
  }
}

// --- MetricsRegistry ---------------------------------------------------------

TEST(MetricsTest, CountersAggregate) {
  MetricsRegistry registry;
  Counter* c = registry.counter("verify.expansions");
  c->Add();
  c->Add(41);
  registry.Add("verify.expansions");  // same instrument by name
  EXPECT_EQ(registry.counter("verify.expansions")->value(), 43);
  EXPECT_EQ(registry.counter("untouched")->value(), 0);
}

TEST(MetricsTest, GaugeTracksMax) {
  MetricsRegistry registry;
  registry.Set("trie.size", 10);
  registry.Set("trie.size", 4);
  EXPECT_EQ(registry.gauge("trie.size")->value(), 4);
  EXPECT_EQ(registry.gauge("trie.size")->max(), 10);
}

TEST(MetricsTest, HistogramQuantiles) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("lat");
  for (int i = 1; i <= 100; ++i) h->Record(i);
  EXPECT_EQ(h->count(), 100);
  EXPECT_DOUBLE_EQ(h->sum(), 5050);
  EXPECT_DOUBLE_EQ(h->min(), 1);
  EXPECT_DOUBLE_EQ(h->max(), 100);
  // Log-bucketed estimates: relative error is bounded by the sub-bucket
  // width (1/kSubBuckets of an octave); endpoints are exact.
  EXPECT_NEAR(h->Quantile(0.5), 50.5, 50.5 / HistogramData::kSubBuckets);
  EXPECT_NEAR(h->Quantile(0.9), 90.1, 90.1 / HistogramData::kSubBuckets);
  EXPECT_DOUBLE_EQ(h->Quantile(0.0), 1);
  EXPECT_DOUBLE_EQ(h->Quantile(1.0), 100);
  // Quantiles are monotone in q.
  double prev = h->Quantile(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    double cur = h->Quantile(q);
    EXPECT_GE(cur, prev) << "q=" << q;
    prev = cur;
  }
}

TEST(MetricsTest, HistogramDataBucketsAndExactMerge) {
  // Bucket boundaries: each value maps into a bucket whose range
  // contains it; the underflow bucket takes non-positive values.
  EXPECT_EQ(HistogramData::BucketIndex(0), 0);
  EXPECT_EQ(HistogramData::BucketIndex(-3.5), 0);
  for (double v : {0.01, 1.0, 1.1, 7.0, 1024.0, 1e9}) {
    int b = HistogramData::BucketIndex(v);
    ASSERT_GT(b, 0) << v;
    ASSERT_LT(b, HistogramData::kNumBuckets - 1) << v;
    EXPECT_LE(HistogramData::BucketLow(b), v) << v;
    EXPECT_GT(HistogramData::BucketLow(b + 1), v) << v;
  }
  EXPECT_EQ(HistogramData::BucketIndex(1e18), HistogramData::kNumBuckets - 1);

  // Merging adds bucket counts: two halves merged == everything recorded
  // into one histogram, bit-for-bit (the per-shard merge invariant).
  HistogramData all, lo, hi;
  for (int i = 1; i <= 1000; ++i) {
    all.Record(i);
    (i <= 500 ? lo : hi).Record(i);
  }
  lo.MergeFrom(hi);
  EXPECT_EQ(lo.count, all.count);
  EXPECT_DOUBLE_EQ(lo.sum, all.sum);
  EXPECT_DOUBLE_EQ(lo.min, all.min);
  EXPECT_DOUBLE_EQ(lo.max, all.max);
  EXPECT_EQ(lo.buckets, all.buckets);
  for (double q : {0.25, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(lo.Quantile(q), all.Quantile(q)) << q;
  }
  // Merging an empty histogram is the identity.
  HistogramData empty;
  all.MergeFrom(empty);
  EXPECT_EQ(all.count, 1000);
  // ToJson carries the standard summary keys.
  Json j = all.ToJson();
  for (const char* key :
       {"count", "sum", "min", "max", "mean", "p50", "p90", "p99"}) {
    EXPECT_NE(j.Find(key), nullptr) << key;
  }
}

TEST(MetricsTest, MergeFromFoldsAllInstruments) {
  MetricsRegistry a, b;
  a.Add("c", 1);
  b.Add("c", 2);
  b.Add("only_b", 5);
  a.Set("g", 10);
  b.Set("g", 3);
  a.Record("h", 1);
  b.Record("h", 3);
  a.MergeFrom(b);
  EXPECT_EQ(a.counter("c")->value(), 3);
  EXPECT_EQ(a.counter("only_b")->value(), 5);
  EXPECT_EQ(a.gauge("g")->value(), 3);
  EXPECT_EQ(a.gauge("g")->max(), 10);
  EXPECT_EQ(a.histogram("h")->count(), 2);
  EXPECT_DOUBLE_EQ(a.histogram("h")->sum(), 4);
}

TEST(MetricsTest, ToJsonSnapshotsEverything) {
  MetricsRegistry registry;
  registry.Add("n", 7);
  registry.Set("g", 2.5);
  registry.Record("h", 1.5);
  Json snapshot = registry.ToJson();
  std::optional<Json> reparsed = Json::Parse(snapshot.Dump(2));
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->Find("counters")->Find("n")->AsInt(), 7);
  EXPECT_DOUBLE_EQ(reparsed->Find("gauges")->Find("g")->Find("value")->AsDouble(),
                   2.5);
  EXPECT_EQ(reparsed->Find("histograms")->Find("h")->Find("count")->AsInt(), 1);
  EXPECT_FALSE(registry.Summary().empty());
}

// --- Tracer ------------------------------------------------------------------

TEST(TracerTest, RecordsNestedSpansWithContainment) {
  Tracer tracer;
  {
    ScopedSpan outer(&tracer, "outer");
    { ScopedSpan inner(&tracer, "inner"); }
    { ScopedSpan inner2(&tracer, "inner2"); }
  }
  ASSERT_EQ(tracer.events().size(), 3u);
  // Children complete (and are recorded) before their parent.
  const TraceEvent& inner = tracer.events()[0];
  const TraceEvent& inner2 = tracer.events()[1];
  const TraceEvent& outer = tracer.events()[2];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(inner2.name, "inner2");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.depth, 0);
  EXPECT_EQ(inner.depth, 1);
  EXPECT_EQ(inner2.depth, 1);
  // Temporal containment and ordering.
  EXPECT_LE(outer.ts_us, inner.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us + 1e-6);
  EXPECT_LE(inner.ts_us + inner.dur_us, inner2.ts_us + 1e-6);
}

TEST(TracerTest, NullTracerSpansAreNoOps) {
  // The disabled fast path: instrumented code holds a null Tracer*.
  ScopedSpan span(nullptr, "ignored");
  span.End();  // idempotent, still fine
}

TEST(TracerTest, EarlyEndIsIdempotent) {
  Tracer tracer;
  ScopedSpan span(&tracer, "s");
  span.End();
  span.End();  // second End must not pop anything else
  EXPECT_EQ(tracer.events().size(), 1u);
}

TEST(TracerTest, EventCapDropsButStaysBalanced) {
  Tracer tracer(/*max_events=*/1);
  {
    ScopedSpan a(&tracer, "a");
    { ScopedSpan b(&tracer, "b"); }  // recorded (1 slot)
  }                                  // dropped
  tracer.Instant("also dropped");
  EXPECT_EQ(tracer.events().size(), 1u);
  EXPECT_EQ(tracer.dropped_events(), 2);
  std::optional<Json> doc = Json::Parse(tracer.ToChromeTraceJson());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->Find("droppedEvents")->AsInt(), 2);
}

TEST(TracerTest, ChromeTraceJsonRoundTripsWithRequiredFields) {
  Tracer tracer;
  {
    ScopedSpan outer(&tracer, "verify");
    { ScopedSpan inner(&tracer, "prepare"); }
    tracer.Instant("marker");
    tracer.Counter("expansions", 17);
  }
  std::string text = tracer.ToChromeTraceJson();
  std::string error;
  std::optional<Json> doc = Json::Parse(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const Json* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->size(), 4u);
  bool saw_span = false, saw_instant = false, saw_counter = false;
  for (const Json& e : events->items()) {
    ASSERT_TRUE(e.Find("name") && e.Find("ph") && e.Find("ts") &&
                e.Find("pid") && e.Find("tid"));
    const std::string& ph = e.Find("ph")->AsString();
    if (ph == "X") {
      saw_span = true;
      EXPECT_NE(e.Find("dur"), nullptr);
    } else if (ph == "i") {
      saw_instant = true;
    } else if (ph == "C") {
      saw_counter = true;
      EXPECT_DOUBLE_EQ(e.Find("args")->Find("value")->AsDouble(), 17);
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_instant);
  EXPECT_TRUE(saw_counter);
}

TEST(TracerTest, CounterHistogramEmitsSummaryTracks) {
  Tracer tracer;
  HistogramData h;
  for (int i = 1; i <= 10; ++i) h.Record(i);
  tracer.CounterHistogram("search.depth", h);
  ASSERT_EQ(tracer.events().size(), 5u);
  for (const TraceEvent& e : tracer.events()) {
    EXPECT_EQ(e.phase, TraceEvent::Phase::kCounter);
  }
  EXPECT_EQ(tracer.events()[0].name, "search.depth.p50");
  EXPECT_EQ(tracer.events()[4].name, "search.depth.count");
  EXPECT_DOUBLE_EQ(tracer.events()[4].value, 10);
  // Empty histograms emit nothing.
  tracer.CounterHistogram("empty", HistogramData{});
  EXPECT_EQ(tracer.events().size(), 5u);
}

TEST(TracerTest, PhaseSummaryAggregatesByName) {
  Tracer tracer;
  for (int i = 0; i < 3; ++i) ScopedSpan span(&tracer, "phase_a");
  { ScopedSpan span(&tracer, "phase_b"); }
  std::string summary = tracer.PhaseSummary();
  EXPECT_NE(summary.find("phase_a"), std::string::npos);
  EXPECT_NE(summary.find("phase_b"), std::string::npos);
  EXPECT_NE(summary.find("3"), std::string::npos);  // phase_a count
}

}  // namespace
}  // namespace wave::obs
