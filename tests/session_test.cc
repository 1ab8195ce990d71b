// Verification sessions and persistent result caching (ISSUE 4).
//
// Covers the three layers the batch API stands on:
//  - VerifierSession memoization: the spec pre-pass runs once per
//    verifier, property plans and assignment contexts are reused across
//    calls, and the GPVW translation is shared between properties with
//    the same propositional skeleton;
//  - Verifier::RunBatch: verdicts and counterexamples identical to N
//    sequential Run calls on E1–E4, at jobs 1, 2 and 8, with
//    prepass_reuses == N-1 proving the shared pre-pass;
//  - ResultCache: fingerprint keys move exactly when a
//    semantics-affecting option (or the spec/property) changes, decided
//    verdicts round-trip through disk including counterexamples, and any
//    corrupt record degrades to a miss, never an error.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "common/fingerprint.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "verifier/cache.h"
#include "verifier/session.h"
#include "verifier/validate.h"
#include "verifier/verifier.h"

#include "verify_helpers.h"

namespace wave {
namespace {

/// A unique empty temp directory under the gtest-provided scratch root.
std::string FreshCacheDir(const char* tag) {
  static int counter = 0;
  std::string dir = ::testing::TempDir() + "wave_session_test_" + tag + "_" +
                    std::to_string(counter++);
  std::filesystem::remove_all(dir);
  return dir;
}

// --- session memoization -----------------------------------------------------

TEST(SessionTest, SpecPrepassRunsOncePerVerifier) {
  AppBundle e1 = BuildE1();
  Verifier verifier(e1.spec.get());
  const Property* p1 = FindProperty(e1, "P1");
  ASSERT_NE(p1, nullptr);

  RunVerify(verifier, *p1);
  const SessionStats after_first = verifier.session().stats();
  EXPECT_EQ(after_first.spec_builds, 1);
  EXPECT_EQ(after_first.plan_builds, 1);
  EXPECT_EQ(after_first.context_builds, 1);

  // The repeat run rebuilds nothing: every layer is served from the
  // session.
  RunVerify(verifier, *p1);
  const SessionStats after_second = verifier.session().stats();
  EXPECT_EQ(after_second.spec_builds, 1);
  EXPECT_EQ(after_second.plan_builds, 1);
  EXPECT_EQ(after_second.context_builds, 1);
  EXPECT_EQ(after_second.plan_reuses, after_first.plan_reuses + 1);
  EXPECT_EQ(after_second.context_reuses, after_first.context_reuses + 1);
}

TEST(SessionTest, PrepassCacheKeysOnSemanticsAffectingOptions) {
  AppBundle e1 = BuildE1();
  Verifier verifier(e1.spec.get());
  const Property* p1 = FindProperty(e1, "P1");
  ASSERT_NE(p1, nullptr);

  VerifyOptions base;
  RunVerify(verifier, *p1, base);
  int64_t builds = verifier.session().stats().context_builds;

  // Candidate-enumeration options key new pre-pass entries...
  VerifyOptions wider = base;
  wider.max_candidates = base.max_candidates * 2;
  RunVerify(verifier, *p1, wider);
  EXPECT_EQ(verifier.session().stats().context_builds, builds + 1);

  VerifyOptions exhaustive = base;
  exhaustive.exhaustive_existential = true;
  RunVerify(verifier, *p1, exhaustive);
  EXPECT_EQ(verifier.session().stats().context_builds, builds + 2);

  // ...while observability and scheduling options do not.
  VerifyOptions observed = base;
  obs::MetricsRegistry metrics;
  observed.metrics = &metrics;
  RunVerify(verifier, *p1, observed);
  EXPECT_EQ(verifier.session().stats().context_builds, builds + 2);
}

TEST(SessionTest, GpvwTranslationSharedAcrossSameSkeletonProperties) {
  // E1's suite repeats temporal shapes (several G[...] and F[...]
  // properties differ only in their FO components), so translating all 17
  // must hit the propositional-skeleton cache at least once.
  AppBundle e1 = BuildE1();
  Verifier verifier(e1.spec.get());
  for (const ParsedProperty& p : e1.properties) {
    verifier.session().GetPlan(p.property, nullptr);
  }
  const SessionStats stats = verifier.session().stats();
  EXPECT_EQ(stats.plan_builds, static_cast<int64_t>(e1.properties.size()));
  EXPECT_GT(stats.gpvw_hits, 0);
  EXPECT_LT(stats.gpvw_misses, static_cast<int64_t>(e1.properties.size()));
}

/// One `G ![at p]` property per page of `bundle`'s spec, parsed into it.
std::vector<Property> NeverAtEachPage(const AppBundle& bundle) {
  std::string text;
  for (int p = 0; p < bundle.spec->num_pages(); ++p) {
    text += "property never" + std::to_string(p) + " { G ![at " +
            bundle.spec->page(p).name + "] }\n";
  }
  ParseResult parsed = ParseProperties(text, bundle.spec.get());
  EXPECT_TRUE(parsed.ok()) << parsed.ErrorText();
  std::vector<Property> properties;
  for (const ParsedProperty& p : parsed.properties) {
    properties.push_back(p.property);
  }
  return properties;
}

TEST(SessionTest, PrepassCacheEvictsOnlyUnpinnedEntries) {
  // E4 has 35 pages, so 35 distinct properties: more than the 32 entries
  // the pre-pass cache keeps.
  AppBundle e4 = BuildE4();
  const std::vector<Property> catalog = NeverAtEachPage(e4);
  ASSERT_EQ(catalog.size(), 35u);
  Verifier verifier(e4.spec.get());
  BatchRequest request;
  request.properties = &catalog;
  StatusOr<BatchResponse> batch = verifier.RunBatch(request);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();

  // Every entry stays pinned until the batch's merge, so none is evicted
  // and the cache holds all 35.
  SessionStats stats = verifier.session().stats();
  EXPECT_EQ(stats.context_builds, 35);
  EXPECT_EQ(stats.context_evictions, 0);

  // Each verdict is the one a single Run gives on a fresh verifier.
  AppBundle fresh = BuildE4();
  const std::vector<Property> fresh_catalog = NeverAtEachPage(fresh);
  Verifier single(fresh.spec.get());
  int violated = 0;
  for (size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_EQ(batch->responses[i].verdict,
              RunVerify(single, fresh_catalog[i]).verdict)
        << catalog[i].name;
    if (batch->responses[i].verdict == Verdict::kViolated) ++violated;
  }
  EXPECT_GT(violated, 0);

  // Repeating the batch at once rebuilds no context.
  batch = verifier.RunBatch(request);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(verifier.session().stats().context_builds, 35);
  EXPECT_EQ(verifier.session().stats().context_reuses,
            stats.context_reuses + 35);
  EXPECT_EQ(verifier.session().stats().context_evictions, 0);

  // The next new (property, options) entry first evicts the least
  // recently used entries, the batch's first four, down to 31.
  VerifyOptions wider;
  wider.max_candidates = kDefaultMaxCandidates + 1;
  RunVerify(verifier, catalog[0], wider);
  stats = verifier.session().stats();
  EXPECT_EQ(stats.context_builds, 36);
  EXPECT_EQ(stats.context_evictions, 4);
  RunVerify(verifier, catalog[4]);
  EXPECT_EQ(verifier.session().stats().context_builds, 36);
  RunVerify(verifier, catalog[3]);
  EXPECT_EQ(verifier.session().stats().context_builds, 37);
}

// --- batch API ---------------------------------------------------------------

struct BatchCase {
  const char* name;
  AppBundle (*build)();
  int jobs;
};

// Stable listed test names: gtest would otherwise print the raw bytes,
// pointers included, which change from run to run.
void PrintTo(const BatchCase& c, std::ostream* os) {
  *os << c.name << " jobs=" << c.jobs;
}

class BatchEquivalenceTest : public ::testing::TestWithParam<BatchCase> {};

// One RunBatch over the whole catalog must agree with N sequential Run
// calls: same verdicts, and violated properties carry a genuine
// counterexample. At jobs=1 the counterexample is bit-identical to the
// sequential one (same shard order, same first claim).
TEST_P(BatchEquivalenceTest, MatchesSequentialRuns) {
  // Two independent bundles: witness symbols are minted lazily into the
  // spec's symbol table, so sequential and batch runs must each start
  // from a fresh table for the jobs=1 counterexamples to be
  // byte-identical (same minting order ⇒ same names).
  AppBundle seq_bundle = GetParam().build();
  std::vector<Property> seq_catalog = CatalogOf(seq_bundle);
  std::vector<VerifyResult> sequential;
  {
    Verifier verifier(seq_bundle.spec.get());
    for (const Property& p : seq_catalog) {
      VerifyOptions options;
      options.timeout_seconds = 120;
      sequential.push_back(RunVerify(verifier, p, options));
    }
  }

  AppBundle bundle = GetParam().build();
  std::vector<Property> catalog = CatalogOf(bundle);
  Verifier verifier(bundle.spec.get());
  BatchRequest request;
  request.properties = &catalog;
  request.options.timeout_seconds = 120;
  request.jobs = GetParam().jobs;
  StatusOr<BatchResponse> batch = verifier.RunBatch(request);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->responses.size(), catalog.size());

  // Batch and sequential runs agree on every verdict, and every batch
  // counterexample replays genuinely. The witness *values* may differ:
  // the batch pays all prepasses before any search, so an existential
  // witness can be enumerated from a differently-populated symbol table
  // than in interleaved sequential runs — both choices are genuine.
  for (size_t i = 0; i < catalog.size(); ++i) {
    const VerifyResponse& b = batch->responses[i];
    SCOPED_TRACE(std::string(GetParam().name) + "/" + catalog[i].name +
                 " jobs=" + std::to_string(GetParam().jobs));
    EXPECT_EQ(b.verdict, sequential[i].verdict) << b.failure_reason;
    if (b.verdict == Verdict::kViolated) {
      ValidationResult validation =
          ValidateCounterexample(bundle.spec.get(), catalog[i], b);
      EXPECT_TRUE(validation.genuine) << validation.reason;
    }
  }

  // At jobs=1 the batch itself is deterministic: a second batch from an
  // identically fresh bundle reproduces every counterexample byte for
  // byte (same prepass order ⇒ same minting order ⇒ same names).
  if (GetParam().jobs == 1) {
    AppBundle rerun_bundle = GetParam().build();
    std::vector<Property> rerun_catalog = CatalogOf(rerun_bundle);
    Verifier rerun_verifier(rerun_bundle.spec.get());
    BatchRequest rerun_request;
    rerun_request.properties = &rerun_catalog;
    rerun_request.options.timeout_seconds = 120;
    rerun_request.jobs = 1;
    StatusOr<BatchResponse> rerun = rerun_verifier.RunBatch(rerun_request);
    ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
    for (size_t i = 0; i < catalog.size(); ++i) {
      SCOPED_TRACE(std::string(GetParam().name) + "/" + catalog[i].name +
                   " determinism");
      EXPECT_EQ(rerun->responses[i].verdict, batch->responses[i].verdict);
      if (batch->responses[i].verdict == Verdict::kViolated) {
        EXPECT_EQ(rerun->responses[i].CounterexampleString(*rerun_bundle.spec),
                  batch->responses[i].CounterexampleString(*bundle.spec));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, BatchEquivalenceTest,
    ::testing::Values(BatchCase{"E1", BuildE1, 1}, BatchCase{"E1", BuildE1, 2},
                      BatchCase{"E1", BuildE1, 8}, BatchCase{"E2", BuildE2, 1},
                      BatchCase{"E2", BuildE2, 2}, BatchCase{"E2", BuildE2, 8},
                      BatchCase{"E3", BuildE3, 1}, BatchCase{"E3", BuildE3, 2},
                      BatchCase{"E3", BuildE3, 8}, BatchCase{"E4", BuildE4, 1},
                      BatchCase{"E4", BuildE4, 2},
                      BatchCase{"E4", BuildE4, 8}),
    [](const ::testing::TestParamInfo<BatchCase>& info) {
      return std::string(info.param.name) + "_jobs" +
             std::to_string(info.param.jobs);
    });

// The ISSUE's acceptance bar: a cold batch of N properties pays the spec
// pre-pass exactly once. Proof: verify.prepass.spec_builds == 1 for the
// whole batch, and the per-property prepass_reuses sum to N-1 (properties
// 1..N-1 each reused the spec artifacts property 0 built).
TEST(BatchTest, ColdBatchPaysSpecPrepassOnce) {
  AppBundle e1 = BuildE1();
  std::vector<Property> catalog = CatalogOf(e1);
  Verifier verifier(e1.spec.get());

  obs::MetricsRegistry metrics;
  BatchRequest request;
  request.properties = &catalog;
  request.options.metrics = &metrics;
  StatusOr<BatchResponse> batch = verifier.RunBatch(request);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();

  EXPECT_EQ(metrics.counter("verify.prepass.spec_builds")->value(), 1);
  EXPECT_EQ(metrics.counter("verify.prepass.spec_reuses")->value(),
            static_cast<int64_t>(catalog.size()) - 1);
  int64_t reuses = 0;
  for (const VerifyResponse& r : batch->responses) {
    reuses += r.stats.prepass_reuses;
  }
  EXPECT_EQ(reuses, static_cast<int64_t>(catalog.size()) - 1);
  EXPECT_EQ(batch->merged.prepass_reuses, reuses);

  // A second batch on the warm session rebuilds nothing at all.
  obs::MetricsRegistry warm_metrics;
  request.options.metrics = &warm_metrics;
  StatusOr<BatchResponse> warm = verifier.RunBatch(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm_metrics.counter("verify.prepass.spec_builds")->value(), 0);
  EXPECT_EQ(warm_metrics.counter("verify.prepass.plan_builds")->value(), 0);
  EXPECT_EQ(warm_metrics.counter("verify.prepass.context_builds")->value(), 0);
  EXPECT_EQ(warm_metrics.counter("verify.prepass.plan_reuses")->value(),
            static_cast<int64_t>(catalog.size()));
  for (size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_EQ(warm->responses[i].verdict, batch->responses[i].verdict)
        << catalog[i].name;
  }
}

TEST(BatchTest, PropertyIndicesSelectASubsetInRequestOrder) {
  AppBundle e1 = BuildE1();
  std::vector<Property> catalog = CatalogOf(e1);
  Verifier verifier(e1.spec.get());

  BatchRequest request;
  request.properties = &catalog;
  request.property_indices = {2, 0};
  StatusOr<BatchResponse> batch = verifier.RunBatch(request);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->responses.size(), 2u);

  VerifyResult direct2 = RunVerify(verifier, catalog[2]);
  VerifyResult direct0 = RunVerify(verifier, catalog[0]);
  EXPECT_EQ(batch->responses[0].verdict, direct2.verdict);
  EXPECT_EQ(batch->responses[1].verdict, direct0.verdict);

  request.property_indices = {99};
  EXPECT_EQ(verifier.RunBatch(request).status().code(),
            StatusCode::kInvalidArgument);
  request.property_indices.clear();
  request.properties = nullptr;
  EXPECT_EQ(verifier.RunBatch(request).status().code(),
            StatusCode::kInvalidArgument);
}

// --- persistent result cache -------------------------------------------------

TEST(ResultCacheKeyTest, MovesExactlyWithSemanticsAffectingOptions) {
  AppBundle e1 = BuildE1();
  Verifier verifier(e1.spec.get());
  const Property* p1 = FindProperty(e1, "P1");
  ASSERT_NE(p1, nullptr);
  const Fingerprint spec_fp = verifier.session().SpecFingerprint();
  const SymbolTable& symbols = e1.spec->symbols();

  VerifyOptions base;
  Fingerprint key = ResultCacheKey(spec_fp, *p1, symbols, base);

  // Each semantics-affecting flip moves the key...
  for (auto flip : {+[](VerifyOptions* o) { o->heuristic1 = false; },
                    +[](VerifyOptions* o) { o->heuristic2 = false; },
                    +[](VerifyOptions* o) { o->exhaustive_existential = true; },
                    +[](VerifyOptions* o) { o->max_candidates += 1; },
                    +[](VerifyOptions* o) { o->max_expansions = 12345; }}) {
    VerifyOptions flipped = base;
    flip(&flipped);
    EXPECT_NE(ResultCacheKey(spec_fp, *p1, symbols, flipped), key);
  }

  // ...while budgets and observability hooks do not (a timeout changes
  // whether the search finishes, never what a finished search decides).
  VerifyOptions cosmetic = base;
  cosmetic.timeout_seconds = 1;
  cosmetic.heartbeat_interval_seconds = 0.5;
  obs::MetricsRegistry metrics;
  cosmetic.metrics = &metrics;
  EXPECT_EQ(ResultCacheKey(spec_fp, *p1, symbols, cosmetic), key);

  // Distinct properties get distinct keys; renaming a property does not
  // (the fingerprint is name-blind, so a rename keeps its warm cache).
  const Property* p2 = FindProperty(e1, "P2");
  ASSERT_NE(p2, nullptr);
  EXPECT_NE(ResultCacheKey(spec_fp, *p2, symbols, base), key);
  Property renamed = *p1;
  renamed.name = "completely_different_name";
  EXPECT_EQ(ResultCacheKey(spec_fp, renamed, symbols, base), key);
}

TEST(ResultCacheTest, BatchRoundTripsThroughDisk) {
  std::string dir = FreshCacheDir("roundtrip");
  AppBundle e1 = BuildE1();
  std::vector<Property> catalog = CatalogOf(e1);

  StatusOr<std::unique_ptr<ResultCache>> cache = ResultCache::Open(dir);
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();

  BatchRequest request;
  request.properties = &catalog;
  request.cache = cache->get();
  Verifier cold_verifier(e1.spec.get());
  StatusOr<BatchResponse> cold = cold_verifier.RunBatch(request);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->merged.cache_hits, 0);
  EXPECT_EQ((*cache)->stores(), static_cast<int64_t>(catalog.size()));

  // A fresh verifier (cold session) over the same spec: every verdict is
  // served from disk — cache_hits == N and zero search work.
  AppBundle again = BuildE1();
  std::vector<Property> catalog2 = CatalogOf(again);
  StatusOr<std::unique_ptr<ResultCache>> reopened = ResultCache::Open(dir);
  ASSERT_TRUE(reopened.ok());
  Verifier warm_verifier(again.spec.get());
  obs::MetricsRegistry metrics;
  BatchRequest warm_request;
  warm_request.properties = &catalog2;
  warm_request.options.metrics = &metrics;
  warm_request.cache = reopened->get();
  StatusOr<BatchResponse> warm = warm_verifier.RunBatch(warm_request);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->merged.cache_hits, static_cast<int64_t>(catalog2.size()));
  EXPECT_EQ(metrics.counter("verify.cache.hits")->value(),
            static_cast<int64_t>(catalog2.size()));
  EXPECT_EQ(metrics.counter("verify.cache.misses")->value(), 0);
  // A hit restores the *stored* stats (so warm->merged.num_expansions
  // reports the cold run's work); the proof that the warm run itself did
  // no search is the live metrics registry staying at zero expansions.
  EXPECT_EQ(metrics.counter("verify.expansions")->value(), 0)
      << "warm hits must skip search";

  for (size_t i = 0; i < catalog2.size(); ++i) {
    SCOPED_TRACE(catalog2[i].name);
    EXPECT_EQ(warm->responses[i].verdict, cold->responses[i].verdict);
    if (cold->responses[i].verdict == Verdict::kViolated) {
      // Counterexamples survive the disk round trip symbol-for-symbol
      // (they are serialized by name and re-interned on load).
      EXPECT_EQ(warm->responses[i].CounterexampleString(*again.spec),
                cold->responses[i].CounterexampleString(*e1.spec));
      ValidationResult validation = ValidateCounterexample(
          again.spec.get(), catalog2[i], warm->responses[i]);
      EXPECT_TRUE(validation.genuine) << validation.reason;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(ResultCacheTest, SemanticsOptionFlipMissesWarmCache) {
  std::string dir = FreshCacheDir("optflip");
  AppBundle e1 = BuildE1();
  std::vector<Property> catalog = CatalogOf(e1);
  StatusOr<std::unique_ptr<ResultCache>> cache = ResultCache::Open(dir);
  ASSERT_TRUE(cache.ok());

  BatchRequest request;
  request.properties = &catalog;
  request.cache = cache->get();
  {
    Verifier verifier(e1.spec.get());
    StatusOr<BatchResponse> cold = verifier.RunBatch(request);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    for (const VerifyResponse& r : cold->responses) {
      ASSERT_NE(r.verdict, Verdict::kUnknown) << r.failure_reason;
    }
  }

  // Same spec, same properties, but exhaustive_existential changes what
  // the search explores: every lookup must miss and re-verify. The
  // lookups happen before any work, so a one-second deadline (not part of
  // the key) cuts the exhaustive pre-pass and search short.
  Verifier verifier(e1.spec.get());
  request.options.exhaustive_existential = true;
  request.options.timeout_seconds = 1;
  StatusOr<BatchResponse> flipped = verifier.RunBatch(request);
  ASSERT_TRUE(flipped.ok()) << flipped.status().ToString();
  EXPECT_EQ(flipped->merged.cache_hits, 0);
  std::filesystem::remove_all(dir);
}

TEST(ResultCacheTest, CorruptRecordsDegradeToMisses) {
  std::string dir = FreshCacheDir("corrupt");
  AppBundle e1 = BuildE1();
  std::vector<Property> catalog = CatalogOf(e1);
  StatusOr<std::unique_ptr<ResultCache>> cache = ResultCache::Open(dir);
  ASSERT_TRUE(cache.ok());

  BatchRequest request;
  request.properties = &catalog;
  request.cache = cache->get();
  {
    Verifier verifier(e1.spec.get());
    ASSERT_TRUE(verifier.RunBatch(request).ok());
  }

  // Vandalize every stored entry (format v2: framed records under
  // entries/) a different way: garbage bytes, truncation, valid JSON of
  // the wrong shape, empty file. Every variant breaks the CRC frame.
  std::vector<std::filesystem::path> records;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir + "/entries")) {
    records.push_back(entry.path());
  }
  ASSERT_EQ(records.size(), catalog.size());
  for (size_t i = 0; i < records.size(); ++i) {
    std::ofstream out(records[i], std::ios::trunc);
    switch (i % 4) {
      case 0: out << "not json at all {{{"; break;
      case 1: out << "{\"format\": 2, \"verdict\": \"viol"; break;  // truncated
      case 2: out << "{\"format\": 99, \"verdict\": \"holds\"}"; break;
      case 3: break;  // empty file
    }
  }

  Verifier verifier(e1.spec.get());
  obs::MetricsRegistry metrics;
  request.options.metrics = &metrics;
  request.options.timeout_seconds = 120;
  StatusOr<BatchResponse> reread = verifier.RunBatch(request);
  ASSERT_TRUE(reread.ok()) << reread.status().ToString();
  EXPECT_EQ(reread->merged.cache_hits, 0);
  EXPECT_EQ(metrics.counter("verify.cache.misses")->value(),
            static_cast<int64_t>(catalog.size()));
  // Corruption is detected (CRC/frame), counted, and QUARANTINED — not
  // silently re-missed forever (ISSUE 7 satellite).
  EXPECT_EQ(metrics.counter("verify.cache.corrupt")->value(),
            static_cast<int64_t>(catalog.size()));
  EXPECT_EQ((*cache)->health().quarantined,
            static_cast<int64_t>(catalog.size()));
  int64_t quarantined_files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir + "/quarantine")) {
    (void)entry;
    ++quarantined_files;
  }
  EXPECT_EQ(quarantined_files, static_cast<int64_t>(catalog.size()));
  // The re-verified verdicts overwrite the vandalized records...
  EXPECT_EQ(metrics.counter("verify.cache.stores")->value(),
            static_cast<int64_t>(catalog.size()));

  // ...so a third run hits for everything again.
  AppBundle again = BuildE1();
  std::vector<Property> catalog2 = CatalogOf(again);
  Verifier healed_verifier(again.spec.get());
  BatchRequest healed_request;
  healed_request.properties = &catalog2;
  healed_request.cache = cache->get();
  StatusOr<BatchResponse> healed = healed_verifier.RunBatch(healed_request);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(healed->merged.cache_hits, static_cast<int64_t>(catalog2.size()));
  std::filesystem::remove_all(dir);
}

TEST(ResultCacheTest, UndecidedVerdictsAreNeverStored) {
  std::string dir = FreshCacheDir("undecided");
  AppBundle e1 = BuildE1();
  StatusOr<std::unique_ptr<ResultCache>> cache = ResultCache::Open(dir);
  ASSERT_TRUE(cache.ok());

  VerifyResponse unknown;
  unknown.verdict = Verdict::kUnknown;
  Fingerprint key;
  Status status = (*cache)->Store(key, *e1.spec, unknown);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);

  // And through the driver: a budget-tripped batch stores nothing.
  std::vector<Property> catalog = CatalogOf(e1);
  Verifier verifier(e1.spec.get());
  BatchRequest request;
  request.properties = &catalog;
  request.cache = cache->get();
  request.options.timeout_seconds = 0;  // everything trips immediately
  StatusOr<BatchResponse> tripped = verifier.RunBatch(request);
  ASSERT_TRUE(tripped.ok());
  for (const VerifyResponse& r : tripped->responses) {
    EXPECT_EQ(r.verdict, Verdict::kUnknown);
  }
  EXPECT_EQ((*cache)->stores(), 0);
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace wave
