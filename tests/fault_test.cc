// Deterministic fault injection (ISSUE 7).
//
// Three layers under test:
//  - the framework itself (common/fault.h): disarmed sites are no-ops,
//    fail-Nth and pinned-probability schedules are deterministic,
//    wildcard matching, fire caps, the WAVE_FAULT_SPEC plan grammar
//    round-trips, tallies export as fault.hits.* / fault.injected.*
//    metrics, and the curated site inventory stays in sync with the
//    source tree;
//  - the backoff/CRC plumbing the crash-safe cache stands on
//    (common/backoff.h, common/crc32.h): pinned jitter schedules,
//    attempt/budget exhaustion, and the CRC-32 known-answer vector;
//  - the acceptance sweep: EVERY registered site is reachable from a
//    real end-to-end verification and fires for every applicable
//    non-crash kind, with decided verdicts unchanged and the cache
//    directory still consistent afterwards — an injected fault may cost
//    a cache hit, never a wrong verdict or a crash. (Crash kinds are
//    exercised out-of-process by tools/wave_crash, driven from
//    tests/cache_concurrency_test.cc; the flip kind is oracle-level and
//    covered by tests/random_differential_test.cc.)
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "common/backoff.h"
#include "common/crc32.h"
#include "common/fault.h"
#include "obs/metrics.h"
#include "verifier/cache.h"
#include "verifier/verifier.h"

#include "verify_helpers.h"

namespace wave {
namespace {

namespace fs = std::filesystem;

fault::Plan OneRule(fault::Rule rule) {
  fault::Plan plan;
  plan.rules.push_back(std::move(rule));
  return plan;
}

// --- framework ---------------------------------------------------------------

TEST(FaultTest, DisarmedSiteIsNoop) {
  fault::Disarm();
  ASSERT_FALSE(fault::Armed());
  fault::Action a = WAVE_FAULT("some.site");
  EXPECT_FALSE(a.fire);
  EXPECT_FALSE(fault::IsError(a));
}

TEST(FaultTest, FailNthFiresExactlyOnThatHit) {
  fault::Rule rule;
  rule.site = "t.fail_nth";
  rule.kind = fault::Kind::kEio;
  rule.fail_nth = 3;
  fault::ScopedPlan armed(OneRule(rule));

  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) fired.push_back(WAVE_FAULT("t.fail_nth").fire);
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false,
                                      false}));

  std::vector<fault::SiteCount> counts = fault::Counts();
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0].site, "t.fail_nth");
  EXPECT_EQ(counts[0].hits, 6);
  EXPECT_EQ(counts[0].fires, 1);
  EXPECT_EQ(fault::TotalFires(), 1);
}

TEST(FaultTest, ProbabilityScheduleIsPinnedToTheSeed) {
  fault::Rule rule;
  rule.site = "t.prob";
  rule.kind = fault::Kind::kEio;
  rule.probability = 0.5;

  auto pattern = [&rule]() {
    fault::Plan plan = OneRule(rule);
    plan.seed = 1234;
    fault::ScopedPlan armed(std::move(plan));
    std::vector<bool> fires;
    for (int i = 0; i < 64; ++i) fires.push_back(WAVE_FAULT("t.prob").fire);
    return fires;
  };

  std::vector<bool> first = pattern();
  std::vector<bool> second = pattern();
  EXPECT_EQ(first, second) << "pinned-RNG schedule must replay identically";
  int fires = 0;
  for (bool f : first) fires += f ? 1 : 0;
  // p=0.5 over 64 draws: anything near half; the exact count is pinned
  // by the seed, the bounds just catch a broken RNG mapping.
  EXPECT_GT(fires, 16);
  EXPECT_LT(fires, 48);
}

TEST(FaultTest, WildcardMatchAndMaxFiresCap) {
  fault::Rule rule;
  rule.site = "cache.*";
  rule.kind = fault::Kind::kEio;
  rule.max_fires = 2;
  fault::ScopedPlan armed(OneRule(rule));

  EXPECT_TRUE(WAVE_FAULT("cache.store.entry").fire);
  EXPECT_FALSE(WAVE_FAULT("io.read.open").fire) << "prefix mismatch";
  EXPECT_TRUE(WAVE_FAULT("cache.lookup.entry").fire);
  EXPECT_FALSE(WAVE_FAULT("cache.quarantine.move").fire) << "max_fires=2 spent";
  EXPECT_EQ(fault::TotalFires(), 2);
}

TEST(FaultTest, ErrorStatusIsTaggedAndUnavailable) {
  fault::Action a;
  a.fire = true;
  a.kind = fault::Kind::kEnospc;
  Status s = fault::ToStatus(a, "write 'x'");
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_NE(s.message().find("fault-injected enospc"), std::string::npos)
      << s.message();
  EXPECT_NE(s.message().find("write 'x'"), std::string::npos) << s.message();
}

TEST(FaultTest, PlanSpecRoundTripsThroughParseAndFormat) {
  StatusOr<fault::Plan> plan = fault::ParsePlan(
      "io.read.data=eio@3;"
      "cache.lock.acquire=delay:p=0.25:max=2:delay=0.01;"
      "io.write.data=shortwrite:keep=0.75;"
      "seed=99");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->rules.size(), 3u);
  EXPECT_EQ(plan->seed, 99u);

  EXPECT_EQ(plan->rules[0].site, "io.read.data");
  EXPECT_EQ(plan->rules[0].kind, fault::Kind::kEio);
  EXPECT_EQ(plan->rules[0].fail_nth, 3);

  EXPECT_EQ(plan->rules[1].site, "cache.lock.acquire");
  EXPECT_EQ(plan->rules[1].kind, fault::Kind::kDelay);
  EXPECT_DOUBLE_EQ(plan->rules[1].probability, 0.25);
  EXPECT_EQ(plan->rules[1].max_fires, 2);
  EXPECT_DOUBLE_EQ(plan->rules[1].delay_seconds, 0.01);

  EXPECT_EQ(plan->rules[2].kind, fault::Kind::kShortWrite);
  EXPECT_DOUBLE_EQ(plan->rules[2].short_write_keep, 0.75);

  // Format -> parse must reproduce the same schedule.
  StatusOr<fault::Plan> again = fault::ParsePlan(fault::FormatPlan(*plan));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_EQ(again->rules.size(), plan->rules.size());
  EXPECT_EQ(again->seed, plan->seed);
  for (size_t i = 0; i < plan->rules.size(); ++i) {
    EXPECT_EQ(again->rules[i].site, plan->rules[i].site) << i;
    EXPECT_EQ(again->rules[i].kind, plan->rules[i].kind) << i;
    EXPECT_EQ(again->rules[i].fail_nth, plan->rules[i].fail_nth) << i;
    EXPECT_DOUBLE_EQ(again->rules[i].probability, plan->rules[i].probability)
        << i;
    EXPECT_EQ(again->rules[i].max_fires, plan->rules[i].max_fires) << i;
  }
}

TEST(FaultTest, MalformedPlanSpecsAreRejected) {
  EXPECT_FALSE(fault::ParsePlan("garbage").ok());
  EXPECT_FALSE(fault::ParsePlan("site=notakind").ok());
  EXPECT_FALSE(fault::ParsePlan("=eio").ok());
  EXPECT_FALSE(fault::ParsePlan("a=eio:wat=1").ok());
}

TEST(FaultTest, ArmFromEnvHonorsTheSpecVariable) {
  ::setenv("WAVE_FAULT_SPEC", "t.env=eio@1", 1);
  ASSERT_TRUE(fault::ArmFromEnv().ok());
  EXPECT_TRUE(fault::Armed());
  EXPECT_TRUE(WAVE_FAULT("t.env").fire);
  fault::Disarm();

  ::setenv("WAVE_FAULT_SPEC", "not a spec", 1);
  EXPECT_FALSE(fault::ArmFromEnv().ok());
  EXPECT_FALSE(fault::Armed());

  ::unsetenv("WAVE_FAULT_SPEC");
  EXPECT_TRUE(fault::ArmFromEnv().ok());
  EXPECT_FALSE(fault::Armed()) << "unset variable must stay disarmed";
}

TEST(FaultTest, TalliesExportAsMetrics) {
  fault::Rule rule;
  rule.site = "t.metrics";
  rule.kind = fault::Kind::kEio;
  rule.fail_nth = 2;
  fault::ScopedPlan armed(OneRule(rule));
  for (int i = 0; i < 3; ++i) WAVE_FAULT("t.metrics");

  obs::MetricsRegistry metrics;
  fault::ExportMetrics(&metrics);
  EXPECT_EQ(metrics.counter("fault.hits.t.metrics")->value(), 3);
  EXPECT_EQ(metrics.counter("fault.injected.t.metrics")->value(), 1);
}

TEST(FaultTest, InventoryIsWellFormedAndInSyncWithSources) {
  const std::vector<fault::SiteInfo>& sites = fault::KnownSites();
  ASSERT_FALSE(sites.empty());
  std::set<std::string> names;
  for (const fault::SiteInfo& info : sites) {
    ASSERT_NE(info.site, nullptr);
    ASSERT_NE(info.file, nullptr);
    EXPECT_TRUE(names.insert(info.site).second)
        << "duplicate inventory entry: " << info.site;
    EXPECT_NE(info.kinds_mask, 0u) << info.site;

    // The named source file must exist and actually contain the site
    // string — a renamed or deleted WAVE_FAULT() call must update the
    // inventory (and through it, docs/ROBUSTNESS.md).
    const std::string path = std::string(WAVE_REPO_ROOT) + "/" + info.file;
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << info.site << ": missing file " << path;
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find(std::string("\"") + info.site + "\""),
              std::string::npos)
        << info.site << " not found in " << path;
  }
}

// --- backoff + crc -----------------------------------------------------------

TEST(BackoffTest, ScheduleIsDeterministicPerSeed) {
  BackoffPolicy policy;
  auto schedule = [&policy](uint64_t seed) {
    Backoff b(policy, seed);
    std::vector<double> delays;
    while (std::optional<double> d = b.NextDelaySeconds()) {
      delays.push_back(*d);
    }
    return delays;
  };
  EXPECT_EQ(schedule(7), schedule(7));
  EXPECT_NE(schedule(7), schedule(8)) << "different seeds must jitter apart";
}

TEST(BackoffTest, UnjitteredGrowthSaturatesAndStops) {
  BackoffPolicy policy;
  policy.initial_seconds = 0.001;
  policy.multiplier = 2.0;
  policy.max_delay_seconds = 0.004;
  policy.jitter = 0;
  policy.max_attempts = 5;
  policy.total_budget_seconds = 0;  // unlimited

  Backoff b(policy, 42);
  std::vector<double> delays;
  while (std::optional<double> d = b.NextDelaySeconds()) delays.push_back(*d);
  ASSERT_EQ(delays.size(), 5u);
  EXPECT_DOUBLE_EQ(delays[0], 0.001);
  EXPECT_DOUBLE_EQ(delays[1], 0.002);
  EXPECT_DOUBLE_EQ(delays[2], 0.004);
  EXPECT_DOUBLE_EQ(delays[3], 0.004) << "growth saturates at max_delay";
  EXPECT_DOUBLE_EQ(delays[4], 0.004);
  EXPECT_EQ(b.attempts(), 5);
  EXPECT_FALSE(b.NextDelaySeconds().has_value()) << "attempts exhausted";
}

TEST(BackoffTest, BudgetClipsTheLastDelay) {
  BackoffPolicy policy;
  policy.initial_seconds = 1.0;
  policy.multiplier = 2.0;
  policy.max_delay_seconds = 10.0;
  policy.jitter = 0;
  policy.max_attempts = 0;  // unlimited
  policy.total_budget_seconds = 2.5;

  Backoff b(policy, 0);
  std::optional<double> d1 = b.NextDelaySeconds();
  std::optional<double> d2 = b.NextDelaySeconds();
  ASSERT_TRUE(d1.has_value());
  ASSERT_TRUE(d2.has_value());
  EXPECT_DOUBLE_EQ(*d1, 1.0);
  EXPECT_DOUBLE_EQ(*d2, 1.5) << "clipped so the total never exceeds 2.5";
  EXPECT_FALSE(b.NextDelaySeconds().has_value()) << "budget exhausted";
  EXPECT_DOUBLE_EQ(b.total_slept_seconds(), 2.5);
}

TEST(Crc32Test, KnownAnswerAndIncrementalUpdate) {
  // The CRC-32/ISO-HDLC check vector.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);

  uint32_t crc = 0;
  crc = Crc32Update(crc, "1234", 4);
  crc = Crc32Update(crc, "56789", 5);
  EXPECT_EQ(crc, 0xCBF43926u) << "chunked update must equal one-shot";

  // The sliced implementation against a bitwise reference: every length
  // 0..257 at every alignment 0..7 of the buffer, and every split point
  // of an incremental update.
  auto reference = [](const unsigned char* p, size_t n) {
    uint32_t c = 0xFFFFFFFFu;
    for (size_t i = 0; i < n; ++i) {
      c ^= p[i];
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
  };
  std::vector<unsigned char> buffer(257 + 8);
  uint32_t state = 12345;
  for (unsigned char& b : buffer) {
    state = state * 1103515245u + 12345u;
    b = static_cast<unsigned char>(state >> 16);
  }
  for (size_t align = 0; align < 8; ++align) {
    const unsigned char* p = buffer.data() + align;
    for (size_t n = 0; n <= 257; ++n) {
      ASSERT_EQ(Crc32Update(0, p, n), reference(p, n))
          << "length " << n << " at alignment " << align;
    }
  }
  const unsigned char* p = buffer.data();
  const size_t n = 257;
  const uint32_t whole = reference(p, n);
  for (size_t split = 0; split <= n; ++split) {
    ASSERT_EQ(Crc32Update(Crc32Update(0, p, split), p + split, n - split),
              whole)
        << "split at " << split;
  }
}

// --- end-to-end sweep --------------------------------------------------------

/// A unique empty temp directory per sweep run.
std::string FreshDir(const std::string& tag) {
  static int counter = 0;
  std::string dir = ::testing::TempDir() + "wave_fault_test_" + tag + "_" +
                    std::to_string(counter++);
  std::filesystem::remove_all(dir);
  return dir;
}

struct SweepOutcome {
  Verdict cold = Verdict::kUnknown;
  Verdict warm = Verdict::kUnknown;
  int64_t fires = 0;
  CacheAudit audit;
};

/// One cold-store + warm-lookup verification of E1/P1 under whatever
/// plan is armed: the flow that touches the io.*, cache.* and session.*
/// sites. Fresh Verifier per phase so the cold artifact builds run.
SweepOutcome RunCachedVerification(const std::string& dir, int jobs,
                                   bool starved_retry) {
  SweepOutcome out;
  AppBundle e1 = BuildE1();
  const Property* p1 = FindProperty(e1, "P1");
  WAVE_CHECK(p1 != nullptr);

  auto run_once = [&](Verdict* verdict) {
    StatusOr<std::unique_ptr<ResultCache>> cache = ResultCache::Open(dir);
    ASSERT_TRUE(cache.ok()) << cache.status().ToString();
    Verifier verifier(e1.spec.get());
    VerifyRequest request;
    request.property = p1;
    request.jobs = jobs;
    request.cache = cache->get();
    if (starved_retry) {
      // The ladder runs, so the retry.* sites fire, and still ends on the
      // reference verdict (E1/P1 needs one distinct candidate at HP, so
      // the tight rung decides).
      request.options.max_candidates = 5;
      request.retry.enabled = true;
    }
    StatusOr<VerifyResponse> response = verifier.Run(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    *verdict = response->verdict;
  };

  run_once(&out.cold);
  run_once(&out.warm);
  out.fires = fault::TotalFires();
  out.audit = AuditCacheDir(dir);
  return out;
}

TEST(FaultSweepTest, EverySiteFiresEveryApplicableKindWithoutWrongVerdicts) {
  // Reference verdict from a clean, disarmed run.
  fault::Disarm();
  const std::string ref_dir = FreshDir("ref");
  SweepOutcome reference = RunCachedVerification(ref_dir, 1, false);
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_NE(reference.cold, Verdict::kUnknown);
  ASSERT_EQ(reference.cold, reference.warm);

  const fault::Kind sweep_kinds[] = {fault::Kind::kEio, fault::Kind::kEnospc,
                                     fault::Kind::kShortWrite,
                                     fault::Kind::kDelay};
  int combinations = 0;
  for (const fault::SiteInfo& info : fault::KnownSites()) {
    const std::string site = info.site;
    if (site == "oracle.flip_verdict") continue;  // flip-only, oracle-level
    // Socket-surface sites need a live daemon + client; their
    // fire-and-degrade coverage lives in tests/serve_test.cc.
    if (site.rfind("serve.", 0) == 0) continue;
    for (fault::Kind kind : sweep_kinds) {
      if (!info.Supports(kind)) continue;
      ++combinations;
      SCOPED_TRACE(site + "=" + fault::KindName(kind));

      fault::Rule rule;
      rule.site = site;
      rule.kind = kind;
      rule.fail_nth = 1;
      rule.delay_seconds = 0.001;
      fault::ScopedPlan armed(OneRule(rule));

      const std::string dir = FreshDir("sweep");
      const bool starved = site.rfind("retry.", 0) == 0;
      const int jobs = site.rfind("worker.", 0) == 0 ? 2 : 1;
      if (site == "cache.quarantine.move") {
        // The quarantine path only runs against a corrupt entry: store
        // cleanly first, then flip bytes in the stored entry file.
        {
          fault::Disarm();
          SweepOutcome seed_run = RunCachedVerification(dir, 1, false);
          if (::testing::Test::HasFatalFailure()) return;
          ASSERT_EQ(seed_run.cold, reference.cold);
        }
        bool corrupted = false;
        for (const auto& f : fs::directory_iterator(dir + "/entries")) {
          std::ofstream out(f.path(), std::ios::trunc);
          out << "deadbeef, not a cache entry";
          corrupted = true;
        }
        ASSERT_TRUE(corrupted);
        fault::Arm(OneRule(rule));
      }

      SweepOutcome outcome = RunCachedVerification(dir, jobs, starved);
      if (::testing::Test::HasFatalFailure()) return;

      // Reachability: the armed rule must actually have fired.
      EXPECT_GE(outcome.fires, 1) << "site never reached";
      // Verdict safety: a fault may cost a cache hit or a retry, NEVER
      // a flipped verdict.
      EXPECT_EQ(outcome.cold, reference.cold);
      EXPECT_EQ(outcome.warm, reference.cold);
      // The directory survives every injection in a consistent state.
      EXPECT_TRUE(outcome.audit.consistent())
          << "problems: " << outcome.audit.problems.size() << " e.g. "
          << (outcome.audit.problems.empty() ? ""
                                             : outcome.audit.problems[0]);
    }
  }
  // The sweep must cover the whole inventory (crash kinds are proven by
  // wave_crash out-of-process; flip by the differential suite).
  EXPECT_GE(combinations, 30);
}

}  // namespace
}  // namespace wave
