// The wave_bench regression gate, tested hermetically (ISSUE 6).
//
// Unit half: CompareRecords' threshold semantics on synthetic records —
// relative time gating, the sub-noise-floor exemption, exact counter
// matching, verdict flips, suite filtering and missing records.
//
// End-to-end half (ctest label: bench): RunBenchSuite("e1") against a
// self-recorded baseline must pass clean, and the same measurement under
// a synthetic `slowdown = 2` must trip the gate — the acceptance
// criterion `wave_bench --suite e1 --compare baseline` exits 0 on an
// unchanged tree and non-zero under a 2x slowdown, minus the process
// boundary.
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/wave_bench_lib.h"
#include "gtest/gtest.h"
#include "obs/json.h"

namespace wave::bench {
namespace {

obs::Json MakeRecord(const std::string& suite, const std::string& name,
                     double min_s, int64_t expansions,
                     const std::string& verdict = "holds") {
  obs::Json r = obs::Json::Object();
  r.Set("schema_version", obs::Json::Int(kBenchSchemaVersion));
  r.Set("suite", obs::Json::Str(suite));
  r.Set("name", obs::Json::Str(name));
  r.Set("min_s", obs::Json::Number(min_s));
  r.Set("median_s", obs::Json::Number(min_s * 1.05));
  r.Set("verdict", obs::Json::Str(verdict));
  obs::Json counters = obs::Json::Object();
  counters.Set("num_expansions", obs::Json::Int(expansions));
  r.Set("counters", std::move(counters));
  return r;
}

TEST(CompareRecordsTest, IdenticalRecordsPass) {
  std::vector<obs::Json> records = {MakeRecord("e1", "e1/P4", 0.5, 1000)};
  CompareResult result = CompareRecords(records, records, {});
  EXPECT_TRUE(result.ok()) << result.Summary();
  EXPECT_EQ(result.compared_records, 1);
  EXPECT_FALSE(result.deltas.empty());
}

TEST(CompareRecordsTest, TimeRegressionAboveThresholdGates) {
  std::vector<obs::Json> baseline = {MakeRecord("e1", "e1/P4", 0.5, 1000)};
  // +50% stays under the default +75% limit; 2x trips it.
  std::vector<obs::Json> mild = {MakeRecord("e1", "e1/P4", 0.75, 1000)};
  EXPECT_TRUE(CompareRecords(baseline, mild, {}).ok());
  std::vector<obs::Json> bad = {MakeRecord("e1", "e1/P4", 1.0, 1000)};
  CompareResult result = CompareRecords(baseline, bad, {});
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.Summary().find("e1/P4 min_s"), std::string::npos);
}

TEST(CompareRecordsTest, ThresholdIsConfigurable) {
  std::vector<obs::Json> baseline = {MakeRecord("e1", "e1/P4", 0.5, 1000)};
  std::vector<obs::Json> current = {MakeRecord("e1", "e1/P4", 0.75, 1000)};
  CompareThresholds tight;
  tight.time_frac = 0.25;  // +50% now regresses
  EXPECT_FALSE(CompareRecords(baseline, current, tight).ok());
  CompareThresholds loose;
  loose.time_frac = 3.0;
  std::vector<obs::Json> slow = {MakeRecord("e1", "e1/P4", 1.9, 1000)};
  EXPECT_TRUE(CompareRecords(baseline, slow, loose).ok());
}

TEST(CompareRecordsTest, SubNoiseFloorTimesAreNotGated) {
  // 1ms baseline is below the 5ms default floor: even a 100x time blowup
  // passes (counters still guard correctness).
  std::vector<obs::Json> baseline = {MakeRecord("e2", "e2/Q1", 0.001, 50)};
  std::vector<obs::Json> current = {MakeRecord("e2", "e2/Q1", 0.1, 50)};
  EXPECT_TRUE(CompareRecords(baseline, current, {}).ok());
  // ...unless the floor is lowered.
  CompareThresholds micro;
  micro.min_time_s = 0.0001;
  EXPECT_FALSE(CompareRecords(baseline, current, micro).ok());
}

TEST(CompareRecordsTest, CounterDriftIsExactByDefault) {
  std::vector<obs::Json> baseline = {MakeRecord("e1", "e1/P4", 0.5, 1000)};
  std::vector<obs::Json> drifted = {MakeRecord("e1", "e1/P4", 0.5, 1001)};
  CompareResult result = CompareRecords(baseline, drifted, {});
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.Summary().find("counters.num_expansions"),
            std::string::npos);
  // A relaxed counter_frac admits the drift.
  CompareThresholds relaxed;
  relaxed.counter_frac = 0.01;
  EXPECT_TRUE(CompareRecords(baseline, drifted, relaxed).ok());
}

TEST(CompareRecordsTest, VerdictFlipAlwaysGates) {
  std::vector<obs::Json> baseline = {
      MakeRecord("e1", "e1/P2", 0.001, 50, "violated")};
  std::vector<obs::Json> flipped = {
      MakeRecord("e1", "e1/P2", 0.001, 50, "holds")};
  CompareResult result = CompareRecords(baseline, flipped, {});
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.Summary().find("verdict"), std::string::npos);
}

TEST(CompareRecordsTest, OtherSuitesInBaselineAreIgnored) {
  // Gate an e1-only run against the committed all-suite baseline shape:
  // e2 records must neither compare nor count as missing.
  std::vector<obs::Json> baseline = {MakeRecord("e1", "e1/P4", 0.5, 1000),
                                     MakeRecord("e2", "e2/Q1", 0.001, 50)};
  std::vector<obs::Json> current = {MakeRecord("e1", "e1/P4", 0.5, 1000)};
  CompareResult result = CompareRecords(baseline, current, {});
  EXPECT_TRUE(result.ok()) << result.Summary();
  EXPECT_EQ(result.compared_records, 1);
  EXPECT_TRUE(result.missing.empty());
}

TEST(CompareRecordsTest, DroppedRecordOfARunSuiteIsReportedMissing) {
  std::vector<obs::Json> baseline = {MakeRecord("e1", "e1/P4", 0.5, 1000),
                                     MakeRecord("e1", "e1/P5", 0.03, 200)};
  std::vector<obs::Json> current = {MakeRecord("e1", "e1/P4", 0.5, 1000)};
  CompareResult result = CompareRecords(baseline, current, {});
  EXPECT_TRUE(result.ok());  // missing is reported, not gated
  ASSERT_EQ(result.missing.size(), 1u);
  EXPECT_EQ(result.missing[0], "e1/P5");
}

TEST(JsonLinesTest, RoundTripsThroughAFile) {
  std::string path = ::testing::TempDir() + "/bench_gate_lines.json";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "%s\n\n%s\n",
                 MakeRecord("e1", "e1/P1", 0.1, 10).Dump().c_str(),
                 MakeRecord("e1", "e1/P2", 0.2, 20).Dump().c_str());
    std::fclose(f);
  }
  std::vector<obs::Json> records;
  std::string error;
  ASSERT_TRUE(LoadJsonLines(path, &records, &error)) << error;
  ASSERT_EQ(records.size(), 2u);  // the blank line is tolerated
  EXPECT_EQ(records[1].Find("name")->AsString(), "e1/P2");
  EXPECT_EQ(records[0].Find("schema_version")->AsInt(), kBenchSchemaVersion);

  std::vector<obs::Json> bad;
  EXPECT_FALSE(LoadJsonLines(path + ".absent", &bad, &error));
  std::remove(path.c_str());
}

TEST(BenchSuiteTest, RegistryListsTheFourAppsPlusUnion) {
  std::vector<std::string> names = BenchSuiteNames();
  ASSERT_EQ(names.size(), 5u);
  EXPECT_TRUE(IsBenchSuite("e1"));
  EXPECT_TRUE(IsBenchSuite("verify"));
  EXPECT_FALSE(IsBenchSuite("e9"));
  std::vector<obs::Json> records;
  std::string error;
  EXPECT_EQ(RunBenchSuite("e9", {}, &records, &error), -1);
  EXPECT_NE(error.find("e9"), std::string::npos);
}

TEST(BenchSuiteTest, EnvCaptureHasTheSchemaFields) {
  obs::Json env = BenchEnvJson();
  EXPECT_TRUE(env.Has("git_sha"));
  EXPECT_TRUE(env.Has("cpus"));
  EXPECT_TRUE(env.Has("os"));
  EXPECT_TRUE(env.Has("compiler"));
  EXPECT_GE(env.Find("cpus")->AsInt(), 1);
}

// The end-to-end gate: a self-recorded E1 baseline passes clean, and a
// synthetic 2x slowdown of the very same measurement trips it. Runs
// real verifications (about a second), hence the `bench` ctest label. No
// assertion needs two live timings to agree: the self-check gates
// verdicts and counters only, the 2x slowdown is a transform of one
// measurement, and the live slowdown factor dwarfs any load swing.
TEST(BenchGateE2eTest, SelfBaselinePassesAndSyntheticSlowdownGates) {
  BenchConfig config;
  config.warmup = 1;
  config.repeat = 2;
  std::vector<obs::Json> baseline;
  std::string error;
  ASSERT_EQ(RunBenchSuite("e1", config, &baseline, &error), 0) << error;
  ASSERT_FALSE(baseline.empty());
  for (const obs::Json& r : baseline) {
    EXPECT_EQ(r.Find("schema_version")->AsInt(), kBenchSchemaVersion);
    EXPECT_TRUE(r.Find("expected_ok")->AsBool());
  }

  // Unchanged tree: a fresh measurement passes against the baseline on
  // verdicts and counters. Every time counts as below the noise floor:
  // two live runs on a loaded machine can differ by more than any time
  // limit (CompareRecordsTest pins the time gating itself).
  CompareThresholds thresholds;
  thresholds.min_time_s = std::numeric_limits<double>::infinity();
  std::vector<obs::Json> rerun;
  ASSERT_EQ(RunBenchSuite("e1", config, &rerun, &error), 0) << error;
  CompareResult self_check = CompareRecords(baseline, rerun, thresholds);
  EXPECT_TRUE(self_check.ok()) << self_check.Summary();
  EXPECT_EQ(self_check.compared_records,
            static_cast<int>(baseline.size()));

  // Synthetic 2x slowdown vs the CLI-default time limit (+75%): 2x >
  // 1.75x must regress. E1's slowest properties take about the default
  // 5 ms noise floor, so whether any record clears it depends on the
  // host's speed; with the floor off every record is gated. Derived from
  // `baseline` itself (a pure data transform), so this half is
  // deterministic — exactly what the acceptance criterion pins.
  CompareThresholds gated;
  gated.min_time_s = 0;
  std::vector<obs::Json> slowed = baseline;
  for (obs::Json& r : slowed) {
    for (const char* metric : {"min_s", "median_s"}) {
      r.Set(metric, obs::Json::Number(r.Find(metric)->AsDouble() * 2));
    }
  }
  CompareResult gate = CompareRecords(baseline, slowed, gated);
  EXPECT_FALSE(gate.ok())
      << "a 2x slowdown must regress: " << gate.Summary();

  // And the BenchConfig::slowdown hook (what `wave_bench --slowdown=F`
  // uses) produces the same verdict on a live run. The hook scales the
  // reported times, not the work, so a factor of 100 costs nothing; to
  // stay under the default +75% limit the slowed run would have to be
  // 57x faster than the baseline run, far beyond any load swing.
  BenchConfig slow_config = config;
  slow_config.warmup = 0;
  slow_config.repeat = 1;
  slow_config.slowdown = 100.0;
  std::vector<obs::Json> slow_run;
  ASSERT_EQ(RunBenchSuite("e1", slow_config, &slow_run, &error), 0) << error;
  CompareResult live_gate = CompareRecords(baseline, slow_run, gated);
  EXPECT_FALSE(live_gate.ok())
      << "--slowdown must trip the gate: " << live_gate.Summary();
}

}  // namespace
}  // namespace wave::bench
