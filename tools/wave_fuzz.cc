// wave_fuzz — seeded differential fuzzing campaigns over the grammar
// generator of src/testing (ISSUE 5).
//
//   wave_fuzz --seed-start=1 --time-budget=300 --out-dir=fuzz-artifacts
//
// generates one (spec, property) case per seed and cross-checks WAVE's
// verdict along every oracle axis (explicit first-cut baseline, jobs=1 vs
// jobs=N, RunBatch vs Run, cold vs warm ResultCache, identifier renaming,
// rule reordering — see docs/FUZZING.md). Each case emits one JSON line
// of campaign stats; a disagreement is minimized by the delta-debugging
// shrinker and written to the artifact directory as a standalone
// reproducer:
//
//   <out-dir>/seed_<N>.spec       the full failing case
//   <out-dir>/seed_<N>.min.spec   the minimized reproducer
//   <out-dir>/seed_<N>.json       the oracle report + shrink stats
//
// Every artifact write is atomic (temp + rename, common/io), so a killed
// campaign never leaves truncated reproducers. Any logged case regenerates
// from its seed alone: `wave_fuzz --seed-start=N --seed-count=1` with the
// same generator flags replays it exactly, on any platform (the draw
// stream is pinned — see src/testing/rng.h).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/io.h"
#include "common/status.h"
#include "obs/json.h"
#include "testing/oracle.h"
#include "testing/shrink.h"
#include "testing/spec_gen.h"

#include "flags.h"

namespace wave {
namespace {

using testing::AxisCheck;
using testing::CheckCase;
using testing::FuzzCase;
using testing::GenerateCase;
using testing::GeneratorConfig;
using testing::OracleDisagreementPredicate;
using testing::OracleOptions;
using testing::OracleReport;
using testing::ReasonProbe;
using testing::ShrinkResult;

constexpr char kUsage[] = R"(usage: wave_fuzz [options]

Differential fuzzing campaign: generates seeded random specs/properties
and cross-checks WAVE against the explicit first-cut baseline, jobs=N,
RunBatch, the persistent result cache and two metamorphic transforms
(see docs/FUZZING.md). One JSON line of stats per case; disagreements
are minimized and written to --out-dir as standalone reproducers.

options:
  --seed-start=N        first seed (default 1)
  --seed-count=N        number of seeds; 0 = until the time budget runs
                        out (default 0)
  --time-budget=SECS    wall-clock budget for the campaign (default 60;
                        0 = unlimited, requires --seed-count)
  --out-dir=PATH        artifact directory for reproducers (created if
                        missing; default: no artifacts written)
  --cache-dir=PATH      enable the cold/warm ResultCache axis, sharing
                        PATH across the campaign (default: axis skipped;
                        with --out-dir and no --cache-dir, OUT/cache)
  --jobs=N              worker count of the jobs axis (default 3)
  --timeout=SECS        WAVE budget per engine run (default 30)
  --baseline-timeout=S  first-cut budget per case (default 10)
  --max-pages=N         generator: pages per spec, 2..N (default 3)
  --max-constants=N     generator: data constants, 2..N, pool of 4
                        (default 3)
  --property-depth=N    generator: max LTL skeleton depth, 1..32
                        (default 3)
  --no-shrink           report disagreements without minimizing them
  --no-metamorphic      skip the rename/reorder axes
  --probe-reasons       also probe every UnknownReason under starved
                        budgets and report per-reason coverage
  --inject-flip         TEST-ONLY: arm the `oracle.flip_verdict` fault
                        (common/fault.h) so every decided reference
                        verdict is flipped, to self-test the disagreement
                        + shrink machinery
  --quiet               JSON lines only (no per-case stderr summary)
exit status: 0 campaign clean, 1 usage/setup error, 3 disagreements (or
an uncovered --probe-reasons reason) found
)";

struct CliOptions {
  uint64_t seed_start = 1;
  uint64_t seed_count = 0;
  double time_budget_seconds = 60;
  std::string out_dir;
  std::string cache_dir;
  bool shrink = true;
  bool probe_reasons = false;
  bool inject_flip = false;
  bool quiet = false;
  GeneratorConfig generator;
  OracleOptions oracle;
};

bool ParseArgs(int argc, char** argv, CliOptions* out, std::string* error) {
  constexpr int64_t kMaxPropertyDepth = 32;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* v = nullptr;
    bool parsed = true;
    if ((v = FlagValue(arg, "--seed-start")) != nullptr) {
      parsed = ParseIntFlag(arg, v, 0, kMaxInt64, &out->seed_start, error);
    } else if ((v = FlagValue(arg, "--seed-count")) != nullptr) {
      parsed = ParseIntFlag(arg, v, 0, kMaxInt64, &out->seed_count, error);
    } else if ((v = FlagValue(arg, "--time-budget")) != nullptr) {
      parsed = ParseNumberFlag(arg, v, 0, kMaxSeconds,
                               &out->time_budget_seconds, error);
    } else if ((v = FlagValue(arg, "--out-dir")) != nullptr) {
      out->out_dir = v;
    } else if ((v = FlagValue(arg, "--cache-dir")) != nullptr) {
      out->cache_dir = v;
    } else if ((v = FlagValue(arg, "--jobs")) != nullptr) {
      parsed = ParseThreadsFlag(arg, v, 0, &out->oracle.jobs, error);
    } else if ((v = FlagValue(arg, "--timeout")) != nullptr) {
      parsed = ParseNumberFlag(arg, v, 0, kMaxSeconds,
                               &out->oracle.verify.timeout_seconds, error);
    } else if ((v = FlagValue(arg, "--baseline-timeout")) != nullptr) {
      parsed = ParseNumberFlag(arg, v, 0, kMaxSeconds,
                               &out->oracle.baseline.timeout_seconds, error);
    } else if ((v = FlagValue(arg, "--max-pages")) != nullptr) {
      parsed = ParseIntFlag(arg, v, 2, kMaxInt, &out->generator.max_pages,
                            error);
    } else if ((v = FlagValue(arg, "--max-constants")) != nullptr) {
      parsed = ParseIntFlag(arg, v, 2, kMaxInt,
                            &out->generator.max_constants, error);
    } else if ((v = FlagValue(arg, "--property-depth")) != nullptr) {
      parsed = ParseIntFlag(arg, v, 1, kMaxPropertyDepth,
                            &out->generator.max_property_depth, error);
    } else if (std::strcmp(arg, "--no-shrink") == 0) {
      out->shrink = false;
    } else if (std::strcmp(arg, "--no-metamorphic") == 0) {
      out->oracle.run_metamorphic = false;
    } else if (std::strcmp(arg, "--probe-reasons") == 0) {
      out->probe_reasons = true;
    } else if (std::strcmp(arg, "--inject-flip") == 0) {
      out->inject_flip = true;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      out->quiet = true;
    } else {
      *error = std::string("unknown option: ") + arg;
      return false;
    }
    if (!parsed) return false;
  }
  if (out->seed_count == 0 && out->time_budget_seconds <= 0) {
    *error = "--time-budget=0 needs an explicit --seed-count";
    return false;
  }
  if (out->cache_dir.empty() && !out->out_dir.empty()) {
    out->cache_dir = out->out_dir + "/cache";
  }
  out->oracle.cache_dir = out->cache_dir;
  return true;
}

/// Writes one reproducer artifact; failures are reported but do not stop
/// the campaign (the seed in the log is always enough to regenerate).
void WriteArtifact(const std::string& path, const std::string& content) {
  Status written = AtomicWriteFile(path, content);
  if (!written.ok()) {
    std::fprintf(stderr, "wave_fuzz: %s\n", written.ToString().c_str());
  }
}

int Main(int argc, char** argv) {
  CliOptions cli;
  std::string error;
  if (!ParseArgs(argc, argv, &cli, &error)) {
    std::fprintf(stderr, "wave_fuzz: %s\n%s", error.c_str(), kUsage);
    return 1;
  }
  if (!cli.out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(cli.out_dir, ec);
    if (ec) {
      std::fprintf(stderr, "wave_fuzz: cannot create %s: %s\n",
                   cli.out_dir.c_str(), ec.message().c_str());
      return 1;
    }
  }
  if (Status armed = fault::ArmFromEnv(); !armed.ok()) {
    std::fprintf(stderr, "wave_fuzz: WAVE_FAULT_SPEC: %s\n",
                 armed.ToString().c_str());
    return 1;
  }
  if (cli.inject_flip) {
    fault::Plan plan;
    fault::Rule rule;
    rule.site = "oracle.flip_verdict";
    rule.kind = fault::Kind::kFlip;
    plan.rules.push_back(std::move(rule));
    fault::Arm(std::move(plan));
  }

  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&start]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  uint64_t cases = 0, disagreements = 0, invalid = 0;
  uint64_t holds = 0, violated = 0, undecided = 0;
  uint64_t compared[6] = {0, 0, 0, 0, 0, 0};
  double axis_seconds[6] = {0, 0, 0, 0, 0, 0};
  double reference_seconds = 0;

  uint64_t seed = cli.seed_start;
  for (;; ++seed) {
    if (cli.seed_count > 0 && seed - cli.seed_start >= cli.seed_count) break;
    if (cli.time_budget_seconds > 0 && elapsed() >= cli.time_budget_seconds) {
      break;
    }
    FuzzCase c = GenerateCase(seed, cli.generator);
    OracleReport report = CheckCase(c, cli.oracle);
    ++cases;
    if (!report.valid) ++invalid;
    switch (report.reference) {
      case Verdict::kHolds: ++holds; break;
      case Verdict::kViolated: ++violated; break;
      case Verdict::kUnknown: ++undecided; break;
    }
    for (const AxisCheck& check : report.axes) {
      if (check.compared) ++compared[static_cast<int>(check.axis)];
      axis_seconds[static_cast<int>(check.axis)] += check.seconds;
    }
    reference_seconds += report.reference_seconds;

    obs::Json line = report.ToJson();
    line.Set("spec_lines", obs::Json::Int(c.SpecLineCount()));

    if (!report.ok()) {
      ++disagreements;
      std::fprintf(stderr, "wave_fuzz: FAILURE %s\n",
                   report.Summary().c_str());
      if (report.valid && cli.shrink) {
        // Shrink against the first disagreeing axis only — a probe then
        // costs one axis, not six.
        const AxisCheck* bad = nullptr;
        for (const AxisCheck& check : report.axes) {
          if (!check.agreed) {
            bad = &check;
            break;
          }
        }
        ShrinkResult shrunk = testing::Minimize(
            c, OracleDisagreementPredicate(cli.oracle, bad->axis));
        obs::Json sj = obs::Json::Object();
        sj.Set("axis", obs::Json::Str(testing::OracleAxisName(bad->axis)));
        sj.Set("probes", obs::Json::Int(shrunk.stats.probes));
        sj.Set("accepted", obs::Json::Int(shrunk.stats.accepted));
        sj.Set("initial_lines", obs::Json::Int(shrunk.stats.initial_lines));
        sj.Set("final_lines", obs::Json::Int(shrunk.stats.final_lines));
        line.Set("shrink", std::move(sj));
        std::fprintf(stderr,
                     "wave_fuzz: seed %llu minimized %d -> %d spec lines "
                     "(%d probes)\n",
                     static_cast<unsigned long long>(seed),
                     shrunk.stats.initial_lines, shrunk.stats.final_lines,
                     shrunk.stats.probes);
        if (!cli.out_dir.empty()) {
          std::string base =
              cli.out_dir + "/seed_" + std::to_string(seed);
          WriteArtifact(base + ".spec", c.Text());
          WriteArtifact(base + ".min.spec", shrunk.minimized.Text());
          WriteArtifact(base + ".json", line.Dump(2) + "\n");
        }
      } else if (!cli.out_dir.empty()) {
        std::string base = cli.out_dir + "/seed_" + std::to_string(seed);
        WriteArtifact(base + ".spec", c.Text());
        WriteArtifact(base + ".json", line.Dump(2) + "\n");
      }
    } else if (!cli.quiet) {
      std::fprintf(stderr, "wave_fuzz: %s\n", report.Summary().c_str());
    }
    std::printf("%s\n", line.Dump().c_str());
    std::fflush(stdout);
  }

  bool probes_uncovered = false;
  if (cli.probe_reasons) {
    std::vector<ReasonProbe> probes =
        testing::ProbeUnknownReasons(cli.generator, cli.seed_start,
                                     /*max_seeds=*/50);
    obs::Json pj = obs::Json::Array();
    for (const ReasonProbe& probe : probes) {
      if (!probe.covered) probes_uncovered = true;
      std::fprintf(stderr, "wave_fuzz: reason %-19s %s (%s)\n",
                   UnknownReasonName(probe.reason),
                   probe.covered ? "covered" : "NOT COVERED",
                   probe.detail.c_str());
      obs::Json one = obs::Json::Object();
      one.Set("reason", obs::Json::Str(UnknownReasonName(probe.reason)));
      one.Set("covered", obs::Json::Bool(probe.covered));
      if (probe.covered) {
        one.Set("seed", obs::Json::Int(static_cast<int64_t>(probe.seed)));
      }
      one.Set("detail", obs::Json::Str(probe.detail));
      pj.Append(std::move(one));
    }
    obs::Json line = obs::Json::Object();
    line.Set("reason_probes", std::move(pj));
    std::printf("%s\n", line.Dump().c_str());
  }

  obs::Json summary = obs::Json::Object();
  summary.Set("campaign", obs::Json::Bool(true));
  summary.Set("seed_start", obs::Json::Int(static_cast<int64_t>(cli.seed_start)));
  summary.Set("cases", obs::Json::Int(static_cast<int64_t>(cases)));
  summary.Set("invalid", obs::Json::Int(static_cast<int64_t>(invalid)));
  summary.Set("disagreements",
              obs::Json::Int(static_cast<int64_t>(disagreements)));
  summary.Set("holds", obs::Json::Int(static_cast<int64_t>(holds)));
  summary.Set("violated", obs::Json::Int(static_cast<int64_t>(violated)));
  summary.Set("undecided", obs::Json::Int(static_cast<int64_t>(undecided)));
  obs::Json cj = obs::Json::Object();
  for (int axis = 0; axis < 6; ++axis) {
    cj.Set(testing::OracleAxisName(static_cast<testing::OracleAxis>(axis)),
           obs::Json::Int(static_cast<int64_t>(compared[axis])));
  }
  summary.Set("compared", std::move(cj));
  // Per-axis wall time across the campaign, so a slow oracle axis is
  // visible in the JSON-lines output rather than buried in the total.
  obs::Json tj = obs::Json::Object();
  tj.Set("reference", obs::Json::Number(reference_seconds));
  for (int axis = 0; axis < 6; ++axis) {
    tj.Set(testing::OracleAxisName(static_cast<testing::OracleAxis>(axis)),
           obs::Json::Number(axis_seconds[axis]));
  }
  summary.Set("axis_seconds", std::move(tj));
  summary.Set("seconds", obs::Json::Number(elapsed()));
  std::printf("%s\n", summary.Dump().c_str());
  std::fprintf(stderr,
               "wave_fuzz: %llu cases in %.1fs: %llu holds, %llu violated, "
               "%llu undecided, %llu invalid, %llu disagreements\n",
               static_cast<unsigned long long>(cases), elapsed(),
               static_cast<unsigned long long>(holds),
               static_cast<unsigned long long>(violated),
               static_cast<unsigned long long>(undecided),
               static_cast<unsigned long long>(invalid),
               static_cast<unsigned long long>(disagreements));

  return disagreements > 0 || probes_uncovered ? 3 : 0;
}

}  // namespace
}  // namespace wave

int main(int argc, char** argv) { return wave::Main(argc, argv); }
