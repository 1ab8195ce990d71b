// wave_crash — kill-point recovery harness for the multi-process
// ResultCache (ISSUE 7).
//
// The crash-consistency claim under test: no matter where a writer dies,
// the cache directory always recovers to a consistent state, and a warm
// re-run over the survivor returns verdicts identical to a cold run.
// SIGKILL is the harshest version of "where a writer dies" — no
// destructors, no atexit, no flushes — so that is what we rehearse:
//
//   round:  pick a crash-applicable fault site and a hit index N from a
//           pinned RNG, export WAVE_FAULT_SPEC="<site>=crash@<N>", fork
//           and exec a child `wave_verify --cache-dir=<shared>` over one
//           of the E1–E4 specs, and wait. The child SIGKILLs itself at
//           the Nth hit of that site (or finishes normally when the site
//           is hit fewer than N times).
//   check:  re-open the cache (ResultCache::Open heals crash debris:
//           the temp file of an interrupted store) and run
//           `AuditCacheDir`: the directory must be consistent, and the
//           quarantine must stay EMPTY — a SIGKILL cannot tear an
//           atomically-renamed file, so any CRC-failing entry would be a
//           real bug, not bad luck.
//   final:  warm-vs-cold differential. For each spec, one run over the
//           hammered cache and one over a fresh directory, both with
//           identical deterministic budgets; every property's verdict
//           must match (via --stats-json).
//
// The fleet of kill-points is drawn from the registered site inventory
// (fault::KnownSites), so a new cache/io site automatically joins the
// rotation. Once all specs verify cleanly in a row the cache is fully
// warm and stores (hence store-path kill-points) stop firing — the
// harness then wipes the directory and keeps hammering from cold.
//
// Used by tests/cache_concurrency_test.cc (smoke), scripts/check.sh
// --faults (short budget) and the ISSUE-7 acceptance run (--kills=200).
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/io.h"
#include "common/status.h"
#include "obs/json.h"
#include "verifier/cache.h"

#include "flags.h"

#ifndef WAVE_VERIFY_BIN
#define WAVE_VERIFY_BIN ""
#endif
#ifndef WAVE_SPECS_DIR
#define WAVE_SPECS_DIR ""
#endif

namespace wave {
namespace {

namespace fs = std::filesystem;

constexpr char kUsage[] = R"(usage: wave_crash [options]

SIGKILLs child wave_verify runs at randomized armed crash-points during
cache store/load and proves the cache directory always recovers: every
round must audit consistent, and warm re-run verdicts must equal cold
runs (see docs/ROBUSTNESS.md).

options:
  --verify-bin=PATH   wave_verify binary (default: the build-time path)
  --specs-dir=PATH    directory holding e1..e4 specs (default: in-tree)
  --work-dir=PATH     scratch directory (default ./wave_crash.work; the
                      hammered cache lives at WORK/cache)
  --kills=N           SIGKILL deaths to collect, 1..1048576 (default 200)
  --max-rounds=N      bound on total child runs (default or 0: 8*kills)
  --seed=N            RNG seed for site/hit selection (default 1)
  --keep-going        report every inconsistency instead of stopping
  --quiet             suppress per-round lines
exit status: 0 cache always consistent + verdicts identical, 1 setup
error, 4 inconsistency or verdict divergence detected
)";

struct CliOptions {
  std::string verify_bin = WAVE_VERIFY_BIN;
  std::string specs_dir = WAVE_SPECS_DIR;
  std::string work_dir = "wave_crash.work";
  int kills = 200;
  int max_rounds = 0;  // 0 -> 8 * kills
  uint64_t seed = 1;
  bool keep_going = false;
  bool quiet = false;
};

/// Bound of --kills; 8x it (the default --max-rounds) still fits an int.
constexpr int64_t kMaxKills = 1 << 20;

bool ParseArgs(int argc, char** argv, CliOptions* out, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* v = nullptr;
    bool parsed = true;
    if ((v = FlagValue(arg, "--verify-bin")) != nullptr) {
      out->verify_bin = v;
    } else if ((v = FlagValue(arg, "--specs-dir")) != nullptr) {
      out->specs_dir = v;
    } else if ((v = FlagValue(arg, "--work-dir")) != nullptr) {
      out->work_dir = v;
    } else if ((v = FlagValue(arg, "--kills")) != nullptr) {
      parsed = ParseIntFlag(arg, v, 1, kMaxKills, &out->kills, error);
    } else if ((v = FlagValue(arg, "--max-rounds")) != nullptr) {
      parsed = ParseIntFlag(arg, v, 0, kMaxInt, &out->max_rounds, error);
    } else if ((v = FlagValue(arg, "--seed")) != nullptr) {
      parsed = ParseIntFlag(arg, v, 0, kMaxInt64, &out->seed, error);
    } else if (std::strcmp(arg, "--keep-going") == 0) {
      out->keep_going = true;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      out->quiet = true;
    } else {
      *error = std::string("unknown option: ") + arg;
      return false;
    }
    if (!parsed) return false;
  }
  if (out->max_rounds <= 0) out->max_rounds = 8 * out->kills;
  return true;
}

uint64_t SplitMix64Next(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Crash-applicable kill-points on the cache store/load paths, drawn
/// from the registered inventory so new sites join automatically.
std::vector<std::string> CrashSites() {
  std::vector<std::string> sites;
  for (const fault::SiteInfo& info : fault::KnownSites()) {
    std::string_view site = info.site;
    if (!info.Supports(fault::Kind::kCrash)) continue;
    if (site.substr(0, 6) == "cache." || site.substr(0, 9) == "io.write.") {
      sites.emplace_back(site);
    }
  }
  return sites;
}

/// Runs one child wave_verify and returns its wait status (-1 on
/// fork/exec trouble). `fault_spec` empty = unarmed run.
int RunChild(const CliOptions& cli, const std::string& spec_path,
             const std::string& cache_dir, const std::string& fault_spec,
             const std::string& stats_path) {
  std::vector<std::string> args = {
      cli.verify_bin, spec_path, "--cache-dir=" + cache_dir,
      // Default budgets decide every E1-E4 property quickly and
      // deterministically; a generous timeout keeps slow CI machines from
      // introducing wall-clock-dependent unknowns into the differential.
      "--timeout=120", "--keep-going"};
  if (!stats_path.empty()) args.push_back("--stats-json=" + stats_path);

  pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    if (fault_spec.empty()) {
      ::unsetenv("WAVE_FAULT_SPEC");
    } else {
      ::setenv("WAVE_FAULT_SPEC", fault_spec.c_str(), 1);
    }
    // The kill rounds' stdout is noise; keep stderr (warnings matter).
    std::freopen("/dev/null", "w", stdout);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(cli.verify_bin.c_str(), argv.data());
    std::fprintf(stderr, "wave_crash: exec %s failed\n",
                 cli.verify_bin.c_str());
    ::_exit(127);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) < 0) return -1;
  return status;
}

/// property -> verdict, from a --stats-json file; nullopt on any
/// missing/odd file (the caller treats that as a harness failure).
std::optional<std::map<std::string, std::string>> ReadVerdicts(
    const std::string& stats_path) {
  StatusOr<std::string> text = ReadFileToString(stats_path);
  if (!text.ok()) return std::nullopt;
  std::optional<obs::Json> doc = obs::Json::Parse(*text);
  if (!doc.has_value() || !doc->is_object()) return std::nullopt;
  const obs::Json* runs = doc->Find("runs");
  if (runs == nullptr || !runs->is_array()) return std::nullopt;
  std::map<std::string, std::string> verdicts;
  for (const obs::Json& run : runs->items()) {
    const obs::Json* property = run.Find("property");
    const obs::Json* verdict = run.Find("verdict");
    if (property == nullptr || !property->is_string() || verdict == nullptr ||
        !verdict->is_string()) {
      return std::nullopt;
    }
    verdicts[property->AsString()] = verdict->AsString();
  }
  return verdicts;
}

int Main(int argc, char** argv) {
  CliOptions cli;
  std::string error;
  if (!ParseArgs(argc, argv, &cli, &error)) {
    std::fprintf(stderr, "wave_crash: %s\n%s", error.c_str(), kUsage);
    return 1;
  }
  std::vector<std::string> specs;
  for (const char* name : {"e1_shopping.spec", "e2_motogp.spec",
                           "e3_airline.spec", "e4_bookstore.spec"}) {
    std::string path = cli.specs_dir + "/" + name;
    std::error_code ec;
    if (!fs::is_regular_file(path, ec)) {
      std::fprintf(stderr, "wave_crash: no spec at %s (--specs-dir?)\n",
                   path.c_str());
      return 1;
    }
    specs.push_back(std::move(path));
  }
  {
    std::error_code ec;
    if (!fs::is_regular_file(cli.verify_bin, ec)) {
      std::fprintf(stderr, "wave_crash: no wave_verify at %s (--verify-bin?)\n",
                   cli.verify_bin.c_str());
      return 1;
    }
    fs::remove_all(cli.work_dir, ec);
    fs::create_directories(cli.work_dir, ec);
    if (ec) {
      std::fprintf(stderr, "wave_crash: cannot create %s: %s\n",
                   cli.work_dir.c_str(), ec.message().c_str());
      return 1;
    }
  }
  const std::string cache_dir = cli.work_dir + "/cache";
  const std::vector<std::string> sites = CrashSites();
  if (sites.empty()) {
    std::fprintf(stderr, "wave_crash: no crash-applicable sites registered\n");
    return 1;
  }

  uint64_t rng = cli.seed;
  int rounds = 0, kills = 0, clean_runs = 0, failures = 0, wipes = 0;
  int consecutive_clean = 0;
  std::map<std::string, int> kills_by_site;

  while (kills < cli.kills && rounds < cli.max_rounds) {
    const std::string& spec = specs[rounds % specs.size()];
    const std::string& site = sites[SplitMix64Next(&rng) % sites.size()];
    const int nth = 1 + static_cast<int>(SplitMix64Next(&rng) % 12);
    const std::string fault_spec =
        site + "=crash@" + std::to_string(nth);
    ++rounds;

    int status = RunChild(cli, spec, cache_dir, fault_spec, "");
    bool killed = status >= 0 && WIFSIGNALED(status) &&
                  WTERMSIG(status) == SIGKILL;
    if (killed) {
      ++kills;
      ++kills_by_site[site];
      consecutive_clean = 0;
    } else {
      ++clean_runs;
      ++consecutive_clean;
    }

    // Recovery + audit after EVERY round: Open heals whatever the crash
    // left behind, then the directory must check out completely.
    {
      StatusOr<std::unique_ptr<ResultCache>> healed =
          ResultCache::Open(cache_dir);
      if (!healed.ok()) {
        std::fprintf(stderr, "wave_crash: round %d (%s): recovery open: %s\n",
                     rounds, fault_spec.c_str(),
                     healed.status().ToString().c_str());
        ++failures;
        if (!cli.keep_going) break;
      }
    }
    CacheAudit audit = AuditCacheDir(cache_dir);
    if (!audit.consistent() || audit.quarantined_files != 0) {
      std::fprintf(stderr,
                   "wave_crash: round %d (%s): INCONSISTENT after recovery "
                   "(torn=%lld misnamed=%lld tmp=%lld quarantined=%lld)\n",
                   rounds, fault_spec.c_str(),
                   static_cast<long long>(audit.torn_entries),
                   static_cast<long long>(audit.misnamed_entries),
                   static_cast<long long>(audit.tmp_files),
                   static_cast<long long>(audit.quarantined_files));
      for (const std::string& p : audit.problems) {
        std::fprintf(stderr, "wave_crash:   %s\n", p.c_str());
      }
      ++failures;
      if (!cli.keep_going) break;
    }
    if (!cli.quiet && (rounds % 25 == 0 || kills == cli.kills)) {
      std::fprintf(stderr,
                   "wave_crash: %d rounds, %d/%d kills, %d clean, "
                   "%lld cached entries\n",
                   rounds, kills, cli.kills, clean_runs,
                   static_cast<long long>(audit.entries));
    }

    // All specs verified without a single kill-point firing: the cache is
    // fully warm, store-path kill-points are starved. Wipe and re-hammer
    // from cold.
    if (consecutive_clean >= static_cast<int>(specs.size())) {
      std::error_code ec;
      fs::remove_all(cache_dir, ec);
      consecutive_clean = 0;
      ++wipes;
    }
  }

  // Warm-vs-cold differential over whatever survived the massacre: the
  // hammered cache must produce exactly the verdicts a fresh one does.
  int diffs = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    const std::string warm_stats =
        cli.work_dir + "/warm_" + std::to_string(i) + ".json";
    const std::string cold_stats =
        cli.work_dir + "/cold_" + std::to_string(i) + ".json";
    const std::string cold_cache =
        cli.work_dir + "/cold_cache_" + std::to_string(i);
    int warm = RunChild(cli, specs[i], cache_dir, "", warm_stats);
    int cold = RunChild(cli, specs[i], cold_cache, "", cold_stats);
    if (warm < 0 || cold < 0 || !WIFEXITED(warm) || !WIFEXITED(cold)) {
      std::fprintf(stderr, "wave_crash: differential runs failed for %s\n",
                   specs[i].c_str());
      ++failures;
      continue;
    }
    auto warm_verdicts = ReadVerdicts(warm_stats);
    auto cold_verdicts = ReadVerdicts(cold_stats);
    if (!warm_verdicts.has_value() || !cold_verdicts.has_value()) {
      std::fprintf(stderr, "wave_crash: cannot read stats JSON for %s\n",
                   specs[i].c_str());
      ++failures;
      continue;
    }
    if (*warm_verdicts != *cold_verdicts) {
      std::fprintf(stderr,
                   "wave_crash: VERDICT DIVERGENCE on %s (warm cache after "
                   "%d kills vs cold):\n",
                   specs[i].c_str(), kills);
      for (const auto& [property, verdict] : *cold_verdicts) {
        auto it = warm_verdicts->find(property);
        std::string warm_v = it == warm_verdicts->end() ? "<absent>"
                                                        : it->second;
        if (warm_v != verdict) {
          std::fprintf(stderr, "wave_crash:   %s: cold=%s warm=%s\n",
                       property.c_str(), verdict.c_str(), warm_v.c_str());
        }
      }
      ++diffs;
    }
  }

  std::fprintf(stderr,
               "wave_crash: %d rounds, %d kills (%d clean runs, %d cache "
               "wipes), %d audit failures, %d verdict divergences\n",
               rounds, kills, clean_runs, wipes, failures, diffs);
  if (!cli.quiet) {
    for (const auto& [site, count] : kills_by_site) {
      std::fprintf(stderr, "wave_crash:   killed at %-24s x%d\n",
                   site.c_str(), count);
    }
  }
  if (kills < cli.kills) {
    std::fprintf(stderr,
                 "wave_crash: only %d/%d kills within %d rounds (harness "
                 "budget too tight?)\n",
                 kills, cli.kills, rounds);
  }
  if (failures > 0 || diffs > 0) return 4;
  // An unreached kill target alone is a budget problem, not a
  // consistency violation — report it but do not fail the gate when the
  // rounds that DID run all audited clean.
  std::error_code ec;
  fs::remove_all(cli.work_dir, ec);
  return 0;
}

}  // namespace
}  // namespace wave

int main(int argc, char** argv) { return wave::Main(argc, argv); }
