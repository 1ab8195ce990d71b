// Crash-safe, multi-process ResultCache (ISSUE 7).
//
// The v2 on-disk contract under test (see verifier/cache.h and
// docs/ROBUSTNESS.md):
//  - a store atomically renames one `entries/<hex>.json` per key into
//    place, so readers never observe a torn entry, and a lookup or a
//    store reads no other file;
//  - Open removes crash debris (stray temp files) and never reads, moves
//    or counts an older layout's records, whose keys are misses; a lookup
//    quarantines — never silently deletes — a corrupt entry;
//  - the writer lock is advisory flock with bounded jittered backoff:
//    contention is counted, bounded, and auto-released by the kernel
//    when the holder dies;
//  - N concurrent wave_verify processes hammering ONE cache directory
//    finish with identical verdicts, zero corrupt entries, no leftover
//    temp files and no deadlock (the ISSUE-7 satellite ctest case);
//  - the tools/wave_crash kill-point harness (SIGKILLed children at
//    randomized armed crash-points) passes a smoke budget.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "common/backoff.h"
#include "common/crc32.h"
#include "common/fault.h"
#include "common/io.h"
#include "obs/json.h"
#include "verifier/cache.h"
#include "verifier/session.h"
#include "verifier/verifier.h"

#include "verify_helpers.h"

namespace wave {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& tag) {
  static int counter = 0;
  std::string dir = ::testing::TempDir() + "wave_cache_conc_" + tag + "_" +
                    std::to_string(counter++);
  fs::remove_all(dir);
  return dir;
}

/// Runs E1/P1 once through `cache`; returns the verdict.
Verdict VerifyP1(const AppBundle& e1, ResultCache* cache) {
  Verifier verifier(e1.spec.get());
  VerifyRequest request;
  request.property = FindProperty(e1, "P1");
  request.cache = cache;
  StatusOr<VerifyResponse> response = verifier.Run(request);
  WAVE_CHECK_MSG(response.ok(), response.status().message());
  return response->verdict;
}

// --- on-disk format v2 -------------------------------------------------------

TEST(CacheFormatTest, StorePublishesOneEntryFilePerKey) {
  const std::string dir = FreshDir("layout");
  AppBundle e1 = BuildE1();
  StatusOr<std::unique_ptr<ResultCache>> cache = ResultCache::Open(dir);
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();

  Verdict cold = VerifyP1(e1, cache->get());
  ASSERT_NE(cold, Verdict::kUnknown);
  EXPECT_EQ((*cache)->stores(), 1);

  CacheAudit audit = AuditCacheDir(dir);
  EXPECT_EQ(audit.entries, 1);
  EXPECT_TRUE(audit.consistent());
  EXPECT_EQ(audit.quarantined_files, 0);
  std::vector<std::string> names;
  for (const auto& f : fs::directory_iterator(dir + "/entries")) {
    names.push_back(f.path().filename().string());
  }
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0].size(), 32u + 5u) << names[0] << ": <hex>.json";
  EXPECT_FALSE(fs::exists(dir + "/MANIFEST"));

  // A second process (fresh handle) sees the published entry.
  StatusOr<std::unique_ptr<ResultCache>> peer = ResultCache::Open(dir);
  ASSERT_TRUE(peer.ok());
  EXPECT_EQ(VerifyP1(e1, peer->get()), cold);
  EXPECT_EQ((*peer)->hits(), 1);
  EXPECT_EQ((*peer)->stores(), 0);
}

/// A decided response with no counterexample: the smallest record.
VerifyResponse MinimalHolds() {
  VerifyResponse response;
  response.verdict = Verdict::kHolds;
  return response;
}

/// Key `i` of a synthetic cache fill.
Fingerprint SyntheticKey(int i) {
  return Fingerprint{static_cast<uint64_t>(i) + 1, 0x5eedu};
}

/// `io.read.open` hits while `body` runs, under a plan that never fires.
template <typename Body>
int64_t FilesOpenedBy(Body body) {
  fault::Rule rule;
  rule.site = "io.read.open";
  rule.max_fires = 0;
  fault::Plan plan;
  plan.rules.push_back(rule);
  fault::ScopedPlan armed(std::move(plan));
  body();
  for (const fault::SiteCount& count : fault::Counts()) {
    if (count.site == "io.read.open") return count.hits;
  }
  return 0;
}

TEST(CacheFormatTest, LookupReadsOneFileAndStoreAndOpenReadNoneAtAnySize) {
  AppBundle e1 = BuildE1();
  for (int size : {1, 500}) {
    SCOPED_TRACE(size);
    const std::string dir = FreshDir("access");
    {
      StatusOr<std::unique_ptr<ResultCache>> fill = ResultCache::Open(dir);
      ASSERT_TRUE(fill.ok());
      for (int i = 0; i < size; ++i) {
        ASSERT_TRUE(
            (*fill)->Store(SyntheticKey(i), *e1.spec, MinimalHolds()).ok());
      }
    }
    std::unique_ptr<ResultCache> cache;
    EXPECT_EQ(FilesOpenedBy([&] {
                StatusOr<std::unique_ptr<ResultCache>> opened =
                    ResultCache::Open(dir);
                ASSERT_TRUE(opened.ok());
                cache = std::move(*opened);
              }),
              0)
        << "Open of a clean directory";
    ASSERT_NE(cache, nullptr);
    VerifyResponse out;
    EXPECT_EQ(FilesOpenedBy([&] {
                EXPECT_TRUE(cache->Lookup(SyntheticKey(size - 1),
                                          e1.spec.get(), &out));
              }),
              1)
        << "a hit";
    EXPECT_EQ(FilesOpenedBy([&] {
                EXPECT_FALSE(cache->Lookup(SyntheticKey(size), e1.spec.get(),
                                           &out));
              }),
              1)
        << "a miss";
    EXPECT_EQ(FilesOpenedBy([&] {
                EXPECT_TRUE(
                    cache->Store(SyntheticKey(size), *e1.spec, MinimalHolds())
                        .ok());
              }),
              0)
        << "a store";
    EXPECT_EQ(cache->health().corrupt, 0);
    EXPECT_EQ(cache->health().lock_waits, 0);
  }
}

/// An entry file: `payload` in the frame the cache writes.
std::string FramedEntry(const std::string& payload) {
  char header[64];
  std::snprintf(header, sizeof(header), "WAVECACHE2 crc32=%08x len=%zu\n",
                Crc32(payload), payload.size());
  return header + payload;
}

/// The payload of a stored entry (its frame stripped).
std::string EntryPayload(const std::string& path) {
  std::string content = *ReadFileToString(path);
  return content.substr(content.find('\n') + 1);
}

TEST(CacheFormatTest, MisnamedEntryIsAQuarantinedMissNeverAHit) {
  // A valid record copied under another key's name: its CRC is clean,
  // but it answers a different question.
  AppBundle e1 = BuildE1();
  const std::string dir = FreshDir("misnamed");
  StatusOr<std::unique_ptr<ResultCache>> cache = ResultCache::Open(dir);
  ASSERT_TRUE(cache.ok());
  ASSERT_TRUE(
      (*cache)->Store(SyntheticKey(1), *e1.spec, MinimalHolds()).ok());
  const std::string impostor =
      dir + "/entries/" + SyntheticKey(2).ToHex() + ".json";
  fs::copy_file(dir + "/entries/" + SyntheticKey(1).ToHex() + ".json",
                impostor);
  EXPECT_EQ(AuditCacheDir(dir).misnamed_entries, 1);
  // A clean frame around bytes that are not JSON is torn, not misnamed.
  const std::string garbled =
      dir + "/entries/" + SyntheticKey(3).ToHex() + ".json";
  std::ofstream(garbled, std::ios::binary) << FramedEntry("not json");
  CacheAudit both = AuditCacheDir(dir);
  EXPECT_EQ(both.torn_entries, 1);
  EXPECT_EQ(both.misnamed_entries, 1);
  fs::remove(garbled);

  VerifyResponse out;
  EXPECT_FALSE((*cache)->Lookup(SyntheticKey(2), e1.spec.get(), &out));
  EXPECT_EQ((*cache)->misses(), 1);
  EXPECT_EQ((*cache)->health().corrupt, 1);
  EXPECT_EQ((*cache)->health().quarantined, 1);
  EXPECT_FALSE(fs::exists(impostor));
  EXPECT_TRUE((*cache)->Lookup(SyntheticKey(1), e1.spec.get(), &out))
      << "the genuine entry still hits";

  CacheAudit audit = AuditCacheDir(dir);
  EXPECT_TRUE(audit.consistent());
  EXPECT_EQ(audit.entries, 1);
  EXPECT_EQ(audit.quarantined_files, 1);
}

TEST(CacheFormatTest, OpenRemovesCrashDebrisAndLeavesOlderLayoutsUnread) {
  // An older layout's files for key K: a MANIFEST, K's valid entry filed
  // as generation 5, and a flat v1-named record at the top level. Plus
  // crash debris: an interrupted atomic write.
  AppBundle e1 = BuildE1();
  const Fingerprint key = SyntheticKey(1);
  const std::string hex = key.ToHex();
  const std::string source = FreshDir("old_layout_src");
  {
    StatusOr<std::unique_ptr<ResultCache>> writer = ResultCache::Open(source);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Store(key, *e1.spec, MinimalHolds()).ok());
  }
  const std::string entry = source + "/entries/" + hex + ".json";
  const std::map<std::string, std::string> old_files = {
      {"MANIFEST", "{\"format\": 2, \"generation\": 5, \"entries\": {}}\n"},
      {"entries/" + hex + ".g5.json", *ReadFileToString(entry)},
      {hex + ".json", EntryPayload(entry)}};
  const std::string dir = FreshDir("old_layout");
  fs::create_directories(dir + "/entries");
  for (const auto& [name, bytes] : old_files) {
    std::ofstream(dir + "/" + name, std::ios::binary) << bytes;
  }
  std::ofstream(dir + "/entries/aaaa.json.tmp") << "half an entry";

  std::unique_ptr<ResultCache> cache;
  EXPECT_EQ(FilesOpenedBy([&] {
              StatusOr<std::unique_ptr<ResultCache>> opened =
                  ResultCache::Open(dir);
              ASSERT_TRUE(opened.ok()) << opened.status().ToString();
              cache = std::move(*opened);
            }),
            0)
      << "Open reads no old record";
  ASSERT_NE(cache, nullptr);
  EXPECT_GE(cache->health().recovered, 1);
  VerifyResponse out;
  EXPECT_FALSE(cache->Lookup(key, e1.spec.get(), &out));
  for (const auto& [name, bytes] : old_files) {
    StatusOr<std::string> now = ReadFileToString(dir + "/" + name);
    EXPECT_TRUE(now.ok() && *now == bytes) << name << " was moved or changed";
  }
  EXPECT_EQ(cache->health().corrupt, 0);
  EXPECT_EQ(cache->health().quarantined, 0);

  CacheAudit audit = AuditCacheDir(dir);
  EXPECT_TRUE(audit.consistent())
      << (audit.problems.empty() ? "" : audit.problems[0]);
  EXPECT_EQ(audit.entries, 0);
  EXPECT_EQ(audit.tmp_files, 0) << "temp debris must be removed";
  EXPECT_EQ(audit.quarantined_files, 0);

  // A store files K under the current name, and K hits from then on.
  ASSERT_TRUE(cache->Store(key, *e1.spec, MinimalHolds()).ok());
  EXPECT_TRUE(fs::exists(dir + "/entries/" + hex + ".json"));
  EXPECT_TRUE(cache->Lookup(key, e1.spec.get(), &out));
}

TEST(CacheFormatTest, EntriesFromBeforeTheWireCodecStillHit) {
  // Two entries written before records went through api/wire, with
  // telemetry on (their stats hold percentile summaries): E1/P3 violated,
  // E1/P1 holds. Each reads back as a hit equal to a cold run. Their stats
  // also carry the retired `frontier_size` key, which decoding ignores.
  const std::string dir = FreshDir("golden");
  fs::create_directories(dir + "/entries");
  for (const auto& golden : fs::directory_iterator(
           std::string(WAVE_REPO_ROOT) + "/tests/golden/cache_v2")) {
    fs::copy_file(golden.path(),
                  fs::path(dir) / "entries" / golden.path().filename());
  }
  StatusOr<std::unique_ptr<ResultCache>> cache = ResultCache::Open(dir);
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();
  CacheAudit audit = AuditCacheDir(dir);
  EXPECT_TRUE(audit.consistent());
  EXPECT_EQ(audit.entries, 2);

  auto counters = [](const VerifyStats& s) {
    return std::vector<int64_t>{s.num_assignments, s.num_cores,
                                s.num_expansions,  s.num_successors,
                                s.trie_hits,       s.trie_misses,
                                s.buchi_states,    s.max_trie_size,
                                s.max_pseudorun_length};
  };
  AppBundle e1 = BuildE1();
  for (const char* name : {"P3", "P1"}) {
    SCOPED_TRACE(name);
    Verifier verifier(e1.spec.get());
    VerifyRequest request;
    request.property = FindProperty(e1, name);
    StatusOr<VerifyResponse> cold = verifier.Run(request);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    VerifyResponse hit;
    ASSERT_TRUE((*cache)->Lookup(
        ResultCacheKey(verifier.session().SpecFingerprint(),
                       *request.property, e1.spec->symbols(), request.options),
        e1.spec.get(), &hit));
    EXPECT_EQ(hit.verdict, cold->verdict);
    EXPECT_EQ(hit.witness_binding, cold->witness_binding);
    EXPECT_EQ(hit.CounterexampleString(*e1.spec),
              cold->CounterexampleString(*e1.spec));
    EXPECT_EQ(counters(hit.stats), counters(cold->stats));
    EXPECT_EQ(hit.stats.cache_hits, 1);
    EXPECT_TRUE(hit.stats.search_depth.empty()) << "summaries are dropped";
  }
  EXPECT_EQ((*cache)->hits(), 2);
}

// --- advisory locking --------------------------------------------------------

TEST(CacheLockTest, ContentionIsBoundedCountedAndRecoverable) {
  const std::string dir = FreshDir("lock");
  CacheOptions options;
  options.lock_backoff.initial_seconds = 0.001;
  options.lock_backoff.max_delay_seconds = 0.005;
  options.lock_backoff.jitter = 0;
  options.lock_backoff.max_attempts = 4;
  options.lock_backoff.total_budget_seconds = 0.1;
  options.backoff_seed = 7;
  StatusOr<std::unique_ptr<ResultCache>> cache =
      ResultCache::Open(dir, options);
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();

  // Hold the writer lock the way a peer process would (flock locks
  // attach to the open file description, so a second descriptor in this
  // process contends exactly like another process).
  int held = ::open((dir + "/.lock").c_str(), O_CREAT | O_RDWR, 0644);
  ASSERT_GE(held, 0);
  ASSERT_EQ(::flock(held, LOCK_EX), 0);

  // The store inside this run cannot acquire the lock: it must back off
  // a bounded number of times, give up, and degrade (no stored entry) —
  // never deadlock and never corrupt anything.
  AppBundle e1 = BuildE1();
  Verdict contended = VerifyP1(e1, cache->get());
  ASSERT_NE(contended, Verdict::kUnknown);
  EXPECT_EQ((*cache)->stores(), 0) << "lock held: the store must give up";
  EXPECT_GE((*cache)->health().lock_waits, 1)
      << "bounded backoff must be counted";
  EXPECT_LE((*cache)->health().lock_waits, 4) << "and bounded";

  // Release: the next run stores and a fresh peer gets the hit.
  ASSERT_EQ(::flock(held, LOCK_UN), 0);
  ::close(held);
  EXPECT_EQ(VerifyP1(e1, cache->get()), contended);
  EXPECT_EQ((*cache)->stores(), 1);

  CacheAudit audit = AuditCacheDir(dir);
  EXPECT_TRUE(audit.consistent());
}

// --- multi-process hammer (the ISSUE-7 satellite ctest case) -----------------

struct ChildProcess {
  pid_t pid = -1;
  std::string spec;
  std::string stats_path;
};

ChildProcess SpawnVerify(const std::string& spec, const std::string& cache_dir,
                         const std::string& stats_path) {
  ChildProcess child;
  child.spec = spec;
  child.stats_path = stats_path;
  std::vector<std::string> args = {WAVE_VERIFY_BIN,
                                   spec,
                                   "--cache-dir=" + cache_dir,
                                   "--stats-json=" + stats_path,
                                   "--timeout=120",
                                   "--keep-going"};
  child.pid = ::fork();
  if (child.pid == 0) {
    std::freopen("/dev/null", "w", stdout);
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  return child;
}

/// property -> verdict from a child's stats JSON.
std::optional<std::map<std::string, std::string>> ReadVerdicts(
    const std::string& stats_path) {
  StatusOr<std::string> text = ReadFileToString(stats_path);
  if (!text.ok()) return std::nullopt;
  std::optional<obs::Json> doc = obs::Json::Parse(*text);
  if (!doc.has_value()) return std::nullopt;
  const obs::Json* runs = doc->Find("runs");
  if (runs == nullptr || !runs->is_array()) return std::nullopt;
  std::map<std::string, std::string> verdicts;
  for (const obs::Json& run : runs->items()) {
    const obs::Json* property = run.Find("property");
    const obs::Json* verdict = run.Find("verdict");
    if (property == nullptr || verdict == nullptr) return std::nullopt;
    verdicts[property->AsString()] = verdict->AsString();
  }
  return verdicts;
}

TEST(CacheConcurrencyTest, ConcurrentVerifyProcessesShareOneCacheSafely) {
  const std::string dir = FreshDir("hammer");
  const std::string scratch = FreshDir("hammer_stats");
  fs::create_directories(scratch);
  const std::vector<std::string> specs = {
      std::string(WAVE_REPO_ROOT) + "/specs/e1_shopping.spec",
      std::string(WAVE_REPO_ROOT) + "/specs/e2_motogp.spec",
      std::string(WAVE_REPO_ROOT) + "/specs/e3_airline.spec",
      std::string(WAVE_REPO_ROOT) + "/specs/e4_bookstore.spec"};

  // Six children — every spec at least once, E1/E2 doubled so two
  // processes race on identical keys — all forked before any wait, all
  // sharing one cache directory.
  std::vector<ChildProcess> children;
  for (int i = 0; i < 6; ++i) {
    children.push_back(SpawnVerify(
        specs[i % specs.size()], dir,
        scratch + "/stats_" + std::to_string(i) + ".json"));
    ASSERT_GT(children.back().pid, 0);
  }
  for (const ChildProcess& child : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(child.pid, &status, 0), child.pid);
    ASSERT_TRUE(WIFEXITED(status)) << child.spec << ": killed by signal";
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << child.spec << ": some verdict undecided or load error";
  }

  // Identical verdicts: children that verified the same spec must agree
  // property by property.
  std::map<std::string, std::map<std::string, std::string>> by_spec;
  int64_t lock_waits = 0, corrupt = 0;
  for (const ChildProcess& child : children) {
    auto verdicts = ReadVerdicts(child.stats_path);
    ASSERT_TRUE(verdicts.has_value()) << child.stats_path;
    ASSERT_FALSE(verdicts->empty());
    auto [it, inserted] = by_spec.emplace(child.spec, *verdicts);
    if (!inserted) {
      EXPECT_EQ(it->second, *verdicts)
          << child.spec << ": concurrent runs disagreed";
    }
    std::optional<obs::Json> doc =
        obs::Json::Parse(*ReadFileToString(child.stats_path));
    ASSERT_TRUE(doc.has_value());
    const obs::Json* metrics = doc->Find("metrics");
    ASSERT_NE(metrics, nullptr) << "stats JSON must carry metrics";
    if (const obs::Json* w = metrics->Find("verify.cache.lock_waits")) {
      lock_waits += w->AsInt();
    }
    if (const obs::Json* c = metrics->Find("verify.cache.corrupt")) {
      corrupt += c->AsInt();
    }
  }
  EXPECT_EQ(corrupt, 0) << "no child may ever observe a corrupt entry";
  // lock_waits is contention-dependent; it only has to be well-formed
  // (non-negative), and the deterministic CacheLockTest above proves it
  // populates under real contention.
  EXPECT_GE(lock_waits, 0);

  // The shared directory: consistent, no leftover temp files, nothing
  // quarantined, and every property of every spec published.
  CacheAudit audit = AuditCacheDir(dir);
  EXPECT_TRUE(audit.consistent())
      << (audit.problems.empty() ? "" : audit.problems[0]);
  EXPECT_EQ(audit.tmp_files, 0);
  EXPECT_EQ(audit.quarantined_files, 0);
  int64_t total_properties = 0;
  for (const auto& [spec, verdicts] : by_spec) {
    total_properties += static_cast<int64_t>(verdicts.size());
  }
  EXPECT_EQ(audit.entries, total_properties);
}

// --- crash harness smoke -----------------------------------------------------

TEST(CacheConcurrencyTest, CrashHarnessSmokeBudgetPasses) {
  const std::string work = FreshDir("crash_smoke");
  std::string cmd = std::string(WAVE_CRASH_BIN) +
                    " --kills=3 --max-rounds=60 --seed=11 --quiet" +
                    " --work-dir=" + work + " 2>/dev/null";
  int status = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "wave_crash found an inconsistency or verdict divergence; re-run "
         "without --quiet: "
      << cmd;
}

}  // namespace
}  // namespace wave
