#include "verifier/cache.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/wire.h"
#include "common/crc32.h"
#include "common/fault.h"
#include "common/io.h"
#include "obs/json.h"
#include "verifier/session.h"

namespace wave {

namespace {

namespace fs = std::filesystem;

constexpr int kFormatVersion = 2;
constexpr char kMagic[] = "WAVECACHE2";
constexpr char kLockName[] = ".lock";
constexpr char kEntriesDirName[] = "entries";
constexpr char kQuarantineDirName[] = "quarantine";

/// True when `doc` carries "format": `version`.
bool HasFormat(const obs::Json& doc, int version) {
  const obs::Json* format = doc.Find("format");
  return format != nullptr && format->AsExactInt() == version;
}

/// True when the record names `hex` as its key.
bool HasKey(const obs::Json& record, const std::string& hex) {
  const obs::Json* key = record.Find("key");
  return key != nullptr && key->is_string() && key->AsString() == hex;
}

/// `stats` without its telemetry histograms: records never carried them
/// (entries written before the wire codec hold only percentile summaries,
/// which decode into bucketless histograms), and a hit reports none.
VerifyStats WithoutHistograms(VerifyStats stats) {
  VerifyStats::ForEachField([&](const char*, auto member, StatsMerge) {
    auto& value = stats.*member;
    if constexpr (std::is_same_v<std::decay_t<decltype(value)>,
                                 obs::HistogramData>) {
      value = obs::HistogramData();
    }
  });
  return stats;
}

/// Serializes a decided response into the (header-less) payload: one line
/// of compact JSON holding the wire form of what a hit returns (verdict,
/// witness binding, counterexample, scalar stats; no attempts or rung) plus
/// the cache's "format" and "key". Readers take any JSON layout, so entries
/// written pretty-printed by older versions still hit.
std::string RecordPayload(const Fingerprint& key, const WebAppSpec& spec,
                          const VerifyResponse& response) {
  VerifyResponse kept;
  kept.verdict = response.verdict;
  kept.witness_binding = response.witness_binding;
  kept.stick = response.stick;
  kept.candy = response.candy;
  kept.stats = WithoutHistograms(response.stats);
  obs::Json record = api::ResponseToJson(kept, spec);
  record.Set("format", obs::Json::Int(kFormatVersion));
  record.Set("key", obs::Json::Str(key.ToHex()));
  std::string payload = record.Dump();
  payload.push_back('\n');
  return payload;
}

/// Decodes a record back into a response; false = incompatible.
bool DecodeRecord(const obs::Json& record, WebAppSpec* spec,
                  VerifyResponse* response) {
  if (!HasFormat(record, kFormatVersion)) return false;
  StatusOr<VerifyResponse> decoded = api::ResponseFromJson(record, spec);
  // Only decided verdicts are written, a violated one with its cycle.
  if (!decoded.ok() || decoded->verdict == Verdict::kUnknown ||
      (decoded->verdict == Verdict::kViolated && decoded->candy.empty())) {
    return false;
  }
  *response = std::move(*decoded);
  response->stats = WithoutHistograms(std::move(response->stats));
  response->stats.cache_hits = 1;
  return true;
}

// ---------------------------------------------------------------------------
// Entry framing: "WAVECACHE2 crc32=XXXXXXXX len=N\n" + payload
// ---------------------------------------------------------------------------

std::string FrameEntry(const std::string& payload) {
  char header[64];
  std::snprintf(header, sizeof(header), "%s crc32=%08x len=%zu\n", kMagic,
                Crc32(payload), payload.size());
  return std::string(header) + payload;
}

/// Splits + validates a framed entry; nullopt on any header/CRC mismatch.
/// The payload is a view into `content`.
std::optional<std::string_view> UnframeEntry(std::string_view content) {
  size_t nl = content.find('\n');
  if (nl == std::string_view::npos) return std::nullopt;
  unsigned parsed_crc = 0;
  size_t parsed_len = 0;
  char magic[32] = {0};
  if (std::sscanf(std::string(content.substr(0, nl)).c_str(),
                  "%31s crc32=%x len=%zu", magic, &parsed_crc,
                  &parsed_len) != 3 ||
      std::string_view(magic) != kMagic) {
    return std::nullopt;
  }
  std::string_view body = content.substr(nl + 1);
  if (body.size() != parsed_len || Crc32(body) != parsed_crc) {
    return std::nullopt;
  }
  return body;
}

enum class EntryCheck { kOk, kTorn, kMisnamed };

/// Checks an entry file's bytes against the key its name claims: kTorn
/// when the frame or CRC fails or the payload is not JSON, kMisnamed when
/// the record parses but is not `hex`'s. On kOk, `record` (if non-null)
/// receives the record.
EntryCheck CheckEntry(const std::string& content, const std::string& hex,
                      obs::Json* record) {
  std::optional<std::string_view> payload = UnframeEntry(content);
  if (!payload.has_value()) return EntryCheck::kTorn;
  std::optional<obs::Json> parsed = obs::Json::Parse(*payload);
  if (!parsed.has_value()) return EntryCheck::kTorn;
  if (!HasKey(*parsed, hex)) return EntryCheck::kMisnamed;
  if (record != nullptr) *record = std::move(*parsed);
  return EntryCheck::kOk;
}

// ---------------------------------------------------------------------------
// What a cache directory holds, by file name alone
// ---------------------------------------------------------------------------

bool IsHex(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

/// "<hex>.json" -> hex; empty for any other name.
std::string EntryHex(const std::string& name) {
  if (!name.ends_with(".json")) return "";
  std::string hex = name.substr(0, name.size() - 5);
  return IsHex(hex) ? hex : "";
}

/// The files of a cache directory that `Open` and the audit care about.
/// Names this writer never makes (the lock, the subdirectories, an older
/// layout's records, foreign files) are left out.
struct Listing {
  std::vector<fs::path> entries;  // entries/<hex>.json
  std::vector<fs::path> tmp;      // *.tmp in <dir> or entries/
};

Listing ListCacheDir(const std::string& dir) {
  Listing found;
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(dir, ec)) {
    if (de.is_regular_file(ec) &&
        de.path().filename().string().ends_with(".tmp")) {
      found.tmp.push_back(de.path());
    }
  }
  for (const auto& de :
       fs::directory_iterator(fs::path(dir) / kEntriesDirName, ec)) {
    if (!de.is_regular_file(ec)) continue;
    const std::string name = de.path().filename().string();
    if (name.ends_with(".tmp")) {
      found.tmp.push_back(de.path());
    } else if (!EntryHex(name).empty()) {
      found.entries.push_back(de.path());
    }
  }
  return found;
}

uint64_t DefaultSeed() {
  return static_cast<uint64_t>(::getpid()) * 0x9e3779b97f4a7c15ull + 1;
}

uint64_t SplitMix64Next(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void SleepSeconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

// ---------------------------------------------------------------------------
// The writer lock: a permanent flock fixture. Advisory — every WAVE
// process cooperates; a SIGKILLed holder is released by the kernel.
// ---------------------------------------------------------------------------

class LockGuard {
 public:
  LockGuard() = default;
  ~LockGuard() { Release(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

  Status Acquire(const std::string& lock_path, const BackoffPolicy& policy,
                 uint64_t seed, int64_t* lock_waits) {
    if (fault::Action a = WAVE_FAULT("cache.lock.acquire");
        fault::IsError(a)) {
      return fault::ToStatus(a, "flock '" + lock_path + "'");
    }
    fd_ = ::open(lock_path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd_ < 0) {
      return Status::Unavailable("cannot open lock file '" + lock_path + "'",
                                 WAVE_LOC);
    }
    Backoff backoff(policy, seed);
    while (::flock(fd_, LOCK_EX | LOCK_NB) != 0) {
      std::optional<double> delay = backoff.NextDelaySeconds();
      if (!delay.has_value()) {
        Release();
        return Status::Unavailable(
            "cache writer lock '" + lock_path + "' still held after " +
                std::to_string(backoff.attempts()) + " attempts",
            WAVE_LOC);
      }
      if (lock_waits != nullptr) ++*lock_waits;
      SleepSeconds(*delay);
    }
    held_ = true;
    return Status::Ok();
  }

  void Release() {
    if (fd_ >= 0) {
      if (held_) ::flock(fd_, LOCK_UN);
      ::close(fd_);
    }
    fd_ = -1;
    held_ = false;
  }

 private:
  int fd_ = -1;
  bool held_ = false;
};

}  // namespace

Fingerprint ResultCacheKey(const Fingerprint& spec_fingerprint,
                           const Property& property,
                           const SymbolTable& symbols,
                           const VerifyOptions& options) {
  FingerprintBuilder fp;
  fp.AddTag("result_v1");
  fp.AddInt(static_cast<int64_t>(spec_fingerprint.hi));
  fp.AddInt(static_cast<int64_t>(spec_fingerprint.lo));
  Fingerprint prop = FingerprintProperty(property, symbols);
  fp.AddInt(static_cast<int64_t>(prop.hi));
  fp.AddInt(static_cast<int64_t>(prop.lo));
  fp.AddTag("options");
  fp.AddBool(options.heuristic1);
  fp.AddBool(options.heuristic2);
  fp.AddBool(options.exhaustive_existential);
  fp.AddInt(options.max_candidates);
  fp.AddInt(options.max_expansions);
  return fp.Finish();
}

// ---------------------------------------------------------------------------
// ResultCache::Impl — the path/lock/healing plumbing, friended so the
// public class keeps a flat surface.
// ---------------------------------------------------------------------------

class ResultCache::Impl {
 public:
  static std::string EntryPath(const ResultCache& c, const std::string& hex) {
    return EntriesDir(c) + "/" + hex + ".json";
  }
  static std::string EntriesDir(const ResultCache& c) {
    return c.dir_ + "/" + kEntriesDirName;
  }

  static Status AcquireLock(ResultCache* c, LockGuard* lock) {
    return lock->Acquire(c->dir_ + "/" + kLockName, c->options_.lock_backoff,
                         SplitMix64Next(&c->rng_), &c->health_.lock_waits);
  }

  /// AtomicWriteFile with the tight transient-I/O retry schedule.
  static Status WriteWithRetry(ResultCache* c, const std::string& path,
                               const std::string& content) {
    Backoff backoff(c->options_.io_retry, SplitMix64Next(&c->rng_));
    while (true) {
      Status status = AtomicWriteFile(path, content);
      if (status.ok() || status.code() != StatusCode::kUnavailable) {
        return status;
      }
      std::optional<double> delay = backoff.NextDelaySeconds();
      if (!delay.has_value()) return status;
      SleepSeconds(*delay);
    }
  }

  /// Moves a corrupt file into quarantine/ (never deletes it); the file
  /// stays put when the move fails. Callers count the corruption.
  static void Quarantine(ResultCache* c, const fs::path& victim) {
    if (fault::Action a = WAVE_FAULT("cache.quarantine.move");
        fault::IsError(a)) {
      return;
    }
    const fs::path dir = fs::path(c->dir_) / kQuarantineDirName;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) return;
    fs::path dest = dir / victim.filename();
    for (int i = 1; fs::exists(dest, ec) && i < 100; ++i) {
      dest = dir / (victim.filename().string() + "." + std::to_string(i));
    }
    fs::rename(victim, dest, ec);
    if (!ec) ++c->health_.quarantined;
  }

  /// Quarantines `hex`'s entry if it still holds the bytes a reader
  /// rejected. The re-read happens under the writer lock, so a store that
  /// replaced the file in the meantime is never moved aside.
  static void QuarantineEntry(ResultCache* c, const std::string& hex,
                              const std::string& rejected) {
    LockGuard lock;
    if (!AcquireLock(c, &lock).ok()) return;  // the next reader retries
    const std::string path = EntryPath(*c, hex);
    StatusOr<std::string> current = ReadFileToString(path);
    if (current.ok() && *current == rejected) Quarantine(c, path);
  }

  /// Removes `*.tmp` debris under the (held) writer lock: an atomic write
  /// whose rename never happened. Writers create these only while holding
  /// the lock we hold, so none is live.
  static void HealLocked(ResultCache* c) {
    std::error_code ec;
    for (const fs::path& tmp : ListCacheDir(c->dir_).tmp) {
      if (fs::remove(tmp, ec)) ++c->health_.recovered;
    }
  }
};

ResultCache::ResultCache(std::string dir, const CacheOptions& options)
    : dir_(std::move(dir)), options_(options) {
  rng_ = options_.backoff_seed != 0 ? options_.backoff_seed : DefaultSeed();
}

StatusOr<std::unique_ptr<ResultCache>> ResultCache::Open(
    const std::string& dir, const CacheOptions& options) {
  if (dir.empty()) {
    return Status::InvalidArgument("cache directory path is empty", WAVE_LOC);
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Unavailable(
        "cannot create cache directory '" + dir + "': " + ec.message(),
        WAVE_LOC);
  }
  std::unique_ptr<ResultCache> cache(new ResultCache(dir, options));
  WAVE_FAULT("cache.open.recover");  // kill-point before the directory scan
  if (!ListCacheDir(dir).tmp.empty()) {
    // Under the lock, because a `*.tmp` may belong to a live writer; the
    // heal lists again once no writer can be mid-store. Lock not acquired:
    // a live peer owns the directory and the next Open heals. Reads remain
    // safe meanwhile.
    LockGuard lock;
    if (Impl::AcquireLock(cache.get(), &lock).ok()) {
      Impl::HealLocked(cache.get());
    }
  }
  return cache;
}

bool ResultCache::Lookup(const Fingerprint& key, WebAppSpec* spec,
                         VerifyResponse* response) {
  const std::string hex = key.ToHex();
  if (fault::Action a = WAVE_FAULT("cache.lookup.entry");
      !fault::IsError(a)) {
    // Absent (kNotFound) or unreadable: a miss. Entries are published by
    // rename, so bytes that fail the checks are corrupt, not half-written.
    StatusOr<std::string> content =
        ReadFileToString(Impl::EntryPath(*this, hex));
    if (content.ok()) {
      obs::Json record;
      VerifyResponse out;
      if (CheckEntry(*content, hex, &record) == EntryCheck::kOk &&
          DecodeRecord(record, spec, &out)) {
        *response = std::move(out);
        ++hits_;
        return true;
      }
      ++health_.corrupt;
      Impl::QuarantineEntry(this, hex, *content);
    }
  }
  ++misses_;
  return false;
}

Status ResultCache::Store(const Fingerprint& key, const WebAppSpec& spec,
                          const VerifyResponse& response) {
  if (response.verdict == Verdict::kUnknown) {
    return Status::InvalidArgument(
        "only decided verdicts are cached (kUnknown reflects budgets, not "
        "the problem instance)",
        WAVE_LOC);
  }
  const std::string hex = key.ToHex();
  std::error_code ec;
  fs::create_directories(Impl::EntriesDir(*this), ec);
  if (ec) {
    return Status::Unavailable(
        "cannot create '" + Impl::EntriesDir(*this) + "': " + ec.message(),
        WAVE_LOC);
  }

  // The lock serializes writers, whose temp file `<entry>.tmp` has a fixed
  // name, and keeps `Open` from sweeping that file mid-write.
  LockGuard lock;
  WAVE_RETURN_IF_ERROR(Impl::AcquireLock(this, &lock));
  if (fault::Action a = WAVE_FAULT("cache.store.entry"); fault::IsError(a)) {
    return fault::ToStatus(a, "store " + hex);
  }
  // AtomicWriteFile's rename is the publish: a reader sees the previous
  // record or this one, whole.
  WAVE_RETURN_IF_ERROR(
      Impl::WriteWithRetry(this, Impl::EntryPath(*this, hex),
                           FrameEntry(RecordPayload(key, spec, response))));
  ++stores_;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// AuditCacheDir — the read-only invariant check behind tools/wave_crash.
// ---------------------------------------------------------------------------

CacheAudit AuditCacheDir(const std::string& dir) {
  CacheAudit audit;
  const Listing found = ListCacheDir(dir);
  for (const fs::path& tmp : found.tmp) {
    ++audit.tmp_files;
    audit.problems.push_back("stray temp file: " +
                             tmp.lexically_relative(dir).string());
  }
  std::error_code ec;
  for (const auto& de :
       fs::directory_iterator(fs::path(dir) / kQuarantineDirName, ec)) {
    if (de.is_regular_file(ec)) ++audit.quarantined_files;
  }
  for (const fs::path& path : found.entries) {
    ++audit.entries;
    const std::string name = path.filename().string();
    StatusOr<std::string> content = ReadFileToString(path.string());
    EntryCheck check = content.ok()
                           ? CheckEntry(*content, EntryHex(name), nullptr)
                           : EntryCheck::kTorn;
    if (check == EntryCheck::kTorn) {
      ++audit.torn_entries;
      audit.problems.push_back("entry fails its frame/CRC/JSON check: " +
                               name);
    } else if (check == EntryCheck::kMisnamed) {
      ++audit.misnamed_entries;
      audit.problems.push_back("entry holds another key's record: " + name);
    }
  }
  return audit;
}

}  // namespace wave
