#include "verifier/cache.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/fault.h"
#include "api/wire.h"
#include "common/io.h"
#include "obs/json.h"
#include "verifier/session.h"

namespace wave {

namespace {

namespace fs = std::filesystem;

constexpr int kFormatVersion = 2;
constexpr char kMagic[] = "WAVECACHE2";
constexpr char kManifestName[] = "MANIFEST";
constexpr char kLockName[] = ".lock";
constexpr char kEntriesDirName[] = "entries";
constexpr char kQuarantineDirName[] = "quarantine";

/// True when `doc` carries "format": `version` (records and manifest).
bool HasFormat(const obs::Json& doc, int version) {
  const obs::Json* format = doc.Find("format");
  return format != nullptr && format->AsExactInt() == version;
}

/// `stats` without its telemetry histograms: records never carried them
/// (entries written before the wire codec hold only percentile summaries,
/// which decode into bucketless histograms), and a hit reports none.
VerifyStats WithoutHistograms(VerifyStats stats) {
  for (obs::HistogramData* h :
       {&stats.frontier_size, &stats.search_depth, &stats.trie_lookup_us,
        &stats.shard_expansions, &stats.shard_alloc_bytes}) {
    *h = obs::HistogramData();
  }
  return stats;
}

/// Serializes a decided response into the (header-less) payload JSON: the
/// wire form of what a hit returns (verdict, witness binding, counterexample,
/// scalar stats; no attempts or rung) plus the cache's "format" and "key".
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
  return record.Dump(2) + "\n";
}

/// Parses a payload back into a response; false = corrupt/incompatible.
bool ParseRecordPayload(const std::string& payload, WebAppSpec* spec,
                        VerifyResponse* response) {
  std::optional<obs::Json> record = obs::Json::Parse(payload);
  if (!record.has_value() || !HasFormat(*record, kFormatVersion)) {
    return false;
  }
  StatusOr<VerifyResponse> decoded = api::ResponseFromJson(*record, spec);
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

/// Splits + validates a framed entry; false on any header/CRC mismatch.
bool UnframeEntry(const std::string& content, std::string* payload,
                  uint32_t* crc) {
  size_t nl = content.find('\n');
  if (nl == std::string::npos) return false;
  unsigned parsed_crc = 0;
  size_t parsed_len = 0;
  char magic[32] = {0};
  if (std::sscanf(content.substr(0, nl).c_str(), "%31s crc32=%x len=%zu",
                  magic, &parsed_crc, &parsed_len) != 3 ||
      std::string_view(magic) != kMagic) {
    return false;
  }
  std::string body = content.substr(nl + 1);
  if (body.size() != parsed_len) return false;
  if (Crc32(body) != parsed_crc) return false;
  *payload = std::move(body);
  *crc = parsed_crc;
  return true;
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

struct EntryRef {
  std::string file;  // name under entries/
  uint32_t crc = 0;
  int64_t gen = 0;
};

struct Manifest {
  int64_t generation = 0;
  std::map<std::string, EntryRef> entries;  // key hex -> ref
};

std::string ManifestToText(const Manifest& m) {
  obs::Json j = obs::Json::Object();
  j.Set("format", obs::Json::Int(kFormatVersion));
  j.Set("generation", obs::Json::Int(m.generation));
  obs::Json entries = obs::Json::Object();
  for (const auto& [hex, ref] : m.entries) {
    obs::Json e = obs::Json::Object();
    e.Set("file", obs::Json::Str(ref.file));
    e.Set("crc", obs::Json::Int(static_cast<int64_t>(ref.crc)));
    e.Set("gen", obs::Json::Int(ref.gen));
    entries.Set(hex, std::move(e));
  }
  j.Set("entries", std::move(entries));
  return j.Dump(2) + "\n";
}

std::optional<Manifest> ParseManifest(const std::string& text) {
  std::optional<obs::Json> parsed = obs::Json::Parse(text);
  if (!parsed.has_value() || !HasFormat(*parsed, kFormatVersion)) {
    return std::nullopt;
  }
  const obs::Json* generation = parsed->Find("generation");
  const obs::Json* entries = parsed->Find("entries");
  if (generation == nullptr || entries == nullptr || !entries->is_object()) {
    return std::nullopt;
  }
  Manifest m;
  m.generation = generation->AsInt();
  for (const auto& [hex, e] : entries->members()) {
    const obs::Json* file = e.Find("file");
    const obs::Json* crc = e.Find("crc");
    const obs::Json* gen = e.Find("gen");
    if (file == nullptr || !file->is_string() || crc == nullptr ||
        gen == nullptr) {
      return std::nullopt;
    }
    m.entries[hex] = EntryRef{file->AsString(),
                              static_cast<uint32_t>(crc->AsInt()),
                              gen->AsInt()};
  }
  return m;
}

// ---------------------------------------------------------------------------
// Filenames and paths
// ---------------------------------------------------------------------------

bool IsHex(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

std::string EntryFileName(const std::string& hex, int64_t gen) {
  return hex + ".g" + std::to_string(gen) + ".json";
}

/// Inverse of EntryFileName: "<hex>.g<gen>.json" -> (hex, gen).
bool ParseEntryFileName(const std::string& name, std::string* hex,
                        int64_t* gen) {
  size_t dot = name.find(".g");
  if (dot == std::string::npos || !name.ends_with(".json")) return false;
  *hex = name.substr(0, dot);
  if (!IsHex(*hex)) return false;
  std::string gen_str = name.substr(dot + 2, name.size() - dot - 2 - 5);
  if (gen_str.empty()) return false;
  char* end = nullptr;
  *gen = std::strtoll(gen_str.c_str(), &end, 10);
  return end != nullptr && *end == '\0' && *gen >= 0;
}

bool IsLegacyRecordName(const std::string& name) {
  // v1 flat records: "<hex>.json" with no generation infix.
  return name.ends_with(".json") && IsHex(name.substr(0, name.size() - 5));
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

  bool held() const { return held_; }

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
// ResultCache::Impl — all the path/lock/manifest plumbing, friended so the
// public class keeps a flat surface.
// ---------------------------------------------------------------------------

class ResultCache::Impl {
 public:
  static std::string ManifestPath(const ResultCache& c) {
    return c.dir_ + "/" + kManifestName;
  }
  static std::string LockPath(const ResultCache& c) {
    return c.dir_ + "/" + kLockName;
  }
  static std::string EntriesDir(const ResultCache& c) {
    return c.dir_ + "/" + kEntriesDirName;
  }
  static std::string QuarantineDir(const ResultCache& c) {
    return c.dir_ + "/" + kQuarantineDirName;
  }

  static uint64_t NextSeed(ResultCache* c) { return SplitMix64Next(&c->rng_); }

  /// AtomicWriteFile with the tight transient-I/O retry schedule.
  static Status WriteWithRetry(ResultCache* c, const std::string& path,
                               const std::string& content) {
    Backoff backoff(c->options_.io_retry, NextSeed(c));
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

  /// Moves a corrupt file into quarantine/ (never deletes it) and counts.
  /// Returns the destination, or empty when the move could not happen.
  static std::string Quarantine(ResultCache* c, const fs::path& victim) {
    ++c->health_.corrupt;
    if (fault::Action a = WAVE_FAULT("cache.quarantine.move");
        fault::IsError(a)) {
      return "";  // counted as corrupt; the file stays put this time
    }
    std::error_code ec;
    fs::create_directories(QuarantineDir(*c), ec);
    if (ec) return "";
    fs::path dest = fs::path(QuarantineDir(*c)) / victim.filename();
    for (int i = 1; fs::exists(dest, ec) && i < 100; ++i) {
      dest = fs::path(QuarantineDir(*c)) /
             (victim.filename().string() + "." + std::to_string(i));
    }
    fs::rename(victim, dest, ec);
    if (ec) return "";
    ++c->health_.quarantined;
    return dest.string();
  }

  /// Quarantines a corrupt manifested entry and (best-effort, under the
  /// writer lock) scrubs its manifest reference so peers stop chasing it.
  static void QuarantineEntry(ResultCache* c, const std::string& hex,
                              const std::string& file) {
    Quarantine(c, fs::path(EntriesDir(*c)) / file);
    LockGuard lock;
    if (!lock.Acquire(LockPath(*c), c->options_.lock_backoff, NextSeed(c),
                      &c->health_.lock_waits)
             .ok()) {
      return;  // a peer is busy; recovery on its next Open will scrub
    }
    StatusOr<std::string> text = ReadFileToString(ManifestPath(*c));
    if (!text.ok()) return;
    std::optional<Manifest> manifest = ParseManifest(*text);
    if (!manifest.has_value()) return;
    auto it = manifest->entries.find(hex);
    if (it == manifest->entries.end() || it->second.file != file) return;
    manifest->entries.erase(it);
    WriteWithRetry(c, ManifestPath(*c), ManifestToText(*manifest));
  }

  /// Validates one entry file on disk; true = framed + CRC-clean.
  static bool ValidateEntryFile(const fs::path& path, std::string* payload,
                                uint32_t* crc) {
    StatusOr<std::string> content = ReadFileToString(path.string());
    if (!content.ok()) return false;
    return UnframeEntry(*content, payload, crc);
  }

  /// Heals the directory under the (held) writer lock: removes stray
  /// temp files, rebuilds a missing/corrupt manifest from the
  /// self-validating entry files, adopts fully-written orphans, retires
  /// superseded generations and migrates legacy v1 flat records.
  static void RecoverLocked(ResultCache* c) {
    std::error_code ec;
    bool dirty = false;
    int64_t healed = 0;

    // 1. Crash debris: *.tmp anywhere in the tree is an interrupted
    // atomic write whose rename never happened — always safe to drop.
    for (const std::string& scan_dir : {c->dir_, EntriesDir(*c)}) {
      if (!fs::is_directory(scan_dir, ec)) continue;
      for (const auto& de : fs::directory_iterator(scan_dir, ec)) {
        if (de.is_regular_file(ec) &&
            de.path().filename().string().ends_with(".tmp")) {
          fs::remove(de.path(), ec);
          ++healed;
        }
      }
    }

    // 2. The manifest: absent -> start empty; corrupt -> preserve the
    // evidence in quarantine and rebuild from the entries.
    Manifest manifest;
    StatusOr<std::string> text = ReadFileToString(ManifestPath(*c));
    if (text.ok()) {
      std::optional<Manifest> parsed = ParseManifest(*text);
      if (parsed.has_value()) {
        manifest = std::move(*parsed);
      } else {
        Quarantine(c, ManifestPath(*c));
        dirty = true;
        ++healed;
      }
    }

    // 3. Legacy v1 flat records migrate into framed v2 entries.
    if (fs::is_directory(c->dir_, ec)) {
      for (const auto& de : fs::directory_iterator(c->dir_, ec)) {
        if (!de.is_regular_file(ec)) continue;
        std::string name = de.path().filename().string();
        if (!IsLegacyRecordName(name)) continue;
        std::string hex = name.substr(0, name.size() - 5);
        StatusOr<std::string> old = ReadFileToString(de.path().string());
        std::optional<obs::Json> record =
            old.ok() ? obs::Json::Parse(*old) : std::nullopt;
        if (!record.has_value() || !HasFormat(*record, 1)) {
          Quarantine(c, de.path());
          dirty = true;
          continue;
        }
        record->Set("format", obs::Json::Int(kFormatVersion));
        std::string payload = record->Dump(2) + "\n";
        int64_t gen = ++manifest.generation;
        std::string file = EntryFileName(hex, gen);
        fs::create_directories(EntriesDir(*c), ec);
        if (!WriteWithRetry(c, EntriesDir(*c) + "/" + file,
                            FrameEntry(payload))
                 .ok()) {
          --manifest.generation;
          continue;  // keep the legacy record; migrate on a later open
        }
        manifest.entries[hex] = EntryRef{file, Crc32(payload), gen};
        fs::remove(de.path(), ec);
        dirty = true;
        ++healed;
      }
    }

    // 4. Reconcile manifest against the entry files on disk.
    struct OnDisk {
      int64_t gen = 0;
      std::string file;
      uint32_t crc = 0;
      std::string key;  // payload's self-declared key
    };
    std::map<std::string, OnDisk> best;  // hex -> highest valid generation
    if (fs::is_directory(EntriesDir(*c), ec)) {
      for (const auto& de : fs::directory_iterator(EntriesDir(*c), ec)) {
        if (!de.is_regular_file(ec)) continue;
        std::string name = de.path().filename().string();
        if (name.ends_with(".tmp")) continue;  // removed above; belt+braces
        std::string hex;
        int64_t gen = 0;
        std::string payload;
        uint32_t crc = 0;
        if (!ParseEntryFileName(name, &hex, &gen) ||
            !ValidateEntryFile(de.path(), &payload, &crc)) {
          Quarantine(c, de.path());
          dirty = true;
          continue;
        }
        std::optional<obs::Json> record = obs::Json::Parse(payload);
        std::string self_key;
        if (record.has_value() && record->is_object()) {
          const obs::Json* k = record->Find("key");
          if (k != nullptr && k->is_string()) self_key = k->AsString();
        }
        if (self_key != hex) {
          // A well-formed file under the wrong name cannot be trusted as
          // a cache hit for that key.
          Quarantine(c, de.path());
          dirty = true;
          continue;
        }
        auto it = best.find(hex);
        if (it == best.end() || gen > it->second.gen) {
          if (it != best.end()) {
            // Superseded debris from an interrupted store.
            fs::remove(fs::path(EntriesDir(*c)) / it->second.file, ec);
            ++healed;
            dirty = true;
          }
          best[hex] = OnDisk{gen, name, crc, self_key};
        } else {
          fs::remove(de.path(), ec);
          ++healed;
          dirty = true;
        }
      }
    }
    // Manifest refs must point at existing valid files; on-disk files
    // newer than the ref win (a store that crashed after publish-write
    // but... the manifest rename IS publish, so a newer valid file means
    // the crash hit between entry write and manifest write — adopting it
    // is safe because entry files are complete-by-construction).
    for (auto it = manifest.entries.begin(); it != manifest.entries.end();) {
      auto disk = best.find(it->first);
      if (disk == best.end()) {
        it = manifest.entries.erase(it);
        dirty = true;
        ++healed;
        continue;
      }
      if (disk->second.gen != it->second.gen ||
          disk->second.crc != it->second.crc) {
        it->second = EntryRef{disk->second.file, disk->second.crc,
                              disk->second.gen};
        dirty = true;
        ++healed;
      }
      ++it;
    }
    for (const auto& [hex, disk] : best) {
      if (manifest.entries.count(hex) != 0) continue;
      manifest.entries[hex] = EntryRef{disk.file, disk.crc, disk.gen};
      dirty = true;
      ++healed;  // adopted orphan
    }
    for (const auto& [hex, ref] : manifest.entries) {
      manifest.generation = std::max(manifest.generation, ref.gen);
    }

    if (dirty) {
      WriteWithRetry(c, ManifestPath(*c), ManifestToText(manifest));
    }
    c->health_.recovered += healed;
  }

  /// True when the directory holds anything a recovery pass would care
  /// about (so a freshly created empty cache stays byte-empty on disk —
  /// `Open` must not invent files before the first store).
  static bool NeedsRecovery(const std::string& dir) {
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) return false;
    for (const auto& de : fs::directory_iterator(dir, ec)) {
      std::string name = de.path().filename().string();
      if (name == kLockName || name == kQuarantineDirName) continue;
      return true;
    }
    return false;
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
  if (Impl::NeedsRecovery(dir)) {
    WAVE_FAULT("cache.open.recover");  // kill-point before healing starts
    LockGuard lock;
    if (lock.Acquire(Impl::LockPath(*cache), options.lock_backoff,
                     Impl::NextSeed(cache.get()),
                     &cache->health_.lock_waits)
            .ok()) {
      Impl::RecoverLocked(cache.get());
    }
    // Lock not acquired: a live peer owns the directory; it (or the next
    // uncontended Open) heals. Reads remain safe meanwhile.
  }
  return cache;
}

bool ResultCache::Lookup(const Fingerprint& key, WebAppSpec* spec,
                         VerifyResponse* response) {
  const std::string hex = key.ToHex();
  // Two passes: an entry file vanishing between the manifest snapshot and
  // the read is a benign race with a writer retiring that generation —
  // retry once against a fresh manifest before declaring a miss.
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (fault::Action a = WAVE_FAULT("cache.lookup.manifest");
        fault::IsError(a)) {
      break;
    }
    StatusOr<std::string> text = ReadFileToString(Impl::ManifestPath(*this));
    if (!text.ok()) break;  // no manifest yet -> cold cache
    std::optional<Manifest> manifest = ParseManifest(*text);
    if (!manifest.has_value()) {
      // The manifest is renamed into place atomically, so this is real
      // corruption, not a torn read. Count it; recovery (under lock, on
      // the next Open/Store) preserves it in quarantine and rebuilds.
      ++health_.corrupt;
      break;
    }
    auto it = manifest->entries.find(hex);
    if (it == manifest->entries.end()) break;
    if (fault::Action a = WAVE_FAULT("cache.lookup.entry");
        fault::IsError(a)) {
      break;
    }
    const std::string entry_path =
        Impl::EntriesDir(*this) + "/" + it->second.file;
    StatusOr<std::string> content = ReadFileToString(entry_path);
    if (!content.ok()) {
      if (content.status().code() == StatusCode::kNotFound) continue;
      break;
    }
    std::string payload;
    uint32_t crc = 0;
    if (!UnframeEntry(*content, &payload, &crc) || crc != it->second.crc) {
      Impl::QuarantineEntry(this, hex, it->second.file);
      break;
    }
    VerifyResponse out;
    if (!ParseRecordPayload(payload, spec, &out)) {
      Impl::QuarantineEntry(this, hex, it->second.file);
      break;
    }
    *response = std::move(out);
    ++hits_;
    return true;
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

  LockGuard lock;
  WAVE_RETURN_IF_ERROR(lock.Acquire(Impl::LockPath(*this),
                                    options_.lock_backoff,
                                    Impl::NextSeed(this),
                                    &health_.lock_waits));

  if (fault::Action a = WAVE_FAULT("cache.store.entry"); fault::IsError(a)) {
    return fault::ToStatus(a, "store " + hex);
  }

  // Manifest under the lock; a corrupt one triggers full recovery here
  // (we already hold the lock recovery needs).
  Manifest manifest;
  StatusOr<std::string> text = ReadFileToString(Impl::ManifestPath(*this));
  if (text.ok()) {
    std::optional<Manifest> parsed = ParseManifest(*text);
    if (parsed.has_value()) {
      manifest = std::move(*parsed);
    } else {
      ++health_.corrupt;
      Impl::RecoverLocked(this);
      text = ReadFileToString(Impl::ManifestPath(*this));
      std::optional<Manifest> healed =
          text.ok() ? ParseManifest(*text) : std::nullopt;
      if (healed.has_value()) manifest = std::move(*healed);
    }
  }

  const int64_t gen = manifest.generation + 1;
  const std::string payload = RecordPayload(key, spec, response);
  const std::string file = EntryFileName(hex, gen);
  WAVE_RETURN_IF_ERROR(Impl::WriteWithRetry(
      this, Impl::EntriesDir(*this) + "/" + file, FrameEntry(payload)));

  // Kill-point: the new-generation entry exists but is unpublished. A
  // crash here leaves a valid orphan that recovery adopts (or a reader
  // simply never sees).
  WAVE_FAULT("cache.store.publish");

  std::string old_file;
  if (auto it = manifest.entries.find(hex); it != manifest.entries.end()) {
    old_file = it->second.file;
  }
  manifest.generation = gen;
  manifest.entries[hex] = EntryRef{file, Crc32(payload), gen};

  Status publish = Status::Ok();
  if (fault::Action a = WAVE_FAULT("cache.store.manifest");
      fault::IsError(a)) {
    publish = fault::ToStatus(a, "publish manifest for " + hex);
  } else {
    publish = Impl::WriteWithRetry(this, Impl::ManifestPath(*this),
                                   ManifestToText(manifest));
  }
  if (!publish.ok()) {
    // Unpublished new generation: remove it so the failed store leaves no
    // trace (the old generation, if any, remains the live record).
    fs::remove(fs::path(Impl::EntriesDir(*this)) / file, ec);
    return publish;
  }

  // Retire the replaced generation. Failure is harmless: it becomes
  // superseded debris the next recovery sweep removes.
  if (!old_file.empty() && old_file != file) {
    fs::remove(fs::path(Impl::EntriesDir(*this)) / old_file, ec);
  }
  ++stores_;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// AuditCacheDir — the read-only invariant check behind tools/wave_crash.
// ---------------------------------------------------------------------------

CacheAudit AuditCacheDir(const std::string& dir) {
  CacheAudit audit;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return audit;  // no cache: consistent

  const fs::path entries_dir = fs::path(dir) / kEntriesDirName;
  const fs::path quarantine_dir = fs::path(dir) / kQuarantineDirName;

  for (const auto& de : fs::directory_iterator(dir, ec)) {
    std::string name = de.path().filename().string();
    if (de.is_regular_file(ec)) {
      if (name.ends_with(".tmp")) {
        ++audit.tmp_files;
        audit.problems.push_back("stray temp file: " + name);
      } else if (IsLegacyRecordName(name)) {
        ++audit.legacy_files;  // acceptable pre-migration state
      }
    }
  }
  if (fs::is_directory(quarantine_dir, ec)) {
    for (const auto& de : fs::directory_iterator(quarantine_dir, ec)) {
      if (de.is_regular_file(ec)) ++audit.quarantined_files;
    }
  }

  Manifest manifest;
  StatusOr<std::string> text =
      ReadFileToString((fs::path(dir) / kManifestName).string());
  if (text.ok()) {
    audit.manifest_present = true;
    std::optional<Manifest> parsed = ParseManifest(*text);
    if (parsed.has_value()) {
      audit.manifest_ok = true;
      manifest = std::move(*parsed);
    } else {
      audit.problems.push_back("MANIFEST unparseable or wrong format");
    }
  }

  std::map<std::string, bool> on_disk;  // entry file name -> referenced?
  if (fs::is_directory(entries_dir, ec)) {
    for (const auto& de : fs::directory_iterator(entries_dir, ec)) {
      if (!de.is_regular_file(ec)) continue;
      std::string name = de.path().filename().string();
      if (name.ends_with(".tmp")) {
        ++audit.tmp_files;
        audit.problems.push_back("stray temp file: entries/" + name);
        continue;
      }
      on_disk[name] = false;
    }
  }

  for (const auto& [hex, ref] : manifest.entries) {
    ++audit.manifested_entries;
    auto it = on_disk.find(ref.file);
    if (it == on_disk.end()) {
      ++audit.missing_entries;
      audit.problems.push_back("manifest references missing entry " +
                               ref.file);
      continue;
    }
    it->second = true;
    StatusOr<std::string> content =
        ReadFileToString((entries_dir / ref.file).string());
    std::string payload;
    uint32_t crc = 0;
    if (!content.ok() || !UnframeEntry(*content, &payload, &crc) ||
        crc != ref.crc) {
      ++audit.torn_entries;
      audit.problems.push_back("manifested entry fails CRC/frame check: " +
                               ref.file);
    }
  }
  for (const auto& [name, referenced] : on_disk) {
    if (!referenced) ++audit.orphan_files;  // crash debris, healed by Open
  }
  if (!audit.manifest_present && !on_disk.empty()) {
    audit.orphan_files = static_cast<int64_t>(on_disk.size());
  }
  return audit;
}

}  // namespace wave
