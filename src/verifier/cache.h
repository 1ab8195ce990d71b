// Persistent cross-run result cache (ISSUE 4; on-disk format v2 and
// multi-process hardening in ISSUE 7 — see docs/ROBUSTNESS.md).
//
// A `ResultCache` is a directory of JSON records keyed by the content
// hash of (spec structure, property content, semantics-affecting
// options) produced by `ResultCacheKey`. A warm cache turns
// re-verification of an unchanged (spec, property, options) triple into
// one file read — the search is skipped entirely
// (`wave_verify --cache-dir`).
//
// What is stored: only DECIDED verdicts (kHolds / kViolated), with the
// witness binding, the counterexample pseudorun and the original run's
// stats. kUnknown is never stored — it reflects the budgets and machine of
// the run that produced it, not the problem instance.
//
// What keys the record: `heuristic1`, `heuristic2`,
// `exhaustive_existential`, `max_candidates` and `max_expansions` — the
// options that shape which verdict the engine can reach. Budgets that only
// decide *whether* the engine finishes (timeout, memory ceiling), `jobs`
// (verdicts are jobs-invariant — docs/PARALLELISM.md) and observability
// hooks are deliberately excluded: a decided verdict is sound regardless
// of them.
//
// On-disk format v2. The entry file is the index: a key's record lives at
// a name derived from the key, so nothing else has to agree with it.
//
//   <dir>/entries/<hex>.json  one self-validating entry per key: a header
//                             line "WAVECACHE2 crc32=XXXXXXXX len=N" and
//                             the payload JSON (the record below). A store
//                             writes `<hex>.json.tmp` and renames it over
//                             the entry; the rename is the publish.
//   <dir>/.lock               permanent advisory-flock fixture. Writers
//                             hold it across a store, a quarantine and
//                             healing; the kernel releases it when a
//                             process dies, so a SIGKILLed writer can never
//                             deadlock peers.
//   <dir>/quarantine/         corrupt files moved aside (never silently
//                             discarded), counted in `health().corrupt` /
//                             `.quarantined` and the `verify.cache.*`
//                             metrics.
//
// Readers take NO lock: a lookup reads the one file its key names. Absent
// is a miss. Because entries are only ever renamed into place, a file that
// fails its frame, CRC or parse check, or that holds another key's record,
// is real corruption: a miss, plus a quarantine that takes the lock and
// re-reads the file first, so a peer's fresh store is never moved aside.
//
// `Open` heals only what it recognizes by name, under the lock: stray
// `*.tmp` files (a write interrupted before its rename) are removed. A
// directory without them opens without the lock and without reading a
// file. A directory of an older layout (v1 flat `<dir>/<hex>.json`
// records, or a `MANIFEST` over `entries/<hex>.g<N>.json` generations)
// opens too, but its record files are never read, moved or counted: each
// of its keys is a miss until a store writes `entries/<hex>.json`.
// `AuditCacheDir` checks the same invariants without mutating anything —
// `tools/wave_crash` calls it after every SIGKILL.
//
// The record: the wire-schema response of api/wire.h
// (`api::ResponseToJson`) holding the verdict, witness binding,
// counterexample and scalar stats — no telemetry histograms, retry
// attempts or rung — plus "format": 2 and "key": <hex>. It is read back
// with `api::ResponseFromJson`, which also reads the records written
// before the cache used that codec (their stats carry percentile
// summaries, dropped on load; tests/golden/cache_v2/ pins them).
// Records never contain process-local `SymbolId`s — symbols cross the
// file boundary by NAME and are re-interned on load (fresh witness values
// keep their minted `$...` names). A record that fails to parse degrades
// to a MISS, never to an error: a corrupted cache costs a re-verification
// (plus a quarantine entry), nothing else.
#ifndef WAVE_VERIFIER_CACHE_H_
#define WAVE_VERIFIER_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/backoff.h"
#include "common/fingerprint.h"
#include "common/status.h"
#include "spec/web_app.h"
#include "verifier/verifier.h"

namespace wave {

/// Key of one persistent record: spec fingerprint × property content ×
/// the semantics-affecting options (see the file comment for the list).
Fingerprint ResultCacheKey(const Fingerprint& spec_fingerprint,
                           const Property& property,
                           const SymbolTable& symbols,
                           const VerifyOptions& options);

/// Tuning knobs for the multi-process machinery. The defaults suit both
/// tests and production; only the backoff seeds matter for determinism
/// (0 = derive from the pid, so real processes de-synchronize).
struct CacheOptions {
  /// Writer-lock acquisition: patient (a peer may be mid-store).
  BackoffPolicy lock_backoff{/*initial_seconds=*/0.002, /*multiplier=*/2.0,
                             /*max_delay_seconds=*/0.25, /*jitter=*/0.5,
                             /*max_attempts=*/0,
                             /*total_budget_seconds=*/5.0};
  /// Transient-I/O retry inside load/store: tight (fail fast, the cache
  /// is an optimization).
  BackoffPolicy io_retry{/*initial_seconds=*/0.001, /*multiplier=*/4.0,
                         /*max_delay_seconds=*/0.05, /*jitter=*/0.5,
                         /*max_attempts=*/3,
                         /*total_budget_seconds=*/0.5};
  uint64_t backoff_seed = 0;
};

/// The on-disk cache. Open once, share across calls. Safe for concurrent
/// *processes* on one directory (advisory flock for writers, lock-free
/// one-file readers, crash recovery on open); like the rest of the
/// verifier, one `ResultCache` object is not for concurrent threads.
class ResultCache {
 public:
  /// Opens the cache directory (creating it if needed) and removes any
  /// `*.tmp` crash debris found by name. Healing runs under the writer
  /// lock; if a peer holds it past the backoff budget, healing is skipped
  /// (the peer is alive and responsible) rather than blocking. Files of
  /// an older layout are left as they are; their keys are misses.
  static StatusOr<std::unique_ptr<ResultCache>> Open(
      const std::string& dir, const CacheOptions& options = {});

  /// Fills `response` from the record for `key` and returns true on a hit.
  /// Returns false — a miss — when the record is absent, quarantined as
  /// corrupt, of an unknown format version, or inconsistent with `spec`
  /// (needed to re-intern counterexample symbols; mutated only through its
  /// symbol table). Reads one file and takes no lock, except to
  /// quarantine a corrupt entry.
  bool Lookup(const Fingerprint& key, WebAppSpec* spec,
              VerifyResponse* response);

  /// Stores a DECIDED response under `key`: takes the writer lock and
  /// atomically replaces `entries/<hex>.json`. Undecided responses are
  /// rejected with InvalidArgument; lock/I-O trouble surfaces as
  /// kUnavailable (the caller loses a warm start, nothing else).
  Status Store(const Fingerprint& key, const WebAppSpec& spec,
               const VerifyResponse& response);

  const std::string& dir() const { return dir_; }

  // Lifetime counters (lookups resolve to exactly one of hit/miss).
  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }
  int64_t stores() const { return stores_; }

  /// Robustness counters, surfaced as `verify.cache.*` metric deltas by
  /// the verify driver and as a warning line by `wave_verify`.
  struct HealthCounters {
    int64_t corrupt = 0;      // entries that failed CRC/parse validation
    int64_t quarantined = 0;  // files moved into <dir>/quarantine/
    int64_t lock_waits = 0;   // backoff sleeps while acquiring the lock
    int64_t recovered = 0;    // healing actions taken by Open/recovery
  };
  const HealthCounters& health() const { return health_; }

 private:
  ResultCache(std::string dir, const CacheOptions& options);

  class Impl;
  friend class Impl;

  std::string dir_;
  CacheOptions options_;
  uint64_t rng_ = 0;  // seeds per-acquisition backoff jitter
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t stores_ = 0;
  HealthCounters health_;
};

/// Read-only consistency check of a cache directory — what
/// `tools/wave_crash` asserts after every SIGKILL and recovery cycle.
struct CacheAudit {
  int64_t entries = 0;            // entries/<hex>.json files
  int64_t torn_entries = 0;       // failing the frame/CRC/JSON check
  int64_t misnamed_entries = 0;   // a record, but not their name's
  int64_t tmp_files = 0;          // stray *.tmp in <dir> or entries/
  int64_t quarantined_files = 0;  // informational (not an inconsistency)
  std::vector<std::string> problems;  // human-readable, one per defect

  /// True when the directory is safe to serve reads from as-is.
  bool consistent() const { return problems.empty(); }
};
CacheAudit AuditCacheDir(const std::string& dir);

}  // namespace wave

#endif  // WAVE_VERIFIER_CACHE_H_
