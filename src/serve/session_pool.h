// LRU pool of hot per-spec verifier sessions for the daemon (ISSUE 9).
//
// Every `Verifier` owns a `VerifierSession` — the 3-layer pre-pass memo
// (ISSUE 4) — but a Verifier is NOT thread-safe, and parsing a spec per
// request would throw the memo away. The pool keeps up to `capacity`
// parsed specs hot, keyed by the content fingerprint of their source
// text: a repeat client leases the same `Verifier` and lands on the warm
// pre-pass layers (`VerifyStats::prepass_reuses` > 0 on repeats).
//
// Concurrency model: a `Lease` holds the entry's mutex for its whole
// lifetime, so requests against ONE spec serialize (the engine's own
// contract) while requests against different specs run in parallel on
// the server's executor threads. Eviction never invalidates a live
// lease — entries are shared_ptr-owned, an evicted-but-leased entry
// simply dies with its last lease.
//
// Each entry opens its own `ResultCache` handle on the pool's shared
// cache directory: the v2 on-disk format is multi-process safe, and two
// handles in one process behave exactly like two processes (separate
// flock fds, lock-free one-file reads).
#ifndef WAVE_SERVE_SESSION_POOL_H_
#define WAVE_SERVE_SESSION_POOL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/fingerprint.h"
#include "common/status.h"
#include "parser/parser.h"
#include "verifier/cache.h"
#include "verifier/verifier.h"

namespace wave::serve {

struct SessionPoolStats {
  int64_t hits = 0;       // Acquire served from a hot entry
  int64_t misses = 0;     // Acquire parsed + built a fresh entry
  int64_t evictions = 0;  // LRU entries dropped to respect capacity
};

class SessionPool {
 public:
  /// `capacity` >= 1 hot specs; `cache_dir` empty disables the shared
  /// persistent result cache.
  SessionPool(int capacity, std::string cache_dir);
  ~SessionPool();

  SessionPool(const SessionPool&) = delete;
  SessionPool& operator=(const SessionPool&) = delete;

  struct Entry;

  /// Exclusive access to one hot spec; the entry stays locked until the
  /// lease is destroyed. Movable, not copyable.
  class Lease {
   public:
    Lease() = default;
    Lease(std::shared_ptr<Entry> entry, std::unique_lock<std::mutex> lock)
        : entry_(std::move(entry)), lock_(std::move(lock)) {}

    WebAppSpec& spec();
    std::vector<Property>& properties();
    Verifier& verifier();
    /// Null when the pool has no cache directory or opening it failed
    /// (the cache is an optimization; a request must not fail over it).
    ResultCache* cache();

   private:
    std::shared_ptr<Entry> entry_;
    std::unique_lock<std::mutex> lock_;
  };

  /// Parses/builds on a miss, then locks and leases the entry. Blocks
  /// while another lease holds the same spec. InvalidArgument on a spec
  /// that fails to parse; FailedPrecondition on one that fails
  /// validation.
  StatusOr<Lease> Acquire(const std::string& spec_text);

  SessionPoolStats stats() const;

 private:
  mutable std::mutex mu_;  // guards the map, LRU clock and stats
  int capacity_;
  std::string cache_dir_;
  uint64_t use_clock_ = 0;
  std::map<Fingerprint, std::shared_ptr<Entry>> entries_;
  SessionPoolStats stats_;
};

}  // namespace wave::serve

#endif  // WAVE_SERVE_SESSION_POOL_H_
