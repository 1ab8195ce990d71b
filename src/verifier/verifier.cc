#include "verifier/verifier.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bitset.h"
#include "common/check.h"
#include "common/fault.h"
#include "common/stopwatch.h"
#include "obs/alloc.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "verifier/cache.h"
#include "verifier/config_store.h"
#include "verifier/session.h"
#include "verifier/shard.h"
#include "verifier/worker_pool.h"

namespace wave {

namespace {

enum class SearchStatus { kContinue, kFound, kAbort };

/// Why a runner's shard returned kAbort: a shard-local candidate overflow
/// (recorded, siblings continue), a lost claim race on a property another
/// worker already decided (that job's remaining shards are skipped, the
/// rest of the batch continues), or a global stop (ledger trip / every
/// property decided — the runner drains no further shards).
enum class AbortKind { kNone, kLocal, kJobSettled, kGlobal };

GovernorLimits GovernorLimitsFromOptions(const VerifyOptions& options) {
  GovernorLimits limits;
  limits.deadline_seconds = options.timeout_seconds;
  limits.max_expansions = options.max_expansions;
  limits.max_memory_bytes = options.max_memory_bytes;
  limits.cancellation = options.cancellation;
  return limits;
}

/// One worker's running search counters across its whole drain, each
/// written once, as its event happens. The expansion budget, the heartbeats
/// and the per-call metrics read them; each shard's share goes into its
/// property's `VerifyStats` when the shard ends.
struct SearchCounters {
  int64_t cores = 0;
  int64_t expansions = 0;
  int64_t successors = 0;
  int max_trie_size = 0;  // the largest store of a finished shard
  // How `succP` requests were served: from a configuration's own successor
  // list, or through its skeleton's, found or newly enumerated.
  int64_t replays = 0;
  int64_t skeleton_hits = 0;
  int64_t skeleton_misses = 0;
  // The prepared calls the search made, the rule bodies they ran and the
  // head tuples those derived.
  int64_t compute_options_calls = 0;
  int64_t apply_input_calls = 0;
  int64_t advance_calls = 0;
  int64_t rule_evaluations = 0;
  int64_t derived_tuples = 0;
};

/// Heartbeat counters a worker publishes for the coordinator's aggregated
/// progress snapshots (jobs > 1 only; all relaxed — monitoring data).
struct WorkerProgress {
  std::atomic<int64_t> expansions{0};
  std::atomic<int64_t> successors{0};
  std::atomic<int64_t> cores{0};
  std::atomic<int> trie_size{0};
  std::atomic<int> max_trie{0};
};

/// State shared by every worker searching ONE property of the attempt,
/// guarded by one mutex: the first-counterexample claim (plus the
/// serialized candidate_filter) and the minimum-(assignment, core)
/// shard-local unknown.
struct EngineShared {
  std::mutex mu;

  bool winner_claimed = false;
  std::vector<CounterexampleStep> stick;
  std::vector<CounterexampleStep> candy;
  std::map<std::string, SymbolId> witness_binding;

  int64_t rejected = 0;    // counterexamples discarded by candidate_filter
  double validate_us = 0;  // wall time inside candidate_filter

  bool has_local_unknown = false;
  int local_assignment = 0;
  int64_t local_core = 0;
  UnknownReason local_reason = UnknownReason::kNone;
  std::string local_message;

  /// Keeps the lexicographically smallest (assignment, core) unknown —
  /// the one the sequential search would have hit (and stopped at) first.
  void RecordLocalUnknown(int assignment, int64_t core,
                          UnknownReason reason, std::string message) {
    std::lock_guard<std::mutex> lock(mu);
    if (has_local_unknown &&
        std::pair<int, int64_t>(local_assignment, local_core) <=
            std::pair<int, int64_t>(assignment, core)) {
      return;
    }
    has_local_unknown = true;
    local_assignment = assignment;
    local_core = core;
    local_reason = reason;
    local_message = std::move(message);
  }
};

/// One entry of the fused batch shard stream: the shard queue addresses
/// assignments by GLOBAL slot index, and the slot says which property
/// ("job") the assignment belongs to and which plan/context to search
/// under. For a single-property run there is one job and the slot index
/// equals the assignment index — byte-for-byte the PR-3 engine.
struct BatchSlot {
  int job = 0;
  const PropertyPlan* plan = nullptr;
  const AssignmentContext* ctx = nullptr;
};

/// Cross-property shared state of one batch attempt: one EngineShared per
/// job, a settled flag per job (set when its counterexample is claimed, so
/// workers skip the job's remaining shards without taking its mutex), and
/// the count of jobs still worth searching — when it hits zero the whole
/// pool stops, even though no global budget tripped.
struct BatchShared {
  explicit BatchShared(int num_jobs)
      : settled(new std::atomic<bool>[num_jobs]) {
    for (int j = 0; j < num_jobs; ++j) {
      jobs.push_back(std::make_unique<EngineShared>());
      settled[j].store(false, std::memory_order_relaxed);
    }
  }

  std::vector<std::unique_ptr<EngineShared>> jobs;
  std::unique_ptr<std::atomic<bool>[]> settled;
  std::atomic<int> unsettled{0};
};

/// Fires one progress heartbeat: `snapshot` to the caller's callback and
/// its counters as trace counter tracks.
void EmitHeartbeat(const VerifyOptions& options, obs::Tracer* tracer,
                   const HeartbeatSnapshot& snapshot) {
  if (options.heartbeat != nullptr) options.heartbeat(snapshot);
  if (tracer != nullptr) {
    tracer->Counter("expansions", static_cast<double>(snapshot.num_expansions));
    tracer->Counter("successors", static_cast<double>(snapshot.num_successors));
    tracer->Counter("trie_size", static_cast<double>(snapshot.trie_size));
    tracer->Counter("cores", static_cast<double>(snapshot.num_cores));
  }
}

/// One worker's NDFS machinery: its own configuration store, search stacks,
/// governor front end and counters. Pops shards off the queue until it runs
/// dry or a stop fans out. Reads the plans/contexts and the shared compiled
/// spec only; everything it writes is thread-local except the mutex-guarded
/// EngineShared claims. `counters_` runs across the whole drain (the
/// governor's expansion watch target); `job_stats_[j]` takes property j's
/// share of the counts as each of its shards ends, for the per-property
/// merge.
class ShardRunner {
 public:
  ShardRunner(const std::vector<BatchSlot>* slots, int num_jobs,
              const PreparedSpec* prepared, const VerifyOptions* options,
              BatchShared* batch, BudgetLedger* ledger, int worker,
              obs::Tracer* tracer, bool heartbeat_enabled,
              WorkerProgress* progress, bool telemetry)
      : slots_(slots),
        prepared_(prepared),
        options_(options),
        batch_(batch),
        ledger_(ledger),
        worker_(worker),
        tracer_(tracer),
        heartbeat_enabled_(heartbeat_enabled),
        progress_(progress),
        telemetry_(telemetry),
        gov_(ledger, worker),
        job_stats_(num_jobs) {
    gov_.WatchExpansions(&counters_.expansions);
    assignment_us_.assign(slots->size(), 0.0);
  }

  void Drain(ShardQueue* queue) {
    // Route the search structures' counting-allocator reports (visited-set
    // keys and slots, key-scratch growth, stack frames) to this worker while
    // telemetry is on; with telemetry off no sink is installed and every
    // CountAlloc site is a predicted-not-taken branch.
    std::optional<obs::ScopedAllocTracking> alloc_scope;
    if (telemetry_) alloc_scope.emplace(&alloc_);
    Shard shard;
    while (!ledger_->stop_requested() && queue->Pop(worker_, &shard)) {
      Stopwatch shard_watch;
      SearchStatus status = RunShard(shard);
      assignment_us_[shard.assignment] += shard_watch.ElapsedMicros();
      if (status == SearchStatus::kFound) {
        // This property is decided, but siblings in the batch may not be:
        // keep draining (their shards are skipped cheaply if settled).
        continue;
      }
      if (status == SearchStatus::kAbort) {
        if (abort_kind_ == AbortKind::kLocal) {
          shared_->RecordLocalUnknown(ctx_->index, shard.core,
                                      local_reason_,
                                      std::move(local_message_));
          abort_kind_ = AbortKind::kNone;
          continue;  // siblings are still worth searching
        }
        if (abort_kind_ == AbortKind::kJobSettled) {
          abort_kind_ = AbortKind::kNone;
          continue;  // lost the claim race on an already-decided property
        }
        break;  // global trip or stop fan-out
      }
    }
    // Publish the tail deltas (no limit check: a deadline that lapses
    // after the last shard finished must not flip a completed search).
    gov_.Flush();
  }

  const SearchCounters& counters() const { return counters_; }
  const std::vector<VerifyStats>& job_stats() const { return job_stats_; }
  const std::vector<double>& assignment_us() const { return assignment_us_; }
  int64_t heartbeats() const { return heartbeats_; }

 private:
  /// One frame of the NDFS stacks: an automaton state and a configuration,
  /// plus how far the frame's expansion has got, so the search runs as a
  /// loop over explicit frames instead of recursing once per pseudorun step
  /// (a chain of tens of thousands of configurations would overflow the
  /// thread's stack).
  struct Frame {
    int state = 0;
    ConfigId id = 0;
    int depth = 0;
    /// The transition of `adj[state]` being followed; -1 before the first.
    int transition = -1;
    int to = 0;  // its target state
    /// Its successors not yet delivered: `successor(i)`, i in [next, end).
    uint32_t next = 0;
    uint32_t end = 0;
    /// Stick frames only: set while the Stick descent into the last
    /// delivered successor runs, so that successor's accepting check runs
    /// once the descent returns.
    bool accepting_check = false;
  };

  static constexpr ConfigId kNoConfig = UINT32_MAX;

  SearchStatus RunShard(const Shard& shard) {
    const BatchSlot& slot = (*slots_)[shard.assignment];
    job_ = slot.job;
    if (batch_->settled[job_].load(std::memory_order_acquire)) {
      // The property already has its counterexample; skipped shards count
      // toward no stats (they were never searched).
      return SearchStatus::kContinue;
    }
    plan_ = slot.plan;
    ctx_ = slot.ctx;
    spec_ = plan_->spec;
    shared_ = batch_->jobs[job_].get();
    job_cur_ = &job_stats_[job_];
    const SearchCounters before = counters_;
    const obs::AllocStats alloc_before = alloc_;

    obs::ScopedSpan span(tracer_, "core");
    ++counters_.cores;
    store_.Reset(&spec_->catalog(), plan_->automaton.NumStates(),
                 static_cast<int>(ctx_->components.size()),
                 &ctx_->in_universe);
    here_id_ = kNoConfig;
    ext_bits_.resize(ctx_->ext_table.size());
    ext_built_.assign(ctx_->ext_table.size(), false);
    page_base_.resize(spec_->num_pages());
    page_base_built_.assign(spec_->num_pages(), false);
    stick_stack_.clear();
    candy_stack_.clear();
    stack_bytes_ = 0;

    // Start pseudoconfigurations: home page, database = core ∪ extension.
    core_.clear();
    const auto& tuples = ctx_->core_candidates->tuples;
    for (size_t b = 0; b < tuples.size(); ++b) {
      if ((shard.core >> b) & 1) {
        SetBit(&core_, store_.tuples().Intern(tuples[b].first,
                                              tuples[b].second.data()));
      }
    }
    skeleton_.page = spec_->home_page();
    skeleton_.data = core_;
    skeleton_.previous.clear();
    starts_.clear();
    SearchStatus status = InternCompletions(/*prev_page=*/-1, &starts_);
    for (size_t i = 0; i < starts_.size() && status == SearchStatus::kContinue;
         ++i) {
      ++counters_.successors;
      status = Search(plan_->automaton.start, starts_[i]);
    }
    counters_.max_trie_size = std::max(counters_.max_trie_size, store_.size());

    // The shard's share of the running counters goes to its property.
    VerifyStats& job = *job_cur_;
    const int64_t expansions = counters_.expansions - before.expansions;
    job.num_cores += counters_.cores - before.cores;
    job.num_expansions += expansions;
    job.num_successors += counters_.successors - before.successors;
    job.max_trie_size = std::max(job.max_trie_size, store_.size());
    job.trie_hits += store_.stats().hits;
    job.trie_misses += store_.stats().misses;
    if (telemetry_) {
      // Per-shard search telemetry: expansion count and tracked allocation
      // bytes.
      job.shard_expansions.Record(static_cast<double>(expansions));
      job.shard_alloc_bytes.Record(
          static_cast<double>(alloc_.bytes - alloc_before.bytes));
      job.alloc_bytes += alloc_.bytes - alloc_before.bytes;
      job.alloc_count += alloc_.count - alloc_before.count;
    }
    return status;
  }

  /// Interns a configuration with sampled latency: every 64th intern is
  /// timed (telemetry on only), so `trie_lookup_us` reflects building the
  /// canonical word key plus the table probe without a clock read per
  /// successor.
  ConfigId TimedIntern(const ConfigWords& config) {
    if (telemetry_ && (++lookup_tick_ & 63) == 0) {
      Stopwatch watch;
      ConfigId id = store_.Intern(config);
      job_cur_->trie_lookup_us.Record(watch.ElapsedMicros());
      return id;
    }
    return store_.Intern(config);
  }

  /// Counts the rule bodies a prepared call ran (one group each) and the
  /// head tuples they derived.
  void CountDerived(const DerivedTuples& derived) {
    counters_.rule_evaluations += derived.num_groups();
    for (int g = 0; g < derived.num_groups(); ++g) {
      counters_.derived_tuples += static_cast<int64_t>(derived.size(g));
    }
  }

  /// Enumerates the extensions and input choices completing `skeleton_`
  /// (whose page/state/previous are set and whose database holds exactly
  /// the core) and appends each completed configuration's id to `*ids`, in
  /// enumeration order: extension subsets as a binary counter over the
  /// candidates, and per subset the input choices as an odometer over each
  /// input's alternatives (0 = no choice), the last input fastest. Runs no
  /// search, so enumerations never nest; a budget tripped partway aborts
  /// with `*ids` incomplete.
  SearchStatus InternCompletions(int prev_page, std::vector<ConfigId>* ids) {
    const int page = skeleton_.page;
    const CandidateSet* ext = ctx_->extension(page, prev_page);
    WAVE_CHECK_MSG(ext != nullptr, "unwarmed extension pair (page "
                                       << page << ", prev " << prev_page
                                       << ")");
    if (ext->overflow) {
      local_message_ = "extension candidate overflow at page " +
                       spec_->page(page).name + " (" +
                       std::to_string(ext->approx_tuple_count) +
                       " candidate tuples); Heuristic 2 " +
                       (options_->heuristic2 ? "insufficient" : "disabled");
      local_reason_ = UnknownReason::kCandidateBudget;
      abort_kind_ = AbortKind::kLocal;
      return SearchStatus::kAbort;
    }
    TupleTable& tuples = store_.tuples();
    const std::vector<TupleId>& ext_bits =
        ExtensionBits(page, prev_page, *ext);
    complete_.page = page;
    complete_.previous = skeleton_.previous;
    DynamicBitset subset(static_cast<int>(ext_bits.size()));
    do {
      ext_data_ = skeleton_.data;
      for (int b = 0; b < subset.size(); ++b) {
        if (subset.Test(b)) SetBit(&ext_data_, ext_bits[b]);
      }
      complete_.data = ext_data_;
      WindowDomain(complete_, &domain_);
      InputAlternatives(page);
      choice_.assign(alternatives_.size(), 0);
      for (;;) {
        // The completion: the chosen input tuples, then the actions
        // derived over them, kept only over C (an AND with the table's
        // "all values in C" bits).
        complete_.data = ext_data_;
        for (size_t i = 0; i < choice_.size(); ++i) {
          if (choice_[i] > 0) {
            SetBit(&complete_.data, alternatives_[i][choice_[i] - 1]);
          }
        }
        prepared_->DeriveActions(WordsView(&tuples, &complete_), domain_,
                                 &action_tuples_);
        ++counters_.apply_input_calls;
        CountDerived(action_tuples_);
        for (int g = 0; g < action_tuples_.num_groups(); ++g) {
          for (size_t k = 0; k < action_tuples_.size(g); ++k) {
            const TupleId t = tuples.Intern(action_tuples_.relation(g),
                                            action_tuples_.tuple(g, k));
            if (TestBit(tuples.in_universe(), t)) {
              SetBit(&complete_.data, t);
            }
          }
        }
        ids->push_back(TimedIntern(complete_));
        if (SearchStatus status = CheckCompletionBudgets(*ids);
            status != SearchStatus::kContinue) {
          return status;
        }
        int i = static_cast<int>(choice_.size()) - 1;
        while (i >= 0 && ++choice_[i] > alternatives_[i].size()) {
          choice_[i--] = 0;
        }
        if (i < 0) break;
      }
    } while (subset.Increment());
    return SearchStatus::kContinue;
  }

  /// The extension candidates of (`page`, `prev_page`) as tuple ids, in
  /// candidate order, interned on the pair's first use in the shard.
  const std::vector<TupleId>& ExtensionBits(int page, int prev_page,
                                            const CandidateSet& ext) {
    const size_t slot =
        static_cast<size_t>(page) * ctx_->ext_stride + (prev_page + 1);
    std::vector<TupleId>& bits = ext_bits_[slot];
    if (!ext_built_[slot]) {
      bits.clear();
      for (const auto& [relation, tuple] : ext.tuples) {
        bits.push_back(store_.tuples().Intern(relation, tuple.data()));
      }
      ext_built_[slot] = true;
    }
    return bits;
  }

  /// Fills `alternatives_[i]` with the tuples input `i` of `page` may take
  /// in `complete_` (besides "no choice"): none for an input nothing reads,
  /// for an input constant a fresh page value or a constant it is compared
  /// to, otherwise the options the page's rules generate, in order.
  void InputAlternatives(int page) {
    const PageSchema& schema = spec_->page(page);
    const PageDomain& pd = *plan_->page_domain_table[page];
    TupleTable& tuples = store_.tuples();
    alternatives_.resize(schema.inputs.size());
    bool options_computed = false;
    for (size_t i = 0; i < schema.inputs.size(); ++i) {
      const RelationId input = schema.inputs[i];
      std::vector<TupleId>& alternatives = alternatives_[i];
      alternatives.clear();
      if (!plan_->relevant[input]) continue;  // the choice cannot matter
      if (spec_->catalog().schema(input).kind ==
          RelationKind::kInputConstant) {
        const SymbolId fresh =
            pd.input_values[plan_->facts->InputSlot({input, 0})];
        if (fresh != kInvalidSymbol) {
          alternatives.push_back(tuples.Intern(input, &fresh));
        }
        for (SymbolId c : ctx_->analysis->constants({input, 0})) {
          if (ctx_->InUniverse(c)) {
            alternatives.push_back(tuples.Intern(input, &c));
          }
        }
        continue;
      }
      if (!options_computed) {
        prepared_->ComputeOptions(WordsView(&tuples, &complete_), domain_,
                                  &option_tuples_);
        ++counters_.compute_options_calls;
        CountDerived(option_tuples_);
        options_computed = true;
      }
      // The last rule for `input` decides, as in `InputOptions`.
      for (int g = option_tuples_.num_groups() - 1; g >= 0; --g) {
        if (option_tuples_.relation(g) != input) continue;
        for (size_t k = 0; k < option_tuples_.size(g); ++k) {
          alternatives.push_back(
              tuples.Intern(input, option_tuples_.tuple(g, k)));
        }
        break;
      }
    }
  }

  /// Loads configuration `id` into `here_`, with its window domain, unless
  /// it is there already: the components and the skeleton of an expansion
  /// share one load.
  void Expand(ConfigId id) {
    if (here_id_ == id) return;
    store_.Load(id, &here_);
    WindowDomain(here_, &here_domain_);
    here_id_ = id;
  }

  /// Writes into `skeleton_` the configuration `here_` advances to before
  /// succP re-chooses the extension and input: page, state and previous
  /// inputs recomputed, states kept only over C (other tuples cannot
  /// affect the input-bounded property or rules), irrelevant relations
  /// pruned, and the database reset to the core (the previous extension
  /// is discarded).
  void Skeleton() {
    TupleTable& tuples = store_.tuples();
    skeleton_.page = prepared_->Advance(WordsView(&tuples, &here_),
                                        here_domain_, &inserts_, &deletes_);
    ++counters_.advance_calls;
    CountDerived(inserts_);
    CountDerived(deletes_);
    // The state update; an insert that is also deleted is a no-op.
    inserted_.clear();
    deleted_.clear();
    for (int g = 0; g < inserts_.num_groups(); ++g) {
      for (size_t k = 0; k < inserts_.size(g); ++k) {
        SetBit(&inserted_,
               tuples.Intern(inserts_.relation(g), inserts_.tuple(g, k)));
      }
    }
    for (int g = 0; g < deletes_.num_groups(); ++g) {
      for (size_t k = 0; k < deletes_.size(g); ++k) {
        const TupleId t =
            tuples.Find(deletes_.relation(g), deletes_.tuple(g, k));
        if (t != kNoTuple) SetBit(&deleted_, t);
      }
    }
    const size_t width = std::max({here_.data.size(), inserted_.size(),
                                   deleted_.size(), core_.size()});
    inserted_.resize(width, 0);
    deleted_.resize(width, 0);
    Words& data = skeleton_.data;
    Words& previous = skeleton_.previous;
    data = here_.data;
    data.resize(width, 0);
    previous.assign(width, 0);
    const Words& input = tuples.kind_mask(RelationKind::kInput);
    const Words& input_constant =
        tuples.kind_mask(RelationKind::kInputConstant);
    const Words& action = tuples.kind_mask(RelationKind::kAction);
    const Words& state = tuples.kind_mask(RelationKind::kState);
    const Words& database = tuples.kind_mask(RelationKind::kDatabase);
    const Words& in_universe = tuples.in_universe();
    auto at = [](const Words& words, size_t w) {
      return w < words.size() ? words[w] : 0;
    };
    for (size_t w = 0; w < width; ++w) {
      const uint64_t inputs = at(input, w) | at(input_constant, w);
      uint64_t word = data[w];
      word = (word & ~(deleted_[w] & ~inserted_[w])) |
             (inserted_[w] & ~deleted_[w]);
      // The previous inputs are the current ones; the current inputs and
      // actions belong to the new step.
      previous[w] = word & inputs;
      word &= ~(inputs | at(action, w));
      word &= ~(at(state, w) & ~at(in_universe, w));
      data[w] = (word & ~at(database, w)) | at(core_, w);
    }
    PruneIrrelevant(&skeleton_);
  }

  /// Clears irrelevant state/action tuples and previous inputs the current
  /// page (and property) cannot read.
  void PruneIrrelevant(ConfigWords* config) {
    const TupleTable& tuples = store_.tuples();
    const Catalog& catalog = spec_->catalog();
    const std::vector<RelationId>& page_prev =
        plan_->facts->prev_reads(config->page);
    ForEachBit(config->data, [&](TupleId t) {
      const RelationId id = tuples.relation(t);
      const RelationKind kind = catalog.schema(id).kind;
      if ((kind == RelationKind::kState || kind == RelationKind::kAction) &&
          !plan_->relevant[id]) {
        config->data[t >> 6] &= ~(uint64_t{1} << (t & 63));
      }
    });
    ForEachBit(config->previous, [&](TupleId t) {
      const RelationId id = tuples.relation(t);
      if (!std::binary_search(page_prev.begin(), page_prev.end(), id) &&
          plan_->property_prev_reads.count(id) == 0) {
        config->previous[t >> 6] &= ~(uint64_t{1} << (t & 63));
      }
    });
  }

  /// succP (Section 3.1) of `id` as a range of successor ids in
  /// enumeration order. A configuration's list is its skeleton's (see
  /// verifier/config_store.h): its first expansion advances it, and only a
  /// skeleton new to the shard is completed; every later expansion replays
  /// the ids.
  SearchStatus Successors(ConfigId id, SuccessorRange* range) {
    if (store_.FindSuccessors(id, range)) {
      ++counters_.replays;
      return SearchStatus::kContinue;
    }
    Expand(id);
    Skeleton();
    const SkeletonId s = store_.InternSkeleton(here_.page, skeleton_);
    if (store_.FindSkeletonSuccessors(s, range)) {
      ++counters_.skeleton_hits;
    } else {
      ++counters_.skeleton_misses;
      completions_.clear();
      SearchStatus status = InternCompletions(here_.page, &completions_);
      if (status != SearchStatus::kContinue) return status;
      *range = store_.SetSkeletonSuccessors(s, completions_);
    }
    store_.SetSuccessors(id, *range);
    return SearchStatus::kContinue;
  }

  /// Guard test against the memoized component truth values of `id`,
  /// evaluating them on its first expansion.
  bool Enabled(const Guard& guard, ConfigId id) {
    if (!store_.has_components(id)) {
      Expand(id);
      EvalComponents();
      store_.SetComponents(id, component_values_);
    }
    for (const Literal& lit : guard) {
      if (store_.component(id, lit.prop) != lit.positive) return false;
    }
    return true;
  }

  /// Checks the budgets, then marks (flag, state, id) visited and pushes
  /// its frame onto the flag's stack; pushes nothing when the triple was
  /// visited already.
  SearchStatus Descend(int flag, int state, ConfigId id, int depth) {
    if (SearchStatus status = CheckBudgets();
        status != SearchStatus::kContinue) {
      return status;
    }
    if (!store_.Insert(flag, state, id)) return SearchStatus::kContinue;
    // Early aborts skip the matching pop deliberately: the search is over.
    stack_bytes_ += sizeof(Frame);
    obs::CountAlloc(sizeof(Frame));
    gov_.ReportMemory(store_.approx_bytes() + stack_bytes_);
    ++counters_.expansions;
    job_cur_->max_pseudorun_length =
        std::max(job_cur_->max_pseudorun_length, depth);
    Frame frame;
    frame.state = state;
    frame.id = id;
    frame.depth = depth;
    (flag == 0 ? stick_stack_ : candy_stack_).push_back(frame);
    if (telemetry_) {
      job_cur_->search_depth.Record(depth);
    }
    return SearchStatus::kContinue;
  }

  /// Delivers the next successor of `stack`'s top frame into `*next`,
  /// moving on to the frame's next enabled transition when the current
  /// one's successors are spent. Pops the frame and leaves `*next` at
  /// kNoConfig once every transition is done.
  SearchStatus NextSuccessor(std::vector<Frame>* stack, ConfigId* next) {
    Frame& frame = stack->back();
    const std::vector<BuchiTransition>& adj =
        plan_->automaton.adj[frame.state];
    while (frame.next == frame.end) {
      if (++frame.transition == static_cast<int>(adj.size())) {
        stack->pop_back();
        stack_bytes_ -= sizeof(Frame);
        *next = kNoConfig;
        return SearchStatus::kContinue;
      }
      if (!Enabled(adj[frame.transition].guard, frame.id)) continue;
      SuccessorRange range;
      if (SearchStatus status = Successors(frame.id, &range);
          status != SearchStatus::kContinue) {
        return status;
      }
      frame.to = adj[frame.transition].to;
      frame.next = range.begin;
      frame.end = range.end;
    }
    ++counters_.successors;
    *next = store_.successor(frame.next++);
    return SearchStatus::kContinue;
  }

  // --- the nested depth-first search ----------------------------------------
  /// ndfs-pseudo from (`state`, `id`): the outer (stick) search, which
  /// starts an inner (candy) search from every accepting successor once
  /// the stick descent into it has returned. The stacks hold the frames a
  /// recursive search would; the candy stack's top frame, when there is
  /// one, is the active frame, else the stick stack's.
  SearchStatus Search(int state, ConfigId id) {
    SearchStatus status = Descend(0, state, id, 1);
    while (status == SearchStatus::kContinue && !stick_stack_.empty()) {
      status = candy_stack_.empty() ? StickStep() : CandyStep();
    }
    return status;
  }

  SearchStatus StickStep() {
    Frame& frame = stick_stack_.back();
    if (frame.accepting_check) {
      frame.accepting_check = false;
      return AcceptingCheck(frame);
    }
    ConfigId next;
    if (SearchStatus status = NextSuccessor(&stick_stack_, &next);
        status != SearchStatus::kContinue || next == kNoConfig) {
      return status;
    }
    if (!store_.Contains(0, frame.to, next)) {
      frame.accepting_check = true;
      return Descend(0, frame.to, next, frame.depth + 1);
    }
    return AcceptingCheck(frame);
  }

  /// Starts the candy search from the successor `frame` last delivered
  /// when its state is accepting.
  SearchStatus AcceptingCheck(const Frame& frame) {
    if (!plan_->automaton.accepting[frame.to]) return SearchStatus::kContinue;
    base_state_ = frame.to;
    base_id_ = store_.successor(frame.next - 1);
    candy_stack_.clear();
    return Descend(1, frame.to, base_id_, frame.depth + 1);
  }

  SearchStatus CandyStep() {
    ConfigId next;
    if (SearchStatus status = NextSuccessor(&candy_stack_, &next);
        status != SearchStatus::kContinue || next == kNoConfig) {
      return status;
    }
    const Frame& frame = candy_stack_.back();
    if (frame.to == base_state_ && next == base_id_) {
      return ClaimCounterexample();
    }
    if (store_.Contains(1, frame.to, next)) return SearchStatus::kContinue;
    return Descend(1, frame.to, next, frame.depth + 1);
  }

  /// The configurations of `stack`'s frames, materialized from the store.
  std::vector<CounterexampleStep> Materialize(
      const std::vector<Frame>& stack) const {
    std::vector<CounterexampleStep> steps;
    steps.reserve(stack.size());
    for (const Frame& frame : stack) {
      steps.push_back({frame.state, store_.Materialize(frame.id)});
    }
    return steps;
  }

  /// Lollipop closed: candidate counterexample. First worker to claim the
  /// PROPERTY under its engine mutex wins; the candidate_filter (if any)
  /// runs serialized under the same mutex — paper Section 7: "If it does
  /// not [correspond to a genuine run], the ndfs search is reactivated".
  /// Deciding one property only stops the pool when it was the last
  /// undecided one; otherwise its remaining shards are skipped and the
  /// batch keeps searching.
  SearchStatus ClaimCounterexample() {
    std::unique_lock<std::mutex> lock(shared_->mu);
    if (shared_->winner_claimed) {
      // Another worker already reported this property.
      abort_kind_ = AbortKind::kJobSettled;
      return SearchStatus::kAbort;
    }
    std::vector<CounterexampleStep> stick = Materialize(stick_stack_);
    std::vector<CounterexampleStep> candy = Materialize(candy_stack_);
    if (options_->candidate_filter != nullptr) {
      obs::ScopedSpan validate_span(tracer_, "validate");
      Stopwatch validate_watch;
      bool accepted =
          options_->candidate_filter(stick, candy, ctx_->binding);
      shared_->validate_us += validate_watch.ElapsedMicros();
      if (!accepted) {
        ++shared_->rejected;
        return SearchStatus::kContinue;
      }
    }
    shared_->winner_claimed = true;
    shared_->stick = std::move(stick);
    shared_->candy = std::move(candy);
    shared_->witness_binding = ctx_->binding;
    lock.unlock();
    batch_->settled[job_].store(true, std::memory_order_release);
    if (batch_->unsettled.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Every property with shards is now decided: stop the whole pool.
      ledger_->RequestStop();
    }
    return SearchStatus::kFound;
  }

  // --- evaluation helpers ---------------------------------------------------
  /// The FO components' truth values at `here_`, into `component_values_`.
  void EvalComponents() {
    WordsView view(&store_.tuples(), &here_);
    component_values_.resize(ctx_->components.size());
    for (size_t i = 0; i < ctx_->components.size(); ++i) {
      regs_.assign(ctx_->components[i].num_slots(), kInvalidSymbol);
      component_values_[i] =
          ctx_->components[i].EvalClosed(view, here_domain_, &regs_);
    }
  }

  /// The window domain of `config` into `*domain`: C, the page's fresh
  /// values and every value of its tuples, sorted and distinct.
  void WindowDomain(const ConfigWords& config, std::vector<SymbolId>* domain) {
    const TupleTable& tuples = store_.tuples();
    tuple_values_.clear();
    auto add = [&](TupleId t) {
      const SymbolId* values = tuples.values(t);
      tuple_values_.insert(tuple_values_.end(), values,
                           values + tuples.arity(t));
    };
    ForEachBit(config.data, add);
    ForEachBit(config.previous, add);
    std::sort(tuple_values_.begin(), tuple_values_.end());
    const std::vector<SymbolId>& base = PageBaseDomain(config.page);
    domain->clear();
    std::set_union(base.begin(), base.end(), tuple_values_.begin(),
                   tuple_values_.end(), std::back_inserter(*domain));
    domain->erase(std::unique(domain->begin(), domain->end()), domain->end());
  }

  /// C and `page`'s fresh values, sorted and distinct: the part of every
  /// window domain at `page` that no tuple adds, built on the page's first
  /// use in the shard.
  const std::vector<SymbolId>& PageBaseDomain(int page) {
    std::vector<SymbolId>& base = page_base_[page];
    if (!page_base_built_[page]) {
      const PageDomain& pd = *plan_->page_domain_table[page];
      base.assign(ctx_->constant_vector.begin(), ctx_->constant_vector.end());
      base.insert(base.end(), pd.all_values.begin(), pd.all_values.end());
      std::sort(base.begin(), base.end());
      base.erase(std::unique(base.begin(), base.end()), base.end());
      page_base_built_[page] = true;
    }
    return base;
  }

  /// Hot-loop governance probe: one `WorkerGovernor::Tick` (a counter
  /// compare and a relaxed trip load on most calls; a flush + ledger check
  /// every kPollStride-th) plus one relaxed stop-flag load, so a sibling's
  /// counterexample stops this worker within one poll stride.
  SearchStatus CheckBudgets() { return Probe(gov_.Tick()); }

  /// The same probe once per completion interned by `InternCompletions`
  /// (`pending` holds the ids not yet in a list): a skeleton has up to
  /// 2^|extension| × input choices completions, so the deadline,
  /// cancellation, the memory ceiling and a sibling's stop must land
  /// partway through one. The expansion budget is left to the expansions.
  SearchStatus CheckCompletionBudgets(const std::vector<ConfigId>& pending) {
    gov_.ReportMemory(store_.approx_bytes() + stack_bytes_ +
                      static_cast<int64_t>(pending.size() * sizeof(ConfigId)));
    return Probe(gov_.TickWork());
  }

  /// Aborts on a governor trip `reason`, a stop or this property settling;
  /// otherwise publishes progress and heartbeats and continues.
  SearchStatus Probe(UnknownReason reason) {
    if (reason != UnknownReason::kNone) {
      abort_kind_ = AbortKind::kGlobal;
      return SearchStatus::kAbort;
    }
    if (ledger_->stop_requested()) {
      abort_kind_ = AbortKind::kGlobal;
      return SearchStatus::kAbort;
    }
    if (batch_->settled[job_].load(std::memory_order_relaxed)) {
      // This property was decided by a sibling mid-shard: the rest of this
      // shard's search can no longer change any verdict.
      abort_kind_ = AbortKind::kJobSettled;
      return SearchStatus::kAbort;
    }
    if (progress_ != nullptr) PublishProgress();
    if (heartbeat_enabled_) MaybeHeartbeat(ledger_->ElapsedSeconds());
    return SearchStatus::kContinue;
  }

  void PublishProgress() {
    progress_->expansions.store(counters_.expansions,
                                std::memory_order_relaxed);
    progress_->successors.store(counters_.successors,
                                std::memory_order_relaxed);
    progress_->cores.store(counters_.cores, std::memory_order_relaxed);
    int trie_size = store_.size();
    progress_->trie_size.store(trie_size, std::memory_order_relaxed);
    progress_->max_trie.store(std::max(counters_.max_trie_size, trie_size),
                              std::memory_order_relaxed);
  }

  /// Fires the progress heartbeat (and trace counter tracks) when the
  /// configured interval has elapsed. Only used on the jobs == 1 inline
  /// path (with a pool the coordinating thread aggregates instead).
  void MaybeHeartbeat(double elapsed) {
    if (elapsed - last_heartbeat_seconds_ <
        options_->heartbeat_interval_seconds) {
      return;
    }
    last_heartbeat_seconds_ = elapsed;
    ++heartbeats_;
    HeartbeatSnapshot snapshot;
    snapshot.elapsed_seconds = elapsed;
    snapshot.num_assignments = static_cast<int64_t>(assignment_us_.size());
    snapshot.num_cores = counters_.cores;
    snapshot.num_expansions = counters_.expansions;
    snapshot.num_successors = counters_.successors;
    snapshot.trie_size = store_.size();
    snapshot.max_trie_size = std::max(counters_.max_trie_size, store_.size());
    snapshot.buchi_states = plan_ != nullptr ? plan_->automaton.NumStates() : 0;
    EmitHeartbeat(*options_, tracer_, snapshot);
  }

  const std::vector<BatchSlot>* slots_;
  const PreparedSpec* prepared_;
  const VerifyOptions* options_;
  BatchShared* batch_;
  BudgetLedger* ledger_;
  int worker_;
  obs::Tracer* tracer_;
  bool heartbeat_enabled_;
  WorkerProgress* progress_;
  bool telemetry_;

  WorkerGovernor gov_;
  SearchCounters counters_;             // across the whole drain
  std::vector<VerifyStats> job_stats_;  // per property; counts per shard
  std::vector<double> assignment_us_;   // summed shard time per SLOT
  obs::AllocStats alloc_;               // tracked allocs across the drain
  int lookup_tick_ = 0;                 // 1/64 lookup-latency sampling phase
  int64_t heartbeats_ = 0;
  double last_heartbeat_seconds_ = 0;

  AbortKind abort_kind_ = AbortKind::kNone;
  UnknownReason local_reason_ = UnknownReason::kNone;
  std::string local_message_;

  // Per-shard state, resolved from the slot at RunShard entry.
  int job_ = 0;
  const PropertyPlan* plan_ = nullptr;
  const WebAppSpec* spec_ = nullptr;
  EngineShared* shared_ = nullptr;
  VerifyStats* job_cur_ = nullptr;
  const AssignmentContext* ctx_ = nullptr;
  ConfigStore store_;  // the shard's tuples, configurations, visits and memo
  Words core_;         // the shard's core
  std::vector<std::vector<TupleId>> ext_bits_;  // see ExtensionBits
  std::vector<bool> ext_built_;
  std::vector<std::vector<SymbolId>> page_base_;  // see PageBaseDomain
  std::vector<bool> page_base_built_;
  std::vector<ConfigId> starts_;       // the start skeleton's completions
  std::vector<ConfigId> completions_;  // the skeleton being completed
  std::vector<Frame> stick_stack_;
  std::vector<Frame> candy_stack_;
  int64_t stack_bytes_ = 0;
  int base_state_ = -1;
  ConfigId base_id_ = 0;

  // Buffers every expansion and completion reuses.
  ConfigId here_id_ = kNoConfig;       // the configuration in `here_`
  ConfigWords here_;                   // ... and its window domain
  std::vector<SymbolId> here_domain_;
  ConfigWords skeleton_;
  ConfigWords complete_;
  Words ext_data_;                     // skeleton plus extension subset
  Words inserted_;
  Words deleted_;
  std::vector<SymbolId> domain_;       // the completion's window domain
  std::vector<SymbolId> tuple_values_;  // a window domain's tuple values
  std::vector<std::vector<TupleId>> alternatives_;  // per page input
  std::vector<size_t> choice_;         // per page input: 0 or option + 1
  DerivedTuples option_tuples_;
  DerivedTuples action_tuples_;
  DerivedTuples inserts_;
  DerivedTuples deletes_;
  std::vector<SymbolId> regs_;
  std::vector<bool> component_values_;
};

/// One batch verification attempt over `props`: session-cached plans and
/// pre-pass, one fused sharded search across every property, per-property
/// deterministic merge, metrics finalization. With one property this is
/// exactly the PR-3 single-property attempt; see docs/PARALLELISM.md for
/// the shard model and docs/API.md for the batch semantics. Every worker
/// reads the verifier's one `prepared` spec. For n > 1, the attempt's
/// heartbeats, which no single property's stats can hold, are added to
/// `*batch_heartbeats` when given.
std::vector<VerifyResult> RunBatchAttempt(
    VerifierSession* session, const PreparedSpec* prepared,
    const std::vector<const Property*>& props, const VerifyOptions& options,
    int jobs, int64_t* batch_heartbeats) {
  const int n = static_cast<int>(props.size());
  std::vector<VerifyResult> results(n);
  Stopwatch watch;
  obs::ScopedSpan verify_span(options.tracer, "verify");

  // Search telemetry (ISSUE 6) is tied to the observability surfaces:
  // with neither a registry nor a tracer installed, no histogram is
  // recorded and no allocation sink is installed anywhere.
  const bool telemetry =
      options.metrics != nullptr || options.tracer != nullptr;
  obs::AllocStats prepare_alloc;   // tracked allocs: plan/Büchi building
  obs::AllocStats dataflow_alloc;  // tracked allocs: pre-pass/candidates

  // The ledger's deadline clock starts here, covering prepare/dataflow;
  // every property of the batch shares the one budget envelope.
  BudgetLedger ledger(GovernorLimitsFromOptions(options), jobs);
  const SessionStats session_before = session->stats();

  /// Per-property bookkeeping across the attempt's phases.
  struct PropertyWork {
    const PropertyPlan* plan = nullptr;
    PrepassResult prepass;
    const PrepassArtifacts* artifacts = nullptr;  // prepass.get()
    double prepare_us = 0;
    double dataflow_us = 0;      // 0 when the contexts were session-cached
    int64_t prepass_reuses = 0;  // session layers served instead of rebuilt
    size_t slot_begin = 0, slot_end = 0;
  };
  std::vector<PropertyWork> work(n);

  // --- property plans (session layer 2) -------------------------------------
  // A null plan means the ledger stopped the translation, or the automaton
  // would pass a size cap. A trip is latched and skips the search; past a
  // cap this property alone answers kUnknown. Either way the placeholder
  // (no automaton states) is never searched.
  static const PropertyPlan kUntranslated;
  BatchShared shared(n);
  bool any_undecided = false;
  {
    std::optional<obs::ScopedAllocTracking> alloc_scope;
    if (telemetry) alloc_scope.emplace(&prepare_alloc);
    for (int i = 0; i < n; ++i) {
      obs::ScopedSpan span(options.tracer, "prepare");
      Stopwatch prepare_watch;
      int64_t reuses_before = session->stats().reuses();
      bool too_large = false;
      const PropertyPlan* plan =
          session->GetPlan(*props[i], options.tracer, &ledger, &too_large);
      WAVE_CHECK(plan != nullptr || too_large ||
                 ledger.trip_reason() != UnknownReason::kNone);
      if (too_large) {
        shared.jobs[i]->RecordLocalUnknown(
            /*assignment=*/0, /*core=*/-1, UnknownReason::kMemoryLimit,
            "Büchi automaton too large: its degeneralization passes the cap "
            "of " + std::to_string(kMaxDegeneralizedStates) + " states or " +
                std::to_string(kMaxDegeneralizedTransitions) +
                " transitions");
      }
      work[i].plan = plan != nullptr ? plan : &kUntranslated;
      work[i].prepass_reuses = session->stats().reuses() - reuses_before;
      work[i].prepare_us = prepare_watch.ElapsedMicros();
      results[i].stats.buchi_states = work[i].plan->automaton.NumStates();
      if (work[i].plan->decided_holds) {
        // The negation is unsatisfiable: ϕ0 holds on all runs of any
        // system.
        results[i].verdict = Verdict::kHolds;
      } else if (plan != nullptr) {
        any_undecided = true;
      }
    }
  }
  int max_buchi = 0;
  for (int i = 0; i < n; ++i) {
    max_buchi = std::max(max_buchi, results[i].stats.buchi_states);
  }

  const bool heartbeat_enabled =
      options.heartbeat != nullptr || options.tracer != nullptr;
  int64_t coordinator_heartbeats = 0;
  int64_t steals = 0;
  std::vector<BatchSlot> slots;
  std::vector<std::unique_ptr<ShardRunner>> runners;
  double search_us = 0;

  // Phase boundary: a cancellation or deadline that landed during the
  // (untickled) prepare phase must not start the search. `Check` latches
  // the trip, which the merge below turns into the kUnknown verdicts.
  if (any_undecided && ledger.Check() == UnknownReason::kNone) {
    obs::ScopedSpan search_span(options.tracer, "search");
    Stopwatch search_watch;

    // --- sequential pre-pass (session layer 3) ------------------------------
    // Everything that mints symbols or touches a memoizing cache happens
    // here, on one thread, in a deterministic order — or happened on an
    // earlier attempt and is served from the session. The workers then
    // only read. A core-candidate overflow truncates a property's context
    // list at the offending assignment — exactly where the sequential
    // search would have stopped — and is reported unless an earlier shard
    // of that property decides otherwise.
    std::vector<ShardBlock> blocks;
    bool prepass_tripped = false;
    std::optional<obs::ScopedAllocTracking> dataflow_alloc_scope;
    if (telemetry) dataflow_alloc_scope.emplace(&dataflow_alloc);
    for (int i = 0; i < n; ++i) {
      PropertyWork& w = work[i];
      if (w.plan->decided_holds || w.plan == &kUntranslated) continue;
      if (prepass_tripped || ledger.Check() != UnknownReason::kNone) {
        prepass_tripped = true;  // remaining pre-passes are pointless
        continue;
      }
      int64_t reuses_before = session->stats().reuses();
      w.prepass =
          session->GetPrepass(*props[i], options, &ledger, options.tracer);
      w.prepass_reuses += session->stats().reuses() - reuses_before;
      w.artifacts = w.prepass.get();
      if (w.prepass.tripped) prepass_tripped = true;
      if (w.artifacts == nullptr) continue;
      if (!w.prepass.reused) w.dataflow_us = w.artifacts->dataflow_us;

      w.slot_begin = slots.size();
      for (const std::unique_ptr<AssignmentContext>& ctx :
           w.artifacts->ctxs) {
        int slot = static_cast<int>(slots.size());
        slots.push_back({i, w.plan, ctx.get()});
        if (!ctx->core_overflow && ctx->num_cores > 0) {
          blocks.push_back({slot, 0, ctx->num_cores});
        }
      }
      w.slot_end = slots.size();
      results[i].stats.num_assignments =
          static_cast<int64_t>(w.artifacts->ctxs.size());
      if (w.artifacts->truncated()) {
        const AssignmentContext& last = *w.artifacts->ctxs.back();
        shared.jobs[i]->RecordLocalUnknown(last.index, /*core=*/-1,
                                           UnknownReason::kCandidateBudget,
                                           last.overflow_message);
      }
    }
    dataflow_alloc_scope.reset();

    // Only properties with searchable shards participate in the "last one
    // decided stops the pool" count.
    {
      std::vector<bool> has_block(n, false);
      for (const ShardBlock& b : blocks) {
        has_block[slots[b.assignment].job] = true;
      }
      int unsettled = 0;
      for (int i = 0; i < n; ++i) {
        if (has_block[i]) ++unsettled;
      }
      shared.unsettled.store(unsettled, std::memory_order_relaxed);
    }

    // --- fused sharded search -----------------------------------------------
    if (!blocks.empty() && !prepass_tripped &&
        ledger.trip_reason() == UnknownReason::kNone) {
      ShardQueue queue(blocks, jobs);
      if (jobs == 1) {
        // Inline on the calling thread: the caller's tracer, inline
        // heartbeats — byte-for-byte the sequential engine.
        runners.push_back(std::make_unique<ShardRunner>(
            &slots, n, prepared, &options, &shared, &ledger,
            /*worker=*/0, options.tracer, heartbeat_enabled,
            /*progress=*/nullptr, telemetry));
        runners[0]->Drain(&queue);
      } else {
        // Per-worker tracers, progress and runners, all constructed
        // sequentially here.
        std::vector<std::unique_ptr<obs::Tracer>> worker_tracers;
        std::vector<double> tracer_offsets(jobs, 0.0);
        std::vector<std::unique_ptr<WorkerProgress>> progress;
        for (int w = 0; w < jobs; ++w) {
          if (options.tracer != nullptr) {
            tracer_offsets[w] = options.tracer->NowMicros();
            worker_tracers.push_back(std::make_unique<obs::Tracer>());
          }
          if (heartbeat_enabled) {
            progress.push_back(std::make_unique<WorkerProgress>());
          }
          runners.push_back(std::make_unique<ShardRunner>(
              &slots, n, prepared, &options, &shared, &ledger, w,
              options.tracer != nullptr ? worker_tracers[w].get() : nullptr,
              /*heartbeat_enabled=*/false,
              heartbeat_enabled ? progress[w].get() : nullptr, telemetry));
        }

        WorkerPool pool(jobs);
        pool.Start([&](int w) { runners[w]->Drain(&queue); });
        if (heartbeat_enabled) {
          // The coordinating thread aggregates per-worker progress into
          // periodic heartbeats while the pool runs.
          double interval = options.heartbeat_interval_seconds > 0.01
                                ? options.heartbeat_interval_seconds
                                : 0.01;
          while (!pool.WaitDone(interval)) {
            ++coordinator_heartbeats;
            HeartbeatSnapshot snapshot;
            snapshot.elapsed_seconds = ledger.ElapsedSeconds();
            snapshot.num_assignments = static_cast<int64_t>(slots.size());
            snapshot.buchi_states = max_buchi;
            for (const std::unique_ptr<WorkerProgress>& p : progress) {
              snapshot.num_expansions +=
                  p->expansions.load(std::memory_order_relaxed);
              snapshot.num_successors +=
                  p->successors.load(std::memory_order_relaxed);
              snapshot.num_cores += p->cores.load(std::memory_order_relaxed);
              snapshot.trie_size +=
                  p->trie_size.load(std::memory_order_relaxed);
              snapshot.max_trie_size =
                  std::max(snapshot.max_trie_size,
                           p->max_trie.load(std::memory_order_relaxed));
            }
            EmitHeartbeat(options, options.tracer, snapshot);
          }
        }
        pool.WaitDone(-1);
        pool.Join();

        // Fold the per-worker span streams into the caller's trace, one
        // lane (tid) per worker.
        if (options.tracer != nullptr) {
          for (int w = 0; w < jobs; ++w) {
            options.tracer->MergeFrom(*worker_tracers[w], /*tid=*/2 + w,
                                      tracer_offsets[w]);
          }
        }
      }
      steals = queue.steals();
    }
    ledger.SyncMemoryReadings();
    search_us = search_watch.ElapsedMicros();
  }

  // --- deterministic per-property merge --------------------------------------
  // Worker-id order; precedence per property: counterexample > shard-local
  // unknown (minimum (assignment, core) key — the one the sequential
  // search would have hit first) > global budget trip > holds.
  GovernorReadings readings = ledger.readings();
  for (int i = 0; i < n; ++i) {
    VerifyResult& r = results[i];
    const PropertyWork& w = work[i];
    r.stats.prepass_reuses = w.prepass_reuses;
    r.stats.prepare_seconds = w.prepare_us / 1e6;
    if (w.plan->decided_holds) {
      r.stats.seconds = r.stats.prepare_seconds;
      continue;
    }
    EngineShared& es = *shared.jobs[i];

    double slot_us = 0;
    for (const std::unique_ptr<ShardRunner>& runner : runners) {
      // A runner's per-property slice holds only search counters, marks
      // and telemetry (histograms all empty when telemetry was off).
      r.stats.Merge(runner->job_stats()[i]);
      for (size_t slot = w.slot_begin; slot < w.slot_end; ++slot) {
        slot_us += runner->assignment_us()[slot];
      }
    }
    r.stats.num_rejected_candidates = es.rejected;

    if (es.winner_claimed) {
      r.verdict = Verdict::kViolated;
      r.stick = std::move(es.stick);
      r.candy = std::move(es.candy);
      r.witness_binding = std::move(es.witness_binding);
    } else if (es.has_local_unknown) {
      r.verdict = Verdict::kUnknown;
      r.failure_reason = es.local_message;
      r.unknown_reason = es.local_reason;
    } else if (ledger.trip_reason() != UnknownReason::kNone) {
      r.verdict = Verdict::kUnknown;
      r.failure_reason = ledger.trip_message();
      r.unknown_reason = ledger.trip_reason();
    } else {
      r.verdict = Verdict::kHolds;
    }

    // Per-property phase wall-times. The search share is the property's
    // own shard time (summed across workers), so N batched properties
    // don't all report the whole batch's search wall.
    r.stats.dataflow_seconds = w.dataflow_us / 1e6;
    r.stats.validate_seconds = es.validate_us / 1e6;
    r.stats.search_seconds =
        std::max(0.0, slot_us - es.validate_us) / 1e6;
    r.stats.peak_memory_bytes = readings.peak_memory_bytes;
    r.stats.governor_polls = readings.polls;
    r.stats.seconds = r.stats.prepare_seconds + r.stats.dataflow_seconds +
                      r.stats.search_seconds + r.stats.validate_seconds;
  }

  int64_t heartbeats = coordinator_heartbeats;
  for (const std::unique_ptr<ShardRunner>& runner : runners) {
    heartbeats += runner->heartbeats();
  }
  double net_search_us = 0;

  {
    // Result validation/finalization; with a candidate_filter installed
    // the per-candidate "validate" spans inside the search carry the bulk
    // of this phase. The per-call registry is built only when the caller
    // installed one, and merges into it (it may be shared and
    // accumulating); the results read none of it.
    obs::ScopedSpan validate_span(options.tracer, "validate");

    double prepare_us = 0, dataflow_us = 0, validate_us = 0;
    VerifyStats merged;
    for (int i = 0; i < n; ++i) {
      prepare_us += work[i].prepare_us;
      dataflow_us += work[i].dataflow_us;
      validate_us += shared.jobs[i]->validate_us;
      merged.Merge(results[i].stats);
    }
    net_search_us = std::max(0.0, search_us - dataflow_us - validate_us);

    if (options.tracer != nullptr) {
      options.tracer->CounterHistogram("trie.lookup_us",
                                       merged.trie_lookup_us);
      options.tracer->CounterHistogram("search.depth", merged.search_depth);
      options.tracer->CounterHistogram("alloc.search.shard_bytes",
                                       merged.shard_alloc_bytes);
    }
    if (options.metrics != nullptr) {
      obs::MetricsRegistry call_metrics;
      call_metrics.Add("verify.prepare_us", static_cast<int64_t>(prepare_us));
      call_metrics.Add("verify.dataflow_us",
                       static_cast<int64_t>(dataflow_us));
      call_metrics.Add("verify.search_us", static_cast<int64_t>(net_search_us));
      call_metrics.Add("verify.validate_us",
                       static_cast<int64_t>(validate_us));
      call_metrics.Add("verify.assignments", merged.num_assignments);
      call_metrics.Add("verify.cores", merged.num_cores);
      call_metrics.Add("verify.expansions", merged.num_expansions);
      call_metrics.Add("verify.successors", merged.num_successors);
      call_metrics.Add("verify.rejected_candidates",
                       merged.num_rejected_candidates);
      call_metrics.Add("verify.heartbeats", heartbeats);
      call_metrics.Add("verify.steals", steals);
      call_metrics.Set("verify.jobs", jobs);
      call_metrics.Add("trie.hits", merged.trie_hits);
      call_metrics.Add("trie.misses", merged.trie_misses);
      call_metrics.Set("trie.max_size", merged.max_trie_size);
      call_metrics.Set("buchi.states", max_buchi);
      int64_t gpvw_states_before = 0;
      for (int i = 0; i < n; ++i) {
        const GpvwStats& g = work[i].plan->gpvw_stats;
        call_metrics.Add("gpvw.tableau_nodes", g.tableau_nodes);
        call_metrics.Add("gpvw.until_subformulas", g.until_subformulas);
        gpvw_states_before =
            std::max<int64_t>(gpvw_states_before, g.states_before_simplify);
      }
      call_metrics.Set("gpvw.states_before_simplify", gpvw_states_before);
      call_metrics.Set("governor.peak_memory_bytes",
                       readings.peak_memory_bytes);
      call_metrics.Add("governor.polls", readings.polls);

      // Batch-wide search telemetry (on whenever a registry is): the
      // per-property histograms merged, the per-phase counting-allocator
      // tallies, and (jobs > 1) the steal balance across workers.
      call_metrics.histogram("trie.lookup_us")
          ->MergeData(merged.trie_lookup_us);
      call_metrics.histogram("search.depth")->MergeData(merged.search_depth);
      call_metrics.histogram("search.shard_expansions")
          ->MergeData(merged.shard_expansions);
      call_metrics.histogram("alloc.search.shard_bytes")
          ->MergeData(merged.shard_alloc_bytes);
      call_metrics.Add("alloc.prepare.bytes", prepare_alloc.bytes);
      call_metrics.Add("alloc.prepare.count", prepare_alloc.count);
      call_metrics.Add("alloc.dataflow.bytes", dataflow_alloc.bytes);
      call_metrics.Add("alloc.dataflow.count", dataflow_alloc.count);
      call_metrics.Add("alloc.search.bytes", merged.alloc_bytes);
      call_metrics.Add("alloc.search.count", merged.alloc_count);
      if (runners.size() > 1) {
        // Work-stealing balance: max worker expansion share over the
        // mean (1.0 = perfectly balanced).
        int64_t total = 0, worker_max = 0;
        for (const std::unique_ptr<ShardRunner>& runner : runners) {
          int64_t e = runner->counters().expansions;
          total += e;
          worker_max = std::max(worker_max, e);
          call_metrics.Record("verify.worker_expansions",
                              static_cast<double>(e));
        }
        double mean =
            static_cast<double>(total) / static_cast<double>(runners.size());
        call_metrics.Set("verify.steal_imbalance",
                         mean > 0 ? static_cast<double>(worker_max) / mean
                                  : 1.0);
      }

      // Session-cache deltas of this attempt (verify.prepass.* proves the
      // spec pre-pass ran exactly once across a batch: spec_builds is 1 on
      // the session's first attempt and 0 afterwards).
      const SessionStats& sa = session->stats();
      call_metrics.Add("verify.prepass.spec_builds",
                       sa.spec_builds - session_before.spec_builds);
      call_metrics.Add("verify.prepass.spec_reuses",
                       sa.spec_reuses - session_before.spec_reuses);
      call_metrics.Add("verify.prepass.plan_builds",
                       sa.plan_builds - session_before.plan_builds);
      call_metrics.Add("verify.prepass.plan_reuses",
                       sa.plan_reuses - session_before.plan_reuses);
      call_metrics.Add("verify.prepass.context_builds",
                       sa.context_builds - session_before.context_builds);
      call_metrics.Add("verify.prepass.context_reuses",
                       sa.context_reuses - session_before.context_reuses);
      call_metrics.Add("verify.prepass.evictions",
                       sa.context_evictions - session_before.context_evictions);
      call_metrics.Add("verify.gpvw_cache.hits",
                       sa.gpvw_hits - session_before.gpvw_hits);
      call_metrics.Add("verify.gpvw_cache.misses",
                       sa.gpvw_misses - session_before.gpvw_misses);

      // Per-assignment wall time, recorded in slot order (so the histogram
      // count always equals the attempt's summed num_assignments): the
      // context build time — when this attempt actually built it — plus the
      // shard time summed across workers.
      obs::Histogram assignment_hist;
      for (size_t slot = 0; slot < slots.size(); ++slot) {
        double total = work[slots[slot].job].prepass.reused
                           ? 0.0
                           : slots[slot].ctx->build_us;
        for (const std::unique_ptr<ShardRunner>& runner : runners) {
          total += runner->assignment_us()[slot];
        }
        assignment_hist.Record(total);
      }
      call_metrics.histogram("verify.assignment_us")
          ->MergeFrom(assignment_hist);

      // The prepared calls and memo outcomes, summed over the workers.
      static constexpr std::pair<const char*, int64_t SearchCounters::*>
          kSearchCounters[] = {
              {"prepared.compute_options_calls",
               &SearchCounters::compute_options_calls},
              {"prepared.apply_input_calls",
               &SearchCounters::apply_input_calls},
              {"prepared.advance_calls", &SearchCounters::advance_calls},
              {"prepared.rule_evaluations", &SearchCounters::rule_evaluations},
              {"prepared.derived_tuples", &SearchCounters::derived_tuples},
              {"search.memo.replays", &SearchCounters::replays},
              {"search.memo.skeleton_hits", &SearchCounters::skeleton_hits},
              {"search.memo.skeleton_misses",
               &SearchCounters::skeleton_misses}};
      for (const auto& [name, member] : kSearchCounters) {
        int64_t total = 0;
        for (const std::unique_ptr<ShardRunner>& runner : runners) {
          total += runner->counters().*member;
        }
        call_metrics.Add(name, total);
      }
      options.metrics->MergeFrom(call_metrics);
    }
  }

  // Release the session pins now that the merge no longer reads the
  // cached contexts (partial artifacts are caller-owned; Unpin ignores
  // them).
  for (int i = 0; i < n; ++i) {
    if (work[i].prepass.artifacts != nullptr) {
      session->UnpinPrepass(work[i].prepass.artifacts);
    }
  }

  if (batch_heartbeats != nullptr && n > 1) *batch_heartbeats += heartbeats;
  if (n == 1) {
    // Single-property attempts keep the historical stats contract:
    // `seconds` is the attempt wall time and the search phase is the
    // attempt's whole search wall, net of the other phases.
    results[0].stats.seconds = watch.ElapsedSeconds();
    if (!work[0].plan->decided_holds) {
      results[0].stats.search_seconds = net_search_us / 1e6;
    }
    results[0].stats.heartbeats = heartbeats;
  }
  return results;
}

/// The shared single/batch driver: persistent-cache lookups, then one
/// fused attempt (or a batch-wide retry ladder, each rung re-running only
/// the properties still undecided for a budget-limited reason), then
/// persistent-cache stores of the newly decided results.
std::vector<VerifyResponse> VerifyProperties(
    VerifierSession* session, WebAppSpec* spec, const PreparedSpec* prepared,
    const std::vector<const Property*>& props, const VerifyOptions& base,
    const RetryPolicy& retry, int jobs, ResultCache* cache,
    int64_t* batch_heartbeats) {
  const int n = static_cast<int>(props.size());
  std::vector<VerifyResponse> responses(n);
  std::vector<bool> decided(n, false);
  std::vector<bool> from_cache(n, false);
  std::vector<Fingerprint> keys(n);

  // Health-counter snapshot: the deltas across this call become metrics,
  // so a driver sharing one cache across calls reports per-call numbers.
  const ResultCache::HealthCounters health_before =
      cache != nullptr ? cache->health() : ResultCache::HealthCounters{};

  if (cache != nullptr) {
    int64_t hits = 0, misses = 0;
    for (int i = 0; i < n; ++i) {
      keys[i] = ResultCacheKey(session->SpecFingerprint(), *props[i],
                               spec->symbols(), base);
      obs::ScopedSpan span(base.tracer, "cache.lookup");
      VerifyResponse stored;
      if (cache->Lookup(keys[i], spec, &stored)) {
        responses[i] = std::move(stored);
        decided[i] = true;
        from_cache[i] = true;
        ++hits;
      } else {
        ++misses;
      }
    }
    if (base.metrics != nullptr) {
      base.metrics->Add("verify.cache.hits", hits);
      base.metrics->Add("verify.cache.misses", misses);
    }
  }

  std::vector<int> pending;
  for (int i = 0; i < n; ++i) {
    if (!decided[i]) pending.push_back(i);
  }

  if (!pending.empty() && !retry.enabled) {
    std::vector<const Property*> subset;
    for (int j : pending) subset.push_back(props[j]);
    std::vector<VerifyResult> rs = RunBatchAttempt(
        session, prepared, subset, base, jobs, batch_heartbeats);
    for (size_t m = 0; m < pending.size(); ++m) {
      static_cast<VerifyResult&>(responses[pending[m]]) = std::move(rs[m]);
    }
  } else if (!pending.empty()) {
    // The retry ladder, batch-wide: climb while any property failed for a
    // budget-limited reason; each rung re-runs ONLY the still-undecided
    // budget-limited properties. Decisions, non-budget unknowns (overflow
    // no rung can cure would still be budget-limited — but timeouts,
    // memory trips and cancellation are final) drop out of the climb.
    std::vector<RetryRung> ladder =
        retry.ladder.empty() ? DefaultLadder(base) : retry.ladder;
    double total_budget = retry.total_budget_seconds > 0
                              ? retry.total_budget_seconds
                              : base.timeout_seconds;
    Stopwatch ladder_watch;
    for (size_t k = 0; k < ladder.size() && !pending.empty(); ++k) {
      const RetryRung& rung = ladder[k];
      double remaining = total_budget - ladder_watch.ElapsedSeconds();
      if (remaining <= 0 && k > 0) {
        // Budget spent on earlier rungs; surface the last attempts' results.
        break;
      }
      // Backoff split: each rung gets an even share of what is left, so a
      // cheap early rung that returns quickly donates its unused share to
      // the rungs after it.
      double rung_budget =
          std::max(0.0, remaining) / static_cast<double>(ladder.size() - k);

      VerifyOptions options = base;
      options.max_candidates = rung.max_candidates;
      options.max_expansions = rung.max_expansions;
      options.exhaustive_existential = rung.exhaustive_existential;
      options.timeout_seconds = rung_budget;

      obs::ScopedSpan span(base.tracer, "retry_rung");
      WAVE_FAULT("retry.rung.attempt");  // delay: a stalled ladder rung
      Stopwatch attempt_watch;
      std::vector<const Property*> subset;
      for (int j : pending) subset.push_back(props[j]);
      std::vector<VerifyResult> rs = RunBatchAttempt(
          session, prepared, subset, options, jobs, batch_heartbeats);
      double elapsed = attempt_watch.ElapsedSeconds();

      std::vector<int> still;
      for (size_t m = 0; m < pending.size(); ++m) {
        int j = pending[m];
        AttemptRecord record;
        record.rung = static_cast<int>(k);
        record.rung_name = rung.name;
        record.budget_seconds = rung_budget;
        record.elapsed_seconds = elapsed;
        record.verdict = rs[m].verdict;
        record.unknown_reason = rs[m].unknown_reason;
        record.failure_reason = rs[m].failure_reason;
        record.stats = rs[m].stats;
        responses[j].attempts.push_back(std::move(record));
        static_cast<VerifyResult&>(responses[j]) = std::move(rs[m]);
        if (responses[j].verdict != Verdict::kUnknown) {
          responses[j].decided_rung = static_cast<int>(k);
        } else if (IsBudgetLimited(responses[j].unknown_reason)) {
          still.push_back(j);
        }
        // A non-budget-limited unknown (timeout/memory/cancel) is final:
        // more candidate budget will not cure it.
      }
      pending = std::move(still);
    }
  }

  if (cache != nullptr) {
    int64_t stores = 0;
    for (int i = 0; i < n; ++i) {
      if (from_cache[i] || responses[i].verdict == Verdict::kUnknown) {
        continue;
      }
      obs::ScopedSpan span(base.tracer, "cache.store");
      // A failed store costs the next run its warm start, nothing else.
      if (cache->Store(keys[i], *spec, responses[i]).ok()) ++stores;
    }
    if (base.metrics != nullptr) {
      base.metrics->Add("verify.cache.stores", stores);
      const ResultCache::HealthCounters after = cache->health();
      base.metrics->Add("verify.cache.corrupt",
                        after.corrupt - health_before.corrupt);
      base.metrics->Add("verify.cache.quarantined",
                        after.quarantined - health_before.quarantined);
      base.metrics->Add("verify.cache.lock_waits",
                        after.lock_waits - health_before.lock_waits);
      base.metrics->Add("verify.cache.recovered",
                        after.recovered - health_before.recovered);
    }
  }
  return responses;
}

/// Collects the embedded FO formulas (the eventual "FO components") of an
/// LTL property body, in syntactic order.
void CollectFoComponents(const LtlPtr& f, std::vector<FormulaPtr>* out) {
  if (f == nullptr) return;
  if (f->kind() == LtlFormula::Kind::kFo) {
    out->push_back(f->fo());
    return;
  }
  CollectFoComponents(f->left(), out);
  CollectFoComponents(f->right(), out);
}

}  // namespace

Status ValidatePropertyForSpec(const WebAppSpec& spec,
                               const Property& property) {
  if (property.body == nullptr) {
    return Status::InvalidArgument(
        "property '" + property.name + "' has no body", WAVE_LOC);
  }
  std::vector<FormulaPtr> components;
  CollectFoComponents(property.body, &components);
  std::set<std::string> declared(property.forall_vars.begin(),
                                 property.forall_vars.end());
  for (const FormulaPtr& c : components) {
    // Page atoms name known pages and relation atoms resolve with the
    // declared arity: exactly the invariants `PreparedFormula::Prepare`
    // WAVE_CHECKs at verify time, so a property passing here cannot abort
    // the search.
    std::vector<std::string> issues;
    spec.CheckAtoms(
        *c, [&] { return "property '" + property.name + "'"; }, &issues);
    if (!issues.empty()) {
      return Status::InvalidArgument(issues.front(), WAVE_LOC);
    }
    for (const std::string& v : c->FreeVariables()) {
      if (declared.count(v) == 0) {
        return Status::InvalidArgument(
            "property '" + property.name + "': free variable '" + v +
                "' not bound by the forall block",
            WAVE_LOC);
      }
    }
  }
  return Status::Ok();
}

Status ValidateCandidateBudgets(const VerifyOptions& options,
                                const RetryPolicy& retry) {
  auto check = [](int budget, const std::string& where) {
    if (budget >= 0 && budget <= kMaxCandidatesLimit) return Status::Ok();
    return Status::InvalidArgument(
        where + " max_candidates " + std::to_string(budget) +
            " is outside [0, " + std::to_string(kMaxCandidatesLimit) + "]",
        WAVE_LOC);
  };
  WAVE_RETURN_IF_ERROR(check(options.max_candidates, "options:"));
  for (const RetryRung& rung : retry.ladder) {
    WAVE_RETURN_IF_ERROR(check(rung.max_candidates,
                               "retry rung '" + rung.name + "':"));
  }
  return Status::Ok();
}

Verifier::Validated Verifier::CheckValid(const WebAppSpec& spec) {
  std::vector<std::string> issues = spec.Validate();
  WAVE_CHECK_MSG(issues.empty(),
                 "spec does not validate: " << issues.front() << " (and "
                                            << issues.size() - 1 << " more)");
  return Validated();
}

Verifier::Verifier(WebAppSpec* spec) : Verifier(spec, CheckValid(*spec)) {}

Verifier::Verifier(WebAppSpec* spec, Validated)
    : spec_(spec),
      prepared_(spec),
      session_(std::make_unique<VerifierSession>(spec)) {}

Verifier::~Verifier() = default;

StatusOr<std::unique_ptr<Verifier>> Verifier::Create(WebAppSpec* spec) {
  if (spec == nullptr) {
    return Status::InvalidArgument("spec is null", WAVE_LOC);
  }
  WAVE_RETURN_IF_ERROR(spec->ValidateStatus());
  // Validated once; the constructor below does not validate again.
  return std::unique_ptr<Verifier>(new Verifier(spec, Validated()));
}

StatusOr<VerifyResponse> Verifier::Run(const VerifyRequest& request) {
  // Resolve the property selector: direct pointer > index > name.
  const Property* property = request.property;
  if (property == nullptr) {
    if (request.properties == nullptr) {
      return Status::InvalidArgument(
          "VerifyRequest selects no property: set `property`, or "
          "`properties` plus `property_index`/`property_name`",
          WAVE_LOC);
    }
    if (request.property_index >= 0) {
      if (request.property_index >=
          static_cast<int>(request.properties->size())) {
        return Status::InvalidArgument(
            "VerifyRequest: property_index " +
                std::to_string(request.property_index) +
                " out of range (catalog has " +
                std::to_string(request.properties->size()) + " properties)",
            WAVE_LOC);
      }
      property = &(*request.properties)[request.property_index];
    } else if (!request.property_name.empty()) {
      for (const Property& p : *request.properties) {
        if (p.name == request.property_name) {
          property = &p;
          break;
        }
      }
      if (property == nullptr) {
        return Status::InvalidArgument(
            "VerifyRequest: no property named '" + request.property_name +
                "' in the catalog",
            WAVE_LOC);
      }
    } else {
      return Status::InvalidArgument(
          "VerifyRequest selects no property: set `property`, or "
          "`properties` plus `property_index`/`property_name`",
          WAVE_LOC);
    }
  }
  WAVE_RETURN_IF_ERROR(ValidatePropertyForSpec(*spec_, *property));
  WAVE_RETURN_IF_ERROR(
      ValidateCandidateBudgets(request.options, request.retry));

  const int jobs = WorkerPool::ResolveJobs(request.jobs);
  std::vector<VerifyResponse> rs = VerifyProperties(
      session_.get(), spec_, &prepared_, {property}, request.options,
      request.retry, jobs, request.cache, /*batch_heartbeats=*/nullptr);
  return std::move(rs[0]);
}

StatusOr<BatchResponse> Verifier::RunBatch(const BatchRequest& request) {
  if (request.properties == nullptr) {
    return Status::InvalidArgument(
        "BatchRequest::properties is null: point it at the property catalog",
        WAVE_LOC);
  }
  const std::vector<Property>& catalog = *request.properties;
  std::vector<int> indices = request.property_indices;
  if (indices.empty()) {
    indices.resize(catalog.size());
    for (size_t i = 0; i < catalog.size(); ++i) {
      indices[i] = static_cast<int>(i);
    }
  }
  std::vector<const Property*> props;
  props.reserve(indices.size());
  for (int index : indices) {
    if (index < 0 || index >= static_cast<int>(catalog.size())) {
      return Status::InvalidArgument(
          "BatchRequest: property index " + std::to_string(index) +
              " out of range (catalog has " + std::to_string(catalog.size()) +
              " properties)",
          WAVE_LOC);
    }
    props.push_back(&catalog[index]);
  }
  // Validate every property up front: a bad property fails the whole
  // batch before any search runs, never halfway through.
  for (const Property* p : props) {
    WAVE_RETURN_IF_ERROR(ValidatePropertyForSpec(*spec_, *p));
  }
  WAVE_RETURN_IF_ERROR(
      ValidateCandidateBudgets(request.options, request.retry));

  const int jobs = WorkerPool::ResolveJobs(request.jobs);
  Stopwatch watch;
  int64_t batch_heartbeats = 0;
  BatchResponse batch;
  batch.responses = VerifyProperties(session_.get(), spec_, &prepared_, props,
                                     request.options, request.retry, jobs,
                                     request.cache, &batch_heartbeats);

  VerifyStats& merged = batch.merged;
  for (const VerifyResponse& r : batch.responses) merged.Merge(r.stats);
  // Batch-level heartbeats fired by the fused searches' coordinators (the
  // per-response stats carry none when n > 1: a heartbeat spans every
  // property at once and cannot be attributed to one of them).
  merged.heartbeats += batch_heartbeats;
  merged.seconds = watch.ElapsedSeconds();
  return batch;
}

namespace {

/// True when `next` enlarges at least one budget over `prev` (otherwise
/// re-running it could only repeat the same kUnknown).
bool Escalates(const RetryRung& prev, const RetryRung& next) {
  bool wider_candidates = next.max_candidates > prev.max_candidates;
  bool wider_expansions =
      (next.max_expansions < 0 && prev.max_expansions >= 0) ||
      (next.max_expansions >= 0 && prev.max_expansions >= 0 &&
       next.max_expansions > prev.max_expansions);
  bool wider_existential =
      next.exhaustive_existential && !prev.exhaustive_existential;
  return wider_candidates || wider_expansions || wider_existential;
}

}  // namespace

std::vector<RetryRung> DefaultLadder(const VerifyOptions& base) {
  WAVE_FAULT("retry.ladder.build");
  RetryRung tight;
  tight.name = "tight";
  tight.max_candidates = std::max(4, base.max_candidates / 2);
  // Fail fast: a capped expansion budget even when the base is unlimited.
  tight.max_expansions = base.max_expansions >= 0
                             ? std::max<int64_t>(1, base.max_expansions / 4)
                             : 200000;
  tight.exhaustive_existential = false;

  RetryRung mid;
  mid.name = "base";
  mid.max_candidates = base.max_candidates;
  mid.max_expansions = base.max_expansions;
  mid.exhaustive_existential = base.exhaustive_existential;

  RetryRung wide;
  wide.name = "exhaustive";
  wide.max_candidates = static_cast<int>(std::min<int64_t>(
      kMaxCandidatesLimit, int64_t{base.max_candidates} * 2));
  wide.max_expansions = -1;
  wide.exhaustive_existential = true;

  std::vector<RetryRung> ladder = {tight};
  if (Escalates(tight, mid)) ladder.push_back(mid);
  if (Escalates(ladder.back(), wide)) ladder.push_back(wide);
  return ladder;
}

void VerifyStats::Merge(const VerifyStats& other) {
  ForEachField([&](const char*, auto member, StatsMerge merge) {
    auto& into = this->*member;
    const auto& from = other.*member;
    if constexpr (std::is_same_v<std::decay_t<decltype(into)>,
                                 obs::HistogramData>) {
      into.MergeFrom(from);
    } else {
      into = merge == StatsMerge::kMax ? std::max(into, from) : into + from;
    }
  });
}

obs::Json VerifyStats::ToJson() const {
  obs::Json j = obs::Json::Object();
  ForEachField([&](const char* key, auto member, StatsMerge) {
    const auto& value = this->*member;
    using T = std::decay_t<decltype(value)>;
    if constexpr (std::is_same_v<T, obs::HistogramData>) {
      j.Set(key, value.ToJson());
    } else if constexpr (std::is_same_v<T, double>) {
      j.Set(key, obs::Json::Number(value));
    } else {
      j.Set(key, obs::Json::Int(value));
    }
  });
  return j;
}

std::string VerifyResult::CounterexampleString(const WebAppSpec& spec) const {
  if (verdict != Verdict::kViolated) return "(no counterexample)";
  std::string out;
  auto render = [&](const CounterexampleStep& step, const char* phase,
                    int index) {
    out += std::string(phase) + "[" + std::to_string(index) + "] page " +
           spec.page(step.config.page).name + ", automaton state " +
           std::to_string(step.buchi_state) + "\n";
    std::string data = step.config.data.ToString(spec.symbols());
    out += data;
    std::string prev = step.config.previous.ToString(spec.symbols());
    if (!prev.empty()) out += "previous inputs:\n" + prev;
  };
  for (size_t i = 0; i < stick.size(); ++i) {
    render(stick[i], "stick", static_cast<int>(i));
  }
  for (size_t i = 0; i < candy.size(); ++i) {
    render(candy[i], "candy", static_cast<int>(i));
  }
  out += "(cycle loops back to candy[0])\n";
  return out;
}

}  // namespace wave
