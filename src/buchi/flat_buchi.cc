#include "buchi/flat_buchi.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>

#include "common/check.h"

namespace wave {

namespace {

uint64_t MixInto(uint64_t hash, uint64_t value) {
  hash = (hash ^ value) * 0xbf58476d1ce4e5b9ULL;
  return hash ^ (hash >> 31);
}

/// Per-state sequences of 64-bit words in one buffer, with an
/// open-addressing index that finds the first indexed state holding an
/// equal sequence.
class Signatures {
 public:
  void Clear(int num_states) {
    size_t capacity = 16;
    while (capacity < 2 * static_cast<size_t>(num_states)) capacity *= 2;
    slots_.assign(capacity, -1);
    flat_.clear();
    begin_.assign(1, 0);
  }
  void Append(uint64_t value) { flat_.push_back(value); }
  /// Closes the sequence of the next state (states are numbered in order).
  void EndState() { begin_.push_back(static_cast<int>(flat_.size())); }

  /// The first indexed state whose sequence equals that of `s`, or -1;
  /// then indexes `s` if `insert` is set and no state matched.
  int Find(int s, bool insert) {
    const uint64_t* seq = flat_.data() + begin_[s];
    const int len = begin_[s + 1] - begin_[s];
    uint64_t hash = static_cast<uint64_t>(len);
    for (int i = 0; i < len; ++i) hash = MixInto(hash, seq[i]);
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const int other = slots_[i];
      if (other < 0) {
        if (insert) slots_[i] = s;
        return -1;
      }
      if (begin_[other + 1] - begin_[other] == len &&
          std::equal(seq, seq + len, flat_.data() + begin_[other])) {
        return other;
      }
    }
  }

 private:
  std::vector<uint64_t> flat_;
  std::vector<int> begin_;  // state s's sequence is [begin_[s], begin_[s+1])
  std::vector<int> slots_;  // state ids, -1 empty
};

/// Finds the states on cycles (iterative Tarjan), keeping its arrays
/// between calls.
class Cycles {
 public:
  /// Per state, 1 if it lies on a cycle: in a strongly connected
  /// component of two or more states, or on a self-loop.
  const std::vector<char>& OnCycle(const FlatBuchi& a) {
    const int n = a.NumStates();
    index_.assign(n, -1);
    low_.resize(n);
    on_stack_.assign(n, 0);
    on_cycle_.assign(n, 0);
    int next_index = 0;
    for (int root = 0; root < n; ++root) {
      if (index_[root] != -1) continue;
      frames_.push_back({root, a.first[root]});
      Visit(root, &next_index);
      while (!frames_.empty()) {
        Frame& f = frames_.back();
        if (f.edge < a.first[f.v + 1]) {
          const int w = a.edges[f.edge++].to;
          if (index_[w] == -1) {
            frames_.push_back({w, a.first[w]});
            Visit(w, &next_index);
          } else if (on_stack_[w]) {
            low_[f.v] = std::min(low_[f.v], index_[w]);
          }
          continue;
        }
        const int v = f.v;
        frames_.pop_back();
        if (!frames_.empty()) {
          low_[frames_.back().v] = std::min(low_[frames_.back().v], low_[v]);
        }
        if (low_[v] != index_[v]) continue;
        // v roots a component: the stack above and including it.
        size_t begin = stack_.size();
        do {
          on_stack_[stack_[--begin]] = 0;
        } while (stack_[begin] != v);
        if (stack_.size() - begin > 1) {
          for (size_t i = begin; i < stack_.size(); ++i) {
            on_cycle_[stack_[i]] = 1;
          }
        } else {
          for (int e = a.first[v]; e < a.first[v + 1]; ++e) {
            if (a.edges[e].to == v) on_cycle_[v] = 1;
          }
        }
        stack_.resize(begin);
      }
    }
    return on_cycle_;
  }

 private:
  struct Frame {
    int v;
    int edge;
  };

  void Visit(int v, int* next_index) {
    index_[v] = low_[v] = (*next_index)++;
    stack_.push_back(v);
    on_stack_[v] = 1;
  }

  std::vector<int> index_, low_, stack_;
  std::vector<char> on_stack_, on_cycle_;
  std::vector<Frame> frames_;
};

/// Marks in `seen` the states reachable from the start.
void ReachableFromStart(const FlatBuchi& a, std::vector<int>* stack,
                        std::vector<char>* seen) {
  seen->assign(a.NumStates(), 0);
  stack->assign(1, a.start);
  (*seen)[a.start] = 1;
  while (!stack->empty()) {
    const int s = stack->back();
    stack->pop_back();
    for (int e = a.first[s]; e < a.first[s + 1]; ++e) {
      const int t = a.edges[e].to;
      if (!(*seen)[t]) {
        (*seen)[t] = 1;
        stack->push_back(t);
      }
    }
  }
}

/// Runs the passes of `Simplify` on one automaton, reusing its scratch
/// arrays across passes and rounds.
class Simplifier {
 public:
  Simplifier(const GuardTable& guards, StopPoll& poll, FlatBuchi* a)
      : guards_(guards), poll_(poll), a_(*a) {}

  void Run() {
    // Each pass only shrinks the automaton; stop when a round changes no
    // count.
    int prev_states = -1, prev_transitions = -1;
    while (prev_states != a_.NumStates() ||
           prev_transitions != a_.NumTransitions()) {
      if (poll_.Tick(a_.NumStates())) return;
      prev_states = a_.NumStates();
      prev_transitions = a_.NumTransitions();
      ReachableFromStart(a_, &stack_, &flags_);
      KeepStates(flags_);
      RemoveSubsumedTransitions();
      if (poll_.stopped()) return;
      // A state that cannot reach itself is visited finitely often by
      // every run, so its acceptance flag is irrelevant: clear it (enables
      // merges).
      const std::vector<char>& on_cycle = cycles_.OnCycle(a_);
      for (int s = 0; s < a_.NumStates(); ++s) {
        if (!on_cycle[s]) a_.accepting[s] = 0;
      }
      MergeEquivalentStates(on_cycle);
      if (poll_.stopped()) return;
      PruneDeadStates();
    }
  }

 private:
  /// Keeps the states flagged in `keep`, renumbered in state order, and
  /// the transitions between them. The renumbering preserves order, so
  /// each state's transitions stay sorted; the arrays are compacted in
  /// place.
  void KeepStates(const std::vector<char>& keep) {
    const int n = a_.NumStates();
    new_id_.assign(n, -1);
    int kept = 0;
    for (int s = 0; s < n; ++s) {
      if (keep[s]) new_id_[s] = kept++;
    }
    if (kept == n) return;
    int out = 0;
    for (int s = 0; s < n; ++s) {
      const int begin = a_.first[s], end = a_.first[s + 1];
      if (new_id_[s] < 0) continue;
      a_.first[new_id_[s]] = out;
      a_.accepting[new_id_[s]] = a_.accepting[s];
      for (int e = begin; e < end; ++e) {
        const int to = new_id_[a_.edges[e].to];
        if (to >= 0) a_.edges[out++] = {to, a_.edges[e].guard};
      }
    }
    a_.first[kept] = out;
    a_.first.resize(kept + 1);
    a_.edges.resize(out);
    a_.accepting.resize(kept);
    a_.start = new_id_[a_.start];
  }

  /// Drops every transition whose guard is a proper superset of another's
  /// to the same target (it fires only when the other does); of two equal
  /// guards the first stays.
  void RemoveSubsumedTransitions() {
    const int n = a_.NumStates();
    int out = 0;
    for (int s = 0; s < n; ++s) {
      const int begin = a_.first[s], end = a_.first[s + 1];
      if (poll_.Tick(1 + end - begin)) return;
      a_.first[s] = out;
      // Transitions to one target are adjacent; judge a run, then keep it.
      for (int run = begin; run < end;) {
        int run_end = run + 1;
        while (run_end < end && a_.edges[run_end].to == a_.edges[run].to) {
          ++run_end;
        }
        flags_.assign(run_end - run, 0);
        for (int i = run; i < run_end && run_end - run > 1; ++i) {
          const int gi = a_.edges[i].guard;
          for (int j = run; j < run_end; ++j) {
            const int gj = a_.edges[j].guard;
            if (j != i && (gj == gi ? j < i : guards_.Includes(gi, gj))) {
              flags_[i - run] = 1;
              break;
            }
          }
        }
        for (int i = run; i < run_end; ++i) {
          if (!flags_[i - run]) a_.edges[out++] = a_.edges[i];
        }
        run = run_end;
      }
    }
    a_.first[n] = out;
    a_.edges.resize(out);
  }

  /// Appends state s's successor pairs (guard id, class of the target),
  /// sorted and duplicate-free, one word each.
  void AppendSuccessors(int s) {
    keys_.clear();
    for (int e = a_.first[s]; e < a_.first[s + 1]; ++e) {
      keys_.push_back(static_cast<uint64_t>(a_.edges[e].guard) << 32 |
                      static_cast<uint32_t>(part_[a_.edges[e].to]));
    }
    std::sort(keys_.begin(), keys_.end());
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (i == 0 || keys_[i] != keys_[i - 1]) signatures_.Append(keys_[i]);
    }
  }

  /// Merges states that are equivalent under repeated partition
  /// refinement over (acceptance, successor pairs), class ids handed out
  /// in state order. Then folds each state off every cycle (per
  /// `on_cycle`; its acceptance is already clear) into the first on-cycle
  /// state with the same successor pairs: every run visits it finitely
  /// often, so its acceptance is irrelevant.
  void MergeEquivalentStates(const std::vector<char>& on_cycle) {
    const int n = a_.NumStates();
    part_.resize(n);
    next_part_.resize(n);
    for (int s = 0; s < n; ++s) part_[s] = a_.accepting[s] ? 1 : 0;
    while (true) {
      signatures_.Clear(n);
      for (int s = 0; s < n; ++s) {
        if (poll_.Tick(1 + a_.first[s + 1] - a_.first[s])) return;
        signatures_.Append(static_cast<uint64_t>(part_[s]));
        AppendSuccessors(s);
        signatures_.EndState();
      }
      int classes = 0;
      for (int s = 0; s < n; ++s) {
        const int first = signatures_.Find(s, /*insert=*/true);
        next_part_[s] = first < 0 ? classes++ : next_part_[first];
      }
      if (next_part_ == part_) break;
      part_.swap(next_part_);
    }
    for (bool folded = true; folded;) {
      folded = false;
      signatures_.Clear(n);
      for (int s = 0; s < n; ++s) {
        if (poll_.Tick(1 + a_.first[s + 1] - a_.first[s])) return;
        AppendSuccessors(s);
        signatures_.EndState();
      }
      for (int s = 0; s < n; ++s) {
        if (on_cycle[s]) signatures_.Find(s, /*insert=*/true);
      }
      for (int s = 0; s < n; ++s) {
        if (on_cycle[s]) continue;
        const int first = signatures_.Find(s, /*insert=*/false);
        if (first >= 0 && part_[s] != part_[first]) {
          part_[s] = part_[first];
          folded = true;
        }
      }
    }
    // One state per class, numbered by its first member. When every class
    // is a single state that numbering is the identity.
    rep_.assign(*std::max_element(part_.begin(), part_.end()) + 1, -1);
    int classes = 0;
    for (int s = 0; s < n; ++s) {
      if (rep_[part_[s]] == -1) rep_[part_[s]] = classes++;
    }
    if (classes == n) return;
    FlatBuchi& merged = spare_;
    merged.first.assign(classes + 1, 0);
    merged.accepting.assign(classes, 0);
    for (int s = 0; s < n; ++s) {
      const int cls = rep_[part_[s]];
      merged.first[cls + 1] += a_.first[s + 1] - a_.first[s];
      // OR: folded off-cycle members must not clear an accepting class.
      merged.accepting[cls] |= a_.accepting[s];
    }
    std::partial_sum(merged.first.begin(), merged.first.end(),
                     merged.first.begin());
    merged.edges.resize(a_.edges.size());
    new_id_.assign(merged.first.begin(), merged.first.end() - 1);
    for (int s = 0; s < n; ++s) {
      int& fill = new_id_[rep_[part_[s]]];
      for (int e = a_.first[s]; e < a_.first[s + 1]; ++e) {
        merged.edges[fill++] = {rep_[part_[a_.edges[e].to]],
                                a_.edges[e].guard};
      }
    }
    int out = 0;
    for (int cls = 0; cls < classes; ++cls) {
      const auto begin = merged.edges.begin() + merged.first[cls];
      const auto end = merged.edges.begin() + merged.first[cls + 1];
      std::sort(begin, end);
      merged.first[cls] = out;
      for (auto it = begin; it != end; ++it) {
        if (it == begin || !(*it == *(it - 1))) merged.edges[out++] = *it;
      }
    }
    merged.first[classes] = out;
    merged.edges.resize(out);
    merged.start = rep_[part_[a_.start]];
    std::swap(a_, merged);
  }

  /// Removes the states from which no accepting cycle is reachable, but
  /// always keeps the start state (then possibly without transitions: the
  /// empty language).
  void PruneDeadStates() {
    const int n = a_.NumStates();
    if (poll_.Tick(n + static_cast<int64_t>(a_.NumTransitions()))) return;
    const std::vector<char>& on_cycle = cycles_.OnCycle(a_);
    // Backward closure from the accepting states on cycles.
    pred_first_.assign(n + 1, 0);
    for (const FlatEdge& e : a_.edges) ++pred_first_[e.to + 1];
    std::partial_sum(pred_first_.begin(), pred_first_.end(),
                     pred_first_.begin());
    preds_.resize(a_.edges.size());
    new_id_.assign(pred_first_.begin(), pred_first_.end() - 1);
    for (int s = 0; s < n; ++s) {
      for (int e = a_.first[s]; e < a_.first[s + 1]; ++e) {
        preds_[new_id_[a_.edges[e].to]++] = s;
      }
    }
    flags_.assign(n, 0);
    stack_.clear();
    for (int s = 0; s < n; ++s) {
      if (a_.accepting[s] && on_cycle[s]) {
        flags_[s] = 1;
        stack_.push_back(s);
      }
    }
    while (!stack_.empty()) {
      const int s = stack_.back();
      stack_.pop_back();
      for (int i = pred_first_[s]; i < pred_first_[s + 1]; ++i) {
        if (!flags_[preds_[i]]) {
          flags_[preds_[i]] = 1;
          stack_.push_back(preds_[i]);
        }
      }
    }
    flags_[a_.start] = 1;
    KeepStates(flags_);
  }

  const GuardTable& guards_;
  StopPoll& poll_;
  FlatBuchi& a_;
  Cycles cycles_;
  Signatures signatures_;
  FlatBuchi spare_;  // the merge builds here, then swaps
  std::vector<char> flags_;
  std::vector<int> stack_, new_id_, part_, next_part_, rep_;
  std::vector<int> pred_first_, preds_;
  std::vector<uint64_t> keys_;
};

}  // namespace

int GuardTable::Intern(const Literal* lits, int n) {
  WAVE_CHECK_MSG(!ranked_, "a guard interned after Rank");
  uint64_t hash = static_cast<uint64_t>(n);
  for (int i = 0; i < n; ++i) {
    hash = MixInto(hash, 2 * static_cast<uint64_t>(lits[i].prop) +
                             lits[i].positive);
  }
  if (slots_.empty()) slots_.assign(16, -1);
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const int id = slots_[i];
    if (id < 0) break;
    if (hashes_[id] == hash && first_[id + 1] - first_[id] == n &&
        std::equal(lits, lits + n, lits_.begin() + first_[id])) {
      return id;
    }
  }
  const int id = size();
  lits_.insert(lits_.end(), lits, lits + n);
  first_.push_back(static_cast<int>(lits_.size()));
  hashes_.push_back(hash);
  if (2 * hashes_.size() > slots_.size()) {
    slots_.assign(2 * slots_.size(), -1);
    for (int g = 0; g < size(); ++g) Index(g);
  } else {
    Index(id);
  }
  return id;
}

void GuardTable::Index(int id) {
  const size_t mask = slots_.size() - 1;
  size_t i = hashes_[id] & mask;
  while (slots_[i] >= 0) i = (i + 1) & mask;
  slots_[i] = id;
}

std::vector<int> GuardTable::Rank() {
  std::vector<int> order(size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [this](int a, int b) {
    return std::lexicographical_compare(
        lits_.begin() + first_[a], lits_.begin() + first_[a + 1],
        lits_.begin() + first_[b], lits_.begin() + first_[b + 1]);
  });
  std::vector<int> rank(size());
  std::vector<Literal> lits;
  std::vector<int> first = {0};
  lits.reserve(lits_.size());
  for (int r = 0; r < size(); ++r) {
    const int id = order[r];
    rank[id] = r;
    lits.insert(lits.end(), lits_.begin() + first_[id],
                lits_.begin() + first_[id + 1]);
    first.push_back(static_cast<int>(lits.size()));
  }
  lits_ = std::move(lits);
  first_ = std::move(first);
  // The index served only interning.
  hashes_ = {};
  slots_ = {};
  ranked_ = true;
  return rank;
}

bool GuardTable::Includes(int super, int sub) const {
  return first_[sub + 1] - first_[sub] <= first_[super + 1] - first_[super] &&
         std::includes(lits_.begin() + first_[super],
                       lits_.begin() + first_[super + 1],
                       lits_.begin() + first_[sub],
                       lits_.begin() + first_[sub + 1]);
}

void Simplify(const GuardTable& guards, StopPoll& poll, FlatBuchi* a) {
  Simplifier(guards, poll, a).Run();
}

bool HasAcceptingLasso(const FlatBuchi& a) {
  std::vector<int> stack;
  std::vector<char> reachable;
  ReachableFromStart(a, &stack, &reachable);
  Cycles cycles;
  const std::vector<char>& on_cycle = cycles.OnCycle(a);
  for (int s = 0; s < a.NumStates(); ++s) {
    if (reachable[s] && a.accepting[s] && on_cycle[s]) return true;
  }
  return false;
}

BuchiAutomaton Materialize(const FlatBuchi& a, const GuardTable& guards,
                           int num_props) {
  BuchiAutomaton out;
  out.num_props = num_props;
  out.start = a.start;
  out.adj.resize(a.NumStates());
  out.accepting.resize(a.NumStates());
  for (int s = 0; s < a.NumStates(); ++s) {
    out.accepting[s] = a.accepting[s] != 0;
    out.adj[s].reserve(a.first[s + 1] - a.first[s]);
    for (int e = a.first[s]; e < a.first[s + 1]; ++e) {
      out.adj[s].push_back({a.edges[e].to, guards.ToGuard(a.edges[e].guard)});
    }
  }
  return out;
}

}  // namespace wave
