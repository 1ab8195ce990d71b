#include "buchi/buchi.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>

#include "common/check.h"

namespace wave {

bool NormalizeGuard(Guard* guard) {
  std::sort(guard->begin(), guard->end());
  guard->erase(std::unique(guard->begin(), guard->end()), guard->end());
  for (size_t i = 0; i + 1 < guard->size(); ++i) {
    if ((*guard)[i].prop == (*guard)[i + 1].prop &&
        (*guard)[i].positive != (*guard)[i + 1].positive) {
      return false;  // contradictory
    }
  }
  return true;
}

bool GuardSatisfied(const Guard& guard, const std::vector<bool>& assignment) {
  for (const Literal& lit : guard) {
    WAVE_CHECK(lit.prop >= 0 &&
               lit.prop < static_cast<int>(assignment.size()));
    if (assignment[lit.prop] != lit.positive) return false;
  }
  return true;
}

int BuchiAutomaton::NumTransitions() const {
  int n = 0;
  for (const auto& ts : adj) n += static_cast<int>(ts.size());
  return n;
}

namespace {

uint64_t MixInto(uint64_t hash, uint64_t value) {
  hash = (hash ^ value) * 0xbf58476d1ce4e5b9ULL;
  return hash ^ (hash >> 31);
}

/// Per-state int sequences in one buffer, with an open-addressing index
/// that finds the first indexed state holding an equal sequence.
class Signatures {
 public:
  explicit Signatures(int num_states) {
    size_t capacity = 16;
    while (capacity < 2 * static_cast<size_t>(num_states)) capacity *= 2;
    slots_.resize(capacity);
  }

  void Clear() {
    flat_.clear();
    begin_.assign(1, 0);
    std::fill(slots_.begin(), slots_.end(), -1);
  }
  void Append(int value) { flat_.push_back(value); }
  /// Closes the sequence of the next state (states are numbered in order).
  void EndState() { begin_.push_back(static_cast<int>(flat_.size())); }

  /// The first indexed state whose sequence equals that of `s`, or -1;
  /// then indexes `s` if `insert` is set and no state matched.
  int Find(int s, bool insert) {
    const int* seq = flat_.data() + begin_[s];
    const int len = begin_[s + 1] - begin_[s];
    uint64_t hash = static_cast<uint64_t>(len);
    for (int i = 0; i < len; ++i) {
      hash = MixInto(hash, static_cast<uint32_t>(seq[i]));
    }
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
  std::vector<int> flat_;
  std::vector<int> begin_;  // state s's sequence is [begin_[s], begin_[s+1])
  std::vector<int> slots_;  // state ids, -1 empty
};

/// Hash of a guard's literals, for interning.
struct GuardHash {
  size_t operator()(const Guard& g) const {
    uint64_t hash = g.size();
    for (const Literal& lit : g) {
      hash = MixInto(hash, 2 * static_cast<uint64_t>(lit.prop) + lit.positive);
    }
    return hash;
  }
};

/// Applies a state renumbering: `keep[s]` is the new id of s or -1 to drop.
void Renumber(BuchiAutomaton* a, const std::vector<int>& keep,
              int new_count) {
  std::vector<std::vector<BuchiTransition>> adj(new_count);
  std::vector<bool> accepting(new_count, false);
  for (int s = 0; s < a->NumStates(); ++s) {
    if (keep[s] < 0) continue;
    accepting[keep[s]] = a->accepting[s];
    for (BuchiTransition& t : a->adj[s]) {
      if (keep[t.to] < 0) continue;
      adj[keep[s]].push_back({keep[t.to], std::move(t.guard)});
    }
  }
  for (auto& ts : adj) {
    std::sort(ts.begin(), ts.end());
    ts.erase(std::unique(ts.begin(), ts.end()), ts.end());
  }
  a->adj = std::move(adj);
  a->accepting = std::move(accepting);
  a->start = keep[a->start];
  WAVE_CHECK(a->start >= 0);
}

/// Ensures the automaton has at least a start state.
void EnsureNonDegenerate(BuchiAutomaton* a) {
  if (a->NumStates() == 0) {
    a->adj.resize(1);
    a->accepting.assign(1, false);
    a->start = 0;
  }
}

std::vector<bool> ReachableFromStart(const BuchiAutomaton& a) {
  std::vector<bool> seen(a.NumStates(), false);
  std::vector<int> stack = {a.start};
  seen[a.start] = true;
  while (!stack.empty()) {
    int s = stack.back();
    stack.pop_back();
    for (const BuchiTransition& t : a.adj[s]) {
      if (!seen[t.to]) {
        seen[t.to] = true;
        stack.push_back(t.to);
      }
    }
  }
  return seen;
}

/// Tarjan SCC; returns component index per state and component count.
int StronglyConnectedComponents(const BuchiAutomaton& a,
                                std::vector<int>* comp) {
  int n = a.NumStates();
  comp->assign(n, -1);
  std::vector<int> index(n, -1), low(n, 0), on_stack(n, 0);
  std::vector<int> stack;
  int next_index = 0, num_comp = 0;

  // Iterative Tarjan (explicit call stack) to avoid deep recursion.
  struct Frame {
    int v;
    size_t edge;
  };
  for (int root = 0; root < n; ++root) {
    if (index[root] != -1) continue;
    std::vector<Frame> frames = {{root, 0}};
    index[root] = low[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = 1;
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.edge < a.adj[f.v].size()) {
        int w = a.adj[f.v][f.edge++].to;
        if (index[w] == -1) {
          index[w] = low[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = 1;
          frames.push_back({w, 0});
        } else if (on_stack[w]) {
          low[f.v] = std::min(low[f.v], index[w]);
        }
      } else {
        if (low[f.v] == index[f.v]) {
          int w;
          do {
            w = stack.back();
            stack.pop_back();
            on_stack[w] = 0;
            (*comp)[w] = num_comp;
          } while (w != f.v);
          ++num_comp;
        }
        int v = f.v;
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().v] = std::min(low[frames.back().v], low[v]);
        }
      }
    }
  }
  return num_comp;
}

/// True if state `s` lies on some cycle (nontrivial SCC or a self-loop).
std::vector<bool> OnCycle(const BuchiAutomaton& a) {
  std::vector<int> comp;
  StronglyConnectedComponents(a, &comp);
  std::vector<int> comp_size(a.NumStates(), 0);
  for (int c : comp) comp_size[c]++;
  std::vector<bool> on_cycle(a.NumStates(), false);
  for (int s = 0; s < a.NumStates(); ++s) {
    if (comp_size[comp[s]] > 1) {
      on_cycle[s] = true;
    } else {
      for (const BuchiTransition& t : a.adj[s]) {
        if (t.to == s) on_cycle[s] = true;
      }
    }
  }
  return on_cycle;
}

}  // namespace

void BuchiAutomaton::RemoveUnreachable() {
  std::vector<bool> seen = ReachableFromStart(*this);
  std::vector<int> keep(NumStates(), -1);
  int next = 0;
  for (int s = 0; s < NumStates(); ++s) {
    if (seen[s]) keep[s] = next++;
  }
  Renumber(this, keep, next);
  EnsureNonDegenerate(this);
}

void BuchiAutomaton::ClearAcceptanceOffCycles() {
  std::vector<bool> on_cycle = OnCycle(*this);
  for (int s = 0; s < NumStates(); ++s) {
    if (!on_cycle[s]) accepting[s] = false;
  }
}

void BuchiAutomaton::RemoveSubsumedTransitions(StopPoll& poll) {
  std::vector<char> subsumed;
  for (auto& ts : adj) {
    const int64_t degree = static_cast<int64_t>(ts.size());
    if (poll.Tick(1 + degree * degree)) return;
    subsumed.assign(ts.size(), 0);
    for (size_t i = 0; i < ts.size(); ++i) {
      const BuchiTransition& t = ts[i];
      for (size_t j = 0; j < ts.size(); ++j) {
        const BuchiTransition& other = ts[j];
        if (j == i || other.to != t.to) continue;
        // `other` subsumes `t` if other's guard is a subset of t's guard
        // (weaker condition, fires whenever t does). Of equal guards, the
        // first copy stays.
        bool subset = std::includes(t.guard.begin(), t.guard.end(),
                                    other.guard.begin(), other.guard.end());
        if (subset && (other.guard != t.guard || j < i)) {
          subsumed[i] = 1;
          break;
        }
      }
    }
    size_t kept = 0;
    for (size_t i = 0; i < ts.size(); ++i) {
      if (subsumed[i]) continue;
      if (kept != i) ts[kept] = std::move(ts[i]);
      ++kept;
    }
    ts.resize(kept);
  }
}

void BuchiAutomaton::MergeEquivalentStates(StopPoll& poll) {
  int n = NumStates();
  // Guards interned to dense ids, so a state's signature — its class, then
  // its sorted (guard id, successor class) pairs — is a sequence of ints.
  std::unordered_map<Guard, int, GuardHash> guard_ids;
  std::vector<int> edge_begin = {0};
  std::vector<std::pair<int, int>> edges;  // (guard id, target)
  for (int s = 0; s < n; ++s) {
    for (const BuchiTransition& t : adj[s]) {
      int id = guard_ids.emplace(t.guard, static_cast<int>(guard_ids.size()))
                   .first->second;
      edges.emplace_back(id, t.to);
    }
    edge_begin.push_back(static_cast<int>(edges.size()));
  }
  std::vector<int> part(n);
  for (int s = 0; s < n; ++s) part[s] = accepting[s] ? 1 : 0;
  Signatures signatures(n);
  std::vector<std::pair<int, int>> pairs;
  auto append_successors = [&](int s) {
    pairs.clear();
    for (int e = edge_begin[s]; e < edge_begin[s + 1]; ++e) {
      pairs.emplace_back(edges[e].first, part[edges[e].second]);
    }
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    for (const auto& [guard, cls] : pairs) {
      signatures.Append(guard);
      signatures.Append(cls);
    }
  };
  bool changed = true;
  std::vector<int> next_part(n);
  while (changed) {
    if (poll.Tick(n + static_cast<int64_t>(edges.size()))) return;
    changed = false;
    signatures.Clear();
    for (int s = 0; s < n; ++s) {
      signatures.Append(part[s]);
      append_successors(s);
      signatures.EndState();
    }
    // Class ids are handed out in state order.
    int classes = 0;
    for (int s = 0; s < n; ++s) {
      int first = signatures.Find(s, /*insert=*/true);
      next_part[s] = first < 0 ? classes++ : next_part[first];
    }
    if (next_part != part) {
      part.swap(next_part);
      changed = true;
    }
  }
  // Acceptance folding: a state not on any cycle is visited finitely often
  // by every run, so its acceptance flag is irrelevant; fold it into any
  // class with the same successor signature even if acceptance differs.
  {
    std::vector<bool> on_cycle = OnCycle(*this);
    // Normalize first so folding can never manufacture acceptance.
    for (int s = 0; s < n; ++s) {
      if (!on_cycle[s]) accepting[s] = false;
    }
    bool folded = true;
    while (folded) {
      if (poll.Tick(n + static_cast<int64_t>(edges.size()))) return;
      folded = false;
      signatures.Clear();
      for (int s = 0; s < n; ++s) {
        append_successors(s);
        signatures.EndState();
      }
      for (int s = 0; s < n; ++s) {
        if (on_cycle[s]) signatures.Find(s, /*insert=*/true);
      }
      for (int s = 0; s < n; ++s) {
        if (on_cycle[s]) continue;
        int first = signatures.Find(s, /*insert=*/false);
        if (first >= 0 && part[s] != part[first]) {
          part[s] = part[first];
          folded = true;
        }
      }
    }
  }
  // Keep one representative per class.
  int num_classes = 0;
  for (int p : part) num_classes = std::max(num_classes, p + 1);
  std::vector<int> rep(num_classes, -1);
  std::vector<int> keep(n, -1);
  int next = 0;
  for (int s = 0; s < n; ++s) {
    if (rep[part[s]] == -1) {
      rep[part[s]] = next;
      keep[s] = next++;
    }
  }
  std::vector<std::vector<BuchiTransition>> new_adj(next);
  std::vector<bool> new_acc(next, false);
  for (int s = 0; s < n; ++s) {
    int cls = rep[part[s]];
    // OR: folded off-cycle members must not clear an accepting class.
    new_acc[cls] = new_acc[cls] || accepting[s];
    for (BuchiTransition& t : adj[s]) {
      new_adj[cls].push_back({rep[part[t.to]], std::move(t.guard)});
    }
  }
  for (auto& ts : new_adj) {
    std::sort(ts.begin(), ts.end());
    ts.erase(std::unique(ts.begin(), ts.end()), ts.end());
  }
  adj = std::move(new_adj);
  accepting = std::move(new_acc);
  start = rep[part[start]];
}

void BuchiAutomaton::PruneDeadStates(StopPoll& poll) {
  // States on an accepting cycle.
  std::vector<int> comp;
  StronglyConnectedComponents(*this, &comp);
  std::vector<int> comp_size(NumStates(), 0);
  for (int c : comp) comp_size[c]++;
  std::vector<bool> live(NumStates(), false);
  for (int s = 0; s < NumStates(); ++s) {
    if (!accepting[s]) continue;
    bool on_cycle = comp_size[comp[s]] > 1;
    if (!on_cycle) {
      for (const BuchiTransition& t : adj[s]) {
        if (t.to == s) on_cycle = true;
      }
    }
    if (on_cycle) live[s] = true;
  }
  // Backward closure: a state is live if it reaches a live state. Iterate
  // to fixpoint (automata are small).
  bool changed = true;
  while (changed) {
    if (poll.Tick(NumStates())) return;
    changed = false;
    for (int s = 0; s < NumStates(); ++s) {
      if (live[s]) continue;
      for (const BuchiTransition& t : adj[s]) {
        if (live[t.to]) {
          live[s] = true;
          changed = true;
          break;
        }
      }
    }
  }
  std::vector<int> keep(NumStates(), -1);
  int next = 0;
  // Always keep the start state so the automaton stays well-formed.
  for (int s = 0; s < NumStates(); ++s) {
    if (live[s] || s == start) keep[s] = next++;
  }
  Renumber(this, keep, next);
  EnsureNonDegenerate(this);
}

void BuchiAutomaton::Simplify(StopPoll& poll) {
  // Cheap fixpoint: each pass only shrinks the automaton.
  int prev_states = -1, prev_transitions = -1;
  while (prev_states != NumStates() || prev_transitions != NumTransitions()) {
    if (poll.Tick(NumStates())) return;
    prev_states = NumStates();
    prev_transitions = NumTransitions();
    RemoveUnreachable();
    RemoveSubsumedTransitions(poll);
    ClearAcceptanceOffCycles();
    MergeEquivalentStates(poll);
    PruneDeadStates(poll);
  }
}

bool BuchiAutomaton::IsEmptyLanguage() const {
  BuchiAutomaton copy = *this;
  copy.RemoveUnreachable();
  std::vector<int> comp;
  StronglyConnectedComponents(copy, &comp);
  std::vector<int> comp_size(copy.NumStates(), 0);
  for (int c : comp) comp_size[c]++;
  for (int s = 0; s < copy.NumStates(); ++s) {
    if (!copy.accepting[s]) continue;
    if (comp_size[comp[s]] > 1) return false;
    for (const BuchiTransition& t : copy.adj[s]) {
      if (t.to == s) return false;
    }
  }
  return true;
}

std::string BuchiAutomaton::ToDot(
    const std::function<std::string(int)>& prop_name) const {
  std::string out = "digraph buchi {\n  rankdir=LR;\n";
  out += "  init [shape=point];\n";
  for (int s = 0; s < NumStates(); ++s) {
    out += "  s" + std::to_string(s) + " [shape=" +
           (accepting[s] ? "doublecircle" : "circle") + "];\n";
  }
  out += "  init -> s" + std::to_string(start) + ";\n";
  for (int s = 0; s < NumStates(); ++s) {
    for (const BuchiTransition& t : adj[s]) {
      std::string label;
      if (t.guard.empty()) {
        label = "true";
      } else {
        for (size_t i = 0; i < t.guard.size(); ++i) {
          if (i > 0) label += " & ";
          if (!t.guard[i].positive) label += "!";
          label += prop_name ? prop_name(t.guard[i].prop)
                             : "P" + std::to_string(t.guard[i].prop);
        }
      }
      out += "  s" + std::to_string(s) + " -> s" + std::to_string(t.to) +
             " [label=\"" + label + "\"];\n";
    }
  }
  out += "}\n";
  return out;
}

}  // namespace wave
