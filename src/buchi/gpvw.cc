#include "buchi/gpvw.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "obs/alloc.h"

namespace wave {

namespace {

using Kind = PropArena::Kind;
using Words = std::vector<uint64_t>;

constexpr int kInitName = -1;

bool TestBit(const uint64_t* set, int i) {
  return (set[i >> 6] >> (i & 63)) & uint64_t{1};
}
void SetBit(uint64_t* set, int i) { set[i >> 6] |= uint64_t{1} << (i & 63); }

/// The NNF closure of the root: every node the expansion can put into a
/// tableau node's New, Old or Next set, indexed densely in ascending
/// PropId order. Sets over the closure are word arrays, and the lowest set
/// bit of one is its smallest PropId.
struct Closure {
  struct Member {
    Kind kind;
    int left = -1;        // closure index of the body / lhs
    int right = -1;       // closure index of the rhs
    int complement = -1;  // literals: closure index of the negation
    Literal literal;      // kProp / kNot: the guard literal
  };

  Closure(const PropArena& arena, PropId root) {
    // Obligations enter New as the root, the operands of ∧ ∨ U R, and (via
    // Next) the body of X; a negated proposition is a literal, not opened.
    std::vector<char> seen(arena.size(), 0);
    std::vector<PropId> stack = {root}, ids;
    seen[root] = 1;
    while (!stack.empty()) {
      PropId f = stack.back();
      stack.pop_back();
      ids.push_back(f);
      const PropArena::Node& n = arena.node(f);
      if (n.kind == Kind::kProp || n.kind == Kind::kNot ||
          n.kind == Kind::kTrue || n.kind == Kind::kFalse) {
        continue;
      }
      WAVE_CHECK_MSG(n.kind == Kind::kAnd || n.kind == Kind::kOr ||
                         n.kind == Kind::kU || n.kind == Kind::kR ||
                         n.kind == Kind::kX,
                     "non-NNF node in GPVW expansion");
      for (PropId c : {n.left, n.right}) {
        if (c >= 0 && !seen[c]) {
          seen[c] = 1;
          stack.push_back(c);
        }
      }
    }
    std::sort(ids.begin(), ids.end());
    std::vector<int> index(arena.size(), -1);
    for (size_t i = 0; i < ids.size(); ++i) index[ids[i]] = static_cast<int>(i);
    members.resize(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      const PropArena::Node& n = arena.node(ids[i]);
      Member& m = members[i];
      m.kind = n.kind;
      if (n.kind == Kind::kProp) {
        m.literal = {n.prop, true};
      } else if (n.kind == Kind::kNot) {
        m.literal = {arena.node(n.left).prop, false};
        int p = index[n.left];
        if (p >= 0) {
          m.complement = p;
          members[p].complement = static_cast<int>(i);
        }
      } else if (n.kind != Kind::kTrue && n.kind != Kind::kFalse) {
        m.left = index[n.left];
        if (n.right >= 0) m.right = index[n.right];
      }
    }
    root_index = index[root];
    words = static_cast<int>((members.size() + 63) / 64);
  }

  std::vector<Member> members;
  int root_index = -1;
  int words = 0;  // 64-bit words per subset
};

/// A completed tableau node: its Old and Next sets (`words` each, in that
/// order) and the names of its predecessors.
struct TableauNode {
  Words old_next;
  std::vector<int> incoming;  // kInitName denotes the initial edge
};

/// GPVW expansion over closure bitsets. A node under expansion carries its
/// New, Old and Next sets in one word array; it takes obligations from New
/// smallest PropId first, splits depth first, and on completion either
/// merges into the registered node with the same Old and Next sets or is
/// registered under the next name, queueing its successor.
class Expander {
 public:
  /// Builds the whole tableau, or stops with a partial one once `poll`
  /// stops (it ticks once per node taken up).
  Expander(const Closure& closure, StopPoll& poll)
      : c_(closure), w_(closure.words), poll_(poll) {
    pending_.push_back(Fresh(kInitName));
    SetBit(pending_.back().words.data(), c_.root_index);
    while (!pending_.empty() && !poll_.stopped()) {
      Expanding node = std::move(pending_.front());
      pending_.pop_front();
      Expand(std::move(node));
    }
    for (TableauNode& nd : done_) {
      std::sort(nd.incoming.begin(), nd.incoming.end());
      nd.incoming.erase(std::unique(nd.incoming.begin(), nd.incoming.end()),
                        nd.incoming.end());
    }
  }

  const std::vector<TableauNode>& nodes() const { return done_; }

 private:
  struct Expanding {
    int pred;
    Words words;  // New, Old, Next
  };

  Expanding Fresh(int pred) const { return {pred, Words(3 * w_, 0)}; }

  uint64_t* New(Expanding& n) const { return n.words.data(); }
  uint64_t* Old(Expanding& n) const { return n.words.data() + w_; }
  uint64_t* Next(Expanding& n) const { return n.words.data() + 2 * w_; }

  /// Adds obligation `i` to New unless it is already in Old.
  void Oblige(Expanding& n, int i) const {
    if (!TestBit(Old(n), i)) SetBit(New(n), i);
  }

  int PopLowestNew(Expanding& n) const {
    uint64_t* nnew = New(n);
    for (int w = 0; w < w_; ++w) {
      if (nnew[w] != 0) {
        int bit = __builtin_ctzll(nnew[w]);
        nnew[w] &= nnew[w] - 1;
        return w * 64 + bit;
      }
    }
    return -1;
  }

  /// Expands `root` and every node split off it, depth first: the second
  /// branch of a split waits on the stack until the first is done.
  void Expand(Expanding root) {
    std::vector<Expanding> stack;
    stack.push_back(std::move(root));
    while (!stack.empty()) {
      if (poll_.Tick()) return;
      Expanding node = std::move(stack.back());
      stack.pop_back();
      while (true) {
        int f = PopLowestNew(node);
        if (f < 0) {
          Complete(std::move(node));
          break;
        }
        const Closure::Member& m = c_.members[f];
        if (m.kind == Kind::kFalse) break;  // contradiction
        if (m.kind == Kind::kTrue) continue;
        if (m.kind == Kind::kProp || m.kind == Kind::kNot) {
          if (m.complement >= 0 && TestBit(Old(node), m.complement)) {
            break;  // p & !p
          }
          SetBit(Old(node), f);
          continue;
        }
        if (m.kind == Kind::kAnd) {
          Oblige(node, m.left);
          Oblige(node, m.right);
          SetBit(Old(node), f);
          continue;
        }
        if (m.kind == Kind::kX) {
          SetBit(Next(node), m.left);
          SetBit(Old(node), f);
          continue;
        }
        // ∨, U and R split: f = l ∨ r into l | r; f = l U r into
        // (l ∧ X f) | r; f = l R r into (r ∧ X f) | (l ∧ r).
        Expanding second = node;
        if (m.kind == Kind::kOr) {
          Oblige(node, m.left);
          Oblige(second, m.right);
        } else if (m.kind == Kind::kU) {
          Oblige(node, m.left);
          SetBit(Next(node), f);
          Oblige(second, m.right);
        } else {
          Oblige(node, m.right);
          SetBit(Next(node), f);
          Oblige(second, m.left);
          Oblige(second, m.right);
        }
        SetBit(Old(node), f);
        SetBit(Old(second), f);
        stack.push_back(std::move(second));
      }
    }
  }

  /// A fully processed node: merges with the registered node having the
  /// same Old and Next sets, else registers it and queues its successor.
  void Complete(Expanding node) {
    const uint64_t* key = Old(node);
    uint64_t hash = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 2 * w_; ++i) {
      hash = (hash ^ key[i]) * 0xbf58476d1ce4e5b9ULL;
      hash ^= hash >> 31;
    }
    auto [it, inserted] =
        by_hash_.emplace(hash, static_cast<int>(done_.size()));
    if (!inserted) {
      for (int i = it->second; i >= 0; i = same_hash_[i]) {
        if (std::equal(key, key + 2 * w_, done_[i].old_next.begin())) {
          done_[i].incoming.push_back(node.pred);
          return;
        }
      }
      same_hash_.push_back(it->second);
      it->second = static_cast<int>(done_.size());
    } else {
      same_hash_.push_back(-1);
    }
    int name = static_cast<int>(done_.size());
    Expanding succ = Fresh(name);
    std::copy(Next(node), Next(node) + w_, New(succ));
    TableauNode registered;
    registered.old_next.assign(key, key + 2 * w_);
    registered.incoming.push_back(node.pred);
    obs::CountAlloc(static_cast<int64_t>(sizeof(TableauNode) +
                                         2 * w_ * sizeof(uint64_t)));
    done_.push_back(std::move(registered));
    pending_.push_back(std::move(succ));
  }

  const Closure& c_;
  const int w_;
  StopPoll& poll_;
  std::vector<TableauNode> done_;  // indexed by name
  std::unordered_map<uint64_t, int> by_hash_;  // newest node per hash
  std::vector<int> same_hash_;  // per node: the previous one with its hash
  std::deque<Expanding> pending_;
};

}  // namespace

std::optional<BuchiAutomaton> LtlToBuchi(PropArena* arena, PropId f,
                                         int num_props,
                                         const GpvwOptions& options) {
  PropId nnf = arena->Rewrite(arena->Nnf(f));

  StopPoll poll(options.stop);
  const Closure closure(*arena, nnf);
  const Expander expander(closure, poll);
  if (poll.stopped()) return std::nullopt;
  const std::vector<TableauNode>& nodes = expander.nodes();
  const int w = closure.words;
  auto old_has = [&](const TableauNode& q, int i) {
    return TestBit(q.old_next.data(), i);
  };

  // The U-subformulas appearing in any node induce the generalized
  // acceptance sets F_{lUr} = { q : lUr ∉ Old(q) or r ∈ Old(q) }.
  Words any(w, 0);
  for (const TableauNode& nd : nodes) {
    for (int i = 0; i < w; ++i) any[i] |= nd.old_next[i] | nd.old_next[w + i];
  }
  std::vector<int> untils;
  for (int i = 0; i < static_cast<int>(closure.members.size()); ++i) {
    if (TestBit(any.data(), i) && closure.members[i].kind == Kind::kU) {
      untils.push_back(i);
    }
  }
  int k = static_cast<int>(untils.size());

  // State 0 is a fresh initial state (the paper's automata also carry an
  // explicit start); the node named n is state n + 1.
  auto state_of_name = [](int name) { return name + 1; };
  int num_gba_states = static_cast<int>(nodes.size()) + 1;

  // Guard of every transition *into* node q: conjunction of literals in
  // Old(q).
  auto guard_of = [&](const TableauNode& q) -> Guard {
    Guard g;
    for (int i = 0; i < static_cast<int>(closure.members.size()); ++i) {
      const Closure::Member& m = closure.members[i];
      if ((m.kind == Kind::kProp || m.kind == Kind::kNot) && old_has(q, i)) {
        g.push_back(m.literal);
      }
    }
    bool ok = NormalizeGuard(&g);
    WAVE_CHECK(ok);  // expansion already rejects contradictions
    return g;
  };

  // Membership in acceptance set i.
  auto in_accept_set = [&](const TableauNode& q, int i) {
    int u = untils[i];
    if (!old_has(q, u)) return true;
    return old_has(q, closure.members[u].right);
  };

  BuchiAutomaton out;
  out.num_props = num_props;

  if (k == 0) {
    // No Until subformulas: the generalized condition is vacuous; every
    // state is accepting.
    out.adj.assign(num_gba_states, {});
    out.accepting.assign(num_gba_states, true);
    out.start = 0;
    for (int name = 0; name < static_cast<int>(nodes.size()); ++name) {
      const TableauNode& q = nodes[name];
      if (poll.Tick(1 + static_cast<int64_t>(q.incoming.size()))) {
        return std::nullopt;
      }
      Guard g = guard_of(q);
      for (int p_name : q.incoming) {
        out.adj[state_of_name(p_name)].push_back({state_of_name(name), g});
      }
    }
  } else {
    // Degeneralize with a counter: state (q, i) waits to see acceptance
    // set i. From (q, i) an edge q->q' goes to (q', i') where i' advances
    // when q belongs to F_i. Accepting: (q, 0) with q ∈ F_0.
    auto id_of = [&](int state, int counter) {
      return state * k + counter;
    };
    out.adj.assign(num_gba_states * k, {});
    out.accepting.assign(num_gba_states * k, false);
    out.start = id_of(0, 0);
    // Initial virtual state: belongs to every F_i vacuously (it has no Old
    // set), so its counter advances; keep it simple and treat it as in all
    // acceptance sets.
    std::vector<std::vector<bool>> in_f(num_gba_states,
                                        std::vector<bool>(k, true));
    for (int name = 0; name < static_cast<int>(nodes.size()); ++name) {
      if (poll.Tick(k)) return std::nullopt;
      for (int i = 0; i < k; ++i) {
        in_f[state_of_name(name)][i] = in_accept_set(nodes[name], i);
      }
    }
    for (int s = 0; s < num_gba_states; ++s) {
      if (in_f[s][0]) out.accepting[id_of(s, 0)] = true;
    }
    for (int name = 0; name < static_cast<int>(nodes.size()); ++name) {
      const TableauNode& q = nodes[name];
      if (poll.Tick(1 + static_cast<int64_t>(q.incoming.size()) * k)) {
        return std::nullopt;
      }
      Guard g = guard_of(q);
      int to_state = state_of_name(name);
      for (int p_name : q.incoming) {
        int from_state = state_of_name(p_name);
        for (int i = 0; i < k; ++i) {
          int next_i = in_f[from_state][i] ? (i + 1) % k : i;
          out.adj[id_of(from_state, i)].push_back(
              {id_of(to_state, next_i), g});
        }
      }
    }
  }

  if (options.stats != nullptr) {
    options.stats->tableau_nodes = static_cast<int>(nodes.size());
    options.stats->until_subformulas = k;
    options.stats->states_before_simplify = out.NumStates();
  }
  if (options.simplify) out.Simplify(poll);
  if (poll.stopped()) return std::nullopt;
  if (options.stats != nullptr) {
    options.stats->states_after_simplify = out.NumStates();
  }
  return out;
}

}  // namespace wave
