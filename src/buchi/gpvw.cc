#include "buchi/gpvw.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "buchi/flat_buchi.h"
#include "common/check.h"
#include "obs/alloc.h"

namespace wave {

namespace {

using Kind = PropArena::Kind;

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

/// The GPVW tableau in flat arrays. Tableau state 0 is the initial state
/// and registered node `name` is state name + 1. Every node's Old and Next
/// sets sit side by side in one word array (`2 * words` each, Old first),
/// and an open-addressing index over their stored hashes finds the node a
/// completed expansion merges into. States are expanded in the order they
/// are registered, so a cursor over names replaces the queue: a queued
/// successor's New set is its node's Next set. Each state's successors
/// (node names, each once, ascending) are kept as it is expanded.
class Tableau {
 public:
  /// Builds the whole tableau, or stops with a partial one once `poll`
  /// stops (it ticks once per expansion taken up) or a size cap is passed.
  Tableau(const Closure& closure, StopPoll& poll)
      : c_(closure), w_(closure.words), poll_(poll), slots_(16, -1) {
    for (state_ = 0; state_ <= size(); ++state_) {
      out_first_.push_back(static_cast<int>(out_.size()));
      frames_.assign(3 * w_, 0);
      if (state_ == 0) {
        SetBit(frames_.data(), c_.root_index);
      } else {
        std::copy(Old(state_ - 1) + w_, Old(state_ - 1) + 2 * w_,
                  frames_.data());
      }
      Expand();
      if (poll_.stopped() || over_size_cap_) return;
      std::sort(out_.begin() + out_first_[state_], out_.end());
    }
    out_first_.push_back(static_cast<int>(out_.size()));
  }

  /// True if the tableau stopped early, its nodes or edges already past a
  /// size cap: degeneralization only multiplies them, so the automaton
  /// would be past it too.
  bool over_size_cap() const { return over_size_cap_; }

  /// Registered nodes.
  int size() const { return static_cast<int>(hashes_.size()); }
  /// Node `name`'s Old set, followed by its Next set.
  const uint64_t* Old(int name) const {
    return words_.data() + 2 * static_cast<size_t>(w_) * name;
  }
  /// The successors of tableau state `state` (node names, ascending).
  const int* SuccessorsBegin(int state) const {
    return out_.data() + out_first_[state];
  }
  const int* SuccessorsEnd(int state) const {
    return out_.data() + out_first_[state + 1];
  }
  int64_t NumArcs() const { return static_cast<int64_t>(out_.size()); }

  int64_t Bytes() const {
    return static_cast<int64_t>(
        (words_.capacity() + hashes_.capacity() + frames_.capacity()) *
            sizeof(uint64_t) +
        (slots_.capacity() + listed_.capacity() + out_.capacity() +
         out_first_.capacity()) *
            sizeof(int));
  }

 private:
  // A frame under expansion holds its New, Old and Next sets, `w_` words
  // each.
  uint64_t* OldOf(uint64_t* frame) const { return frame + w_; }
  uint64_t* NextOf(uint64_t* frame) const { return frame + 2 * w_; }

  /// Adds obligation `i` to New unless it is already in Old.
  void Oblige(uint64_t* frame, int i) const {
    if (!TestBit(OldOf(frame), i)) SetBit(frame, i);
  }

  int PopLowestNew(uint64_t* frame) const {
    for (int w = 0; w < w_; ++w) {
      if (frame[w] != 0) {
        int bit = __builtin_ctzll(frame[w]);
        frame[w] &= frame[w] - 1;
        return w * 64 + bit;
      }
    }
    return -1;
  }

  /// Expands the frames on the stack, depth first, until none is left or
  /// a size cap is passed.
  void Expand() {
    while (!frames_.empty() && !over_size_cap_) {
      poll_.set_bytes(Bytes());
      if (poll_.Tick()) return;
      ExpandTop();
    }
  }

  /// Expands the top frame until it completes or proves contradictory,
  /// then pops it. A split copies the frame: the copy on top takes the
  /// first branch and goes on, the frame below takes the second and waits,
  /// unless the two branches are the same frame.
  void ExpandTop() {
    while (true) {
      const size_t top = frames_.size() - 3 * w_;
      uint64_t* node = frames_.data() + top;
      const int f = PopLowestNew(node);
      if (f < 0) {
        Complete(OldOf(node));
        break;
      }
      const Closure::Member& m = c_.members[f];
      if (m.kind == Kind::kFalse) break;  // contradiction
      if (m.kind == Kind::kTrue) continue;
      if (m.kind == Kind::kProp || m.kind == Kind::kNot) {
        if (m.complement >= 0 && TestBit(OldOf(node), m.complement)) {
          break;  // p & !p
        }
        SetBit(OldOf(node), f);
        continue;
      }
      if (m.kind == Kind::kAnd) {
        Oblige(node, m.left);
        Oblige(node, m.right);
        SetBit(OldOf(node), f);
        continue;
      }
      if (m.kind == Kind::kX) {
        SetBit(NextOf(node), m.left);
        SetBit(OldOf(node), f);
        continue;
      }
      // ∨, U and R split: f = l ∨ r into l | r; f = l U r into
      // (l ∧ X f) | r; f = l R r into (r ∧ X f) | (l ∧ r).
      frames_.resize(top + 6 * w_);
      uint64_t* second = frames_.data() + top;
      node = second + 3 * w_;
      std::copy(second, second + 3 * w_, node);
      if (m.kind == Kind::kOr) {
        Oblige(node, m.left);
        Oblige(second, m.right);
      } else if (m.kind == Kind::kU) {
        Oblige(node, m.left);
        SetBit(NextOf(node), f);
        Oblige(second, m.right);
      } else {
        Oblige(node, m.right);
        SetBit(NextOf(node), f);
        Oblige(second, m.left);
        Oblige(second, m.right);
      }
      SetBit(OldOf(node), f);
      SetBit(OldOf(second), f);
      // Oblige skips an operand already in Old, so the branches can come
      // out identical. They would complete the same nodes, so keep one.
      if (std::equal(second, second + 3 * w_, node)) {
        frames_.resize(top + 3 * w_);
      }
    }
    frames_.resize(frames_.size() - 3 * w_);
  }

  /// A fully processed node, given by its Old and Next sets: merges with
  /// the registered node having the same sets, else registers it under the
  /// next name. Either way it is a successor of the state being expanded.
  /// One expansion can complete exponentially many nodes, so the caps are
  /// checked here: past one, nothing more is registered or listed.
  void Complete(const uint64_t* key) {
    uint64_t hash = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 2 * w_; ++i) {
      hash = (hash ^ key[i]) * 0xbf58476d1ce4e5b9ULL;
      hash ^= hash >> 31;
    }
    size_t mask = slots_.size() - 1;
    size_t slot = hash & mask;
    for (; slots_[slot] >= 0; slot = (slot + 1) & mask) {
      const int name = slots_[slot];
      if (hashes_[name] == hash && std::equal(key, key + 2 * w_, Old(name))) {
        List(name);
        return;
      }
    }
    if (size() + 2 > kMaxDegeneralizedStates) {  // with the initial state
      over_size_cap_ = true;
      return;
    }
    const int name = size();
    words_.insert(words_.end(), key, key + 2 * w_);
    hashes_.push_back(hash);
    listed_.push_back(-1);
    List(name);
    obs::CountAlloc(static_cast<int64_t>((2 * w_ + 1) * sizeof(uint64_t)));
    if (2 * hashes_.size() <= slots_.size()) {
      slots_[slot] = name;
      return;
    }
    slots_.assign(2 * slots_.size(), -1);
    mask = slots_.size() - 1;
    for (int n = 0; n < size(); ++n) {
      for (slot = hashes_[n] & mask; slots_[slot] >= 0;) {
        slot = (slot + 1) & mask;
      }
      slots_[slot] = n;
    }
  }

  /// Lists node `name` as a successor of the state being expanded, unless
  /// it already is one.
  void List(int name) {
    if (listed_[name] == state_) return;
    if (NumArcs() + 1 > kMaxDegeneralizedTransitions) {
      over_size_cap_ = true;
      return;
    }
    listed_[name] = state_;
    out_.push_back(name);
  }

  const Closure& c_;
  const int w_;
  StopPoll& poll_;
  std::vector<uint64_t> words_;   // per node: Old, then Next
  std::vector<uint64_t> hashes_;  // per node: the hash of its words
  std::vector<int> slots_;        // open-addressing index of names, -1 empty
  std::vector<int> listed_;       // per node: the last state listing it
  std::vector<int> out_first_;    // per state: its first successor in out_
  std::vector<int> out_;          // successor names, by state
  std::vector<uint64_t> frames_;  // the expansion stack, 3 * w_ per frame
  int state_ = 0;                 // the state being expanded
  bool over_size_cap_ = false;
};

/// Translates the tableau of `closure` into the nominal degeneralized
/// automaton, whose guards are interned in `guards`, or returns nullopt if
/// `poll` stops or the automaton would pass a size cap. `materialized`
/// says whether a `BuchiAutomaton` of the same size will be built from it,
/// for the bytes the stop check is told.
std::optional<FlatBuchi> Degeneralize(const Closure& closure,
                                      bool materialized, GpvwStats& stats,
                                      GuardTable* guards, StopPoll& poll) {
  const Tableau tableau(closure, poll);
  if (poll.stopped()) return std::nullopt;
  if (tableau.over_size_cap()) {
    stats.over_size_cap = true;
    return std::nullopt;
  }
  const int nodes = tableau.size();
  const int w = closure.words;
  const int num_members = static_cast<int>(closure.members.size());

  // The U-subformulas appearing in any node induce the generalized
  // acceptance sets F_{lUr} = { q : lUr ∉ Old(q) or r ∈ Old(q) }.
  std::vector<uint64_t> any(w, 0);
  for (int name = 0; name < nodes; ++name) {
    const uint64_t* old_next = tableau.Old(name);
    for (int i = 0; i < w; ++i) any[i] |= old_next[i] | old_next[w + i];
  }
  std::vector<int> untils, literals;
  for (int i = 0; i < num_members; ++i) {
    const Kind kind = closure.members[i].kind;
    if (kind == Kind::kU && TestBit(any.data(), i)) untils.push_back(i);
    if (kind == Kind::kProp || kind == Kind::kNot) literals.push_back(i);
  }
  const int k = static_cast<int>(untils.size());
  stats.tableau_nodes = nodes;
  stats.until_subformulas = k;

  // Degeneralize with a counter: state (s, i) of tableau state s waits to
  // see acceptance set i; it is numbered s * copies + i. Check its size,
  // and the bytes it needs, before building any of it.
  const int copies = std::max(k, 1);
  const int64_t nominal = (int64_t{nodes} + 1) * copies;
  const int64_t nominal_edges = tableau.NumArcs() * copies;
  if (nominal > kMaxDegeneralizedStates ||
      nominal_edges > kMaxDegeneralizedTransitions) {
    stats.over_size_cap = true;
    return std::nullopt;
  }
  // The flat automaton, and the materialized one (its guards' literals
  // aside) when it is not simplified first.
  int64_t per_state = sizeof(int) + 1, per_edge = sizeof(FlatEdge);
  if (materialized) {
    per_state += sizeof(std::vector<BuchiTransition>);
    per_edge += sizeof(BuchiTransition);
  }
  poll.set_bytes(tableau.Bytes() + nominal * per_state +
                 nominal_edges * per_edge);
  if (poll.Poll()) return std::nullopt;
  stats.states_before_simplify = static_cast<int>(nominal);

  // Guard of every transition into node q: conjunction of literals in
  // Old(q), interned once per node and ranked.
  std::vector<int> guard_of(nodes);
  Guard g;
  for (int name = 0; name < nodes; ++name) {
    if (poll.Tick()) return std::nullopt;
    g.clear();
    for (int i : literals) {
      if (TestBit(tableau.Old(name), i)) {
        g.push_back(closure.members[i].literal);
      }
    }
    bool ok = NormalizeGuard(&g);
    WAVE_CHECK(ok);  // expansion already rejects contradictions
    guard_of[name] = guards->Intern(g.data(), static_cast<int>(g.size()));
  }
  const std::vector<int> rank = guards->Rank();
  for (int& id : guard_of) id = rank[id];

  // The initial state has no Old set: it belongs to every F_i vacuously,
  // so its counter advances. From (s, i) an edge s->q goes to (q, i')
  // where i' advances when s belongs to F_i. Accepting: (s, 0) with s ∈
  // F_0; without Until subformulas the condition is vacuous and every
  // state accepts.
  auto in_set = [&](int state, int i) {
    if (state == 0) return true;
    const uint64_t* old = tableau.Old(state - 1);
    return !TestBit(old, untils[i]) ||
           TestBit(old, closure.members[untils[i]].right);
  };
  auto counter_after = [&](int state, int i) {
    if (k == 0) return 0;
    return in_set(state, i) ? (i + 1) % k : i;
  };
  auto accepting = [&](int state, int i) -> char {
    return k == 0 || (i == 0 && in_set(state, 0));
  };

  FlatBuchi a;
  a.first.reserve(nominal + 1);
  a.accepting.reserve(nominal);
  a.edges.reserve(nominal_edges);
  for (int x = 0; x < nominal; ++x) {
    const int state = x / copies, i = x % copies;
    const int* q = tableau.SuccessorsBegin(state);
    const int* end = tableau.SuccessorsEnd(state);
    if (poll.Tick(1 + (end - q))) return std::nullopt;
    a.accepting.push_back(accepting(state, i));
    const int counter = counter_after(state, i);
    for (; q != end; ++q) {
      const int t = (*q + 1) * copies + counter;
      a.edges.push_back({t, guard_of[*q]});
    }
    a.first.push_back(static_cast<int>(a.edges.size()));
  }
  return a;
}

}  // namespace

std::optional<BuchiAutomaton> LtlToBuchi(PropArena* arena, PropId f,
                                         int num_props,
                                         const GpvwOptions& options) {
  PropId nnf = arena->Rewrite(arena->Nnf(f));

  StopPoll poll(options.stop);
  GpvwStats unused;
  GpvwStats& stats = options.stats != nullptr ? *options.stats : unused;
  GuardTable guards;
  std::optional<FlatBuchi> a = Degeneralize(
      Closure(*arena, nnf), !options.simplify, stats, &guards, poll);
  if (!a.has_value()) return std::nullopt;
  if (options.simplify) {
    poll.set_bytes(a->Bytes());
    Simplify(guards, poll, &*a);
    if (poll.stopped()) return std::nullopt;
  }
  stats.states_after_simplify = a->NumStates();
  return Materialize(*a, guards, num_props);
}

}  // namespace wave
