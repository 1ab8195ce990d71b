#include "buchi/prop_ltl.h"

#include <algorithm>

#include "common/check.h"

namespace wave {

PropId PropArena::Intern(Node n) {
  auto key = std::make_tuple(static_cast<uint8_t>(n.kind), n.prop, n.left,
                             n.right);
  auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  PropId id = static_cast<PropId>(nodes_.size());
  nodes_.push_back(n);
  index_.emplace(key, id);
  return id;
}

PropId PropArena::True() { return Intern({Kind::kTrue}); }
PropId PropArena::False() { return Intern({Kind::kFalse}); }
PropId PropArena::Prop(int prop) {
  Node n{Kind::kProp};
  n.prop = prop;
  return Intern(n);
}
PropId PropArena::Not(PropId f) {
  Node n{Kind::kNot};
  n.left = f;
  return Intern(n);
}
PropId PropArena::And(PropId l, PropId r) {
  Node n{Kind::kAnd};
  n.left = l;
  n.right = r;
  return Intern(n);
}
PropId PropArena::Or(PropId l, PropId r) {
  Node n{Kind::kOr};
  n.left = l;
  n.right = r;
  return Intern(n);
}
PropId PropArena::Implies(PropId l, PropId r) {
  Node n{Kind::kImplies};
  n.left = l;
  n.right = r;
  return Intern(n);
}
PropId PropArena::X(PropId f) {
  Node n{Kind::kX};
  n.left = f;
  return Intern(n);
}
PropId PropArena::U(PropId l, PropId r) {
  Node n{Kind::kU};
  n.left = l;
  n.right = r;
  return Intern(n);
}
PropId PropArena::R(PropId l, PropId r) {
  Node n{Kind::kR};
  n.left = l;
  n.right = r;
  return Intern(n);
}
PropId PropArena::G(PropId f) {
  Node n{Kind::kG};
  n.left = f;
  return Intern(n);
}
PropId PropArena::F(PropId f) {
  Node n{Kind::kF};
  n.left = f;
  return Intern(n);
}
PropId PropArena::B(PropId l, PropId r) {
  Node n{Kind::kB};
  n.left = l;
  n.right = r;
  return Intern(n);
}

PropId PropArena::Nnf(PropId f, bool negate) {
  // A node's operands are interned before it, so ids up to f suffice.
  std::vector<PropId> memo(2 * (static_cast<size_t>(f) + 1), -1);
  return Nnf(f, negate, &memo);
}

PropId PropArena::Nnf(PropId f, bool negate, std::vector<PropId>* memo) {
  // Memoized by (node, polarity): the arena is a DAG, and a chain of
  // implications reaches its nodes in both polarities.
  const size_t slot = 2 * static_cast<size_t>(f) + (negate ? 1 : 0);
  if ((*memo)[slot] >= 0) return (*memo)[slot];
  auto nnf = [&](PropId g, bool neg) { return Nnf(g, neg, memo); };
  const Node n = nodes_[f];  // copy: interning below may reallocate nodes_
  PropId out = -1;
  switch (n.kind) {
    case Kind::kTrue:
      out = negate ? False() : True();
      break;
    case Kind::kFalse:
      out = negate ? True() : False();
      break;
    case Kind::kProp:
      out = negate ? Not(f) : f;
      break;
    case Kind::kNot:
      out = nnf(n.left, !negate);
      break;
    case Kind::kAnd:
    case Kind::kOr: {
      PropId l = nnf(n.left, negate);
      PropId r = nnf(n.right, negate);
      out = (n.kind == Kind::kAnd) != negate ? And(l, r) : Or(l, r);
      break;
    }
    case Kind::kImplies: {
      // a -> b == !a | b ;  !(a -> b) == a & !b
      PropId l = nnf(n.left, !negate);
      PropId r = nnf(n.right, negate);
      out = negate ? And(l, r) : Or(l, r);
      break;
    }
    case Kind::kX:
      out = X(nnf(n.left, negate));
      break;
    case Kind::kU:
    case Kind::kR: {
      PropId l = nnf(n.left, negate);
      PropId r = nnf(n.right, negate);
      out = (n.kind == Kind::kU) != negate ? U(l, r) : R(l, r);
      break;
    }
    case Kind::kG: {
      // G p = false R p ; !G p = true U !p
      PropId body = nnf(n.left, negate);
      out = negate ? U(True(), body) : R(False(), body);
      break;
    }
    case Kind::kF: {
      // F p = true U p ; !F p = false R !p
      PropId body = nnf(n.left, negate);
      out = negate ? R(False(), body) : U(True(), body);
      break;
    }
    case Kind::kB: {
      // p B q == !(!p U q):  NNF = p R !q ; negation = !p U q.
      PropId r = nnf(n.right, !negate);
      PropId l = nnf(n.left, negate);
      out = negate ? U(l, r) : R(l, r);
      break;
    }
  }
  WAVE_CHECK(out >= 0);
  (*memo)[slot] = out;
  return out;
}

PropId PropArena::Rewrite(PropId f) {
  std::vector<PropId> memo;
  return Rewrite(f, &memo);
}

PropId PropArena::Rewrite(PropId f, std::vector<PropId>* memo) {
  if (static_cast<size_t>(f) < memo->size() && (*memo)[f] >= 0) {
    return (*memo)[f];
  }
  const Node n = nodes_[f];  // copy: interning below may reallocate nodes_
  PropId out = f;
  switch (n.kind) {
    case Kind::kAnd:
    case Kind::kOr:
      out = RewriteChain(f, memo);
      break;
    case Kind::kX:
      out = X(Rewrite(n.left, memo));
      break;
    case Kind::kU:
    case Kind::kR: {
      PropId l = Rewrite(n.left, memo);
      PropId r = Rewrite(n.right, memo);
      out = n.kind == Kind::kU ? U(l, r) : R(l, r);
      break;
    }
    default:
      break;  // literals and constants
  }
  // The pass is idempotent, so its result is its own rewrite.
  memo->resize(nodes_.size(), -1);
  (*memo)[f] = out;
  (*memo)[out] = out;
  return out;
}

PropId PropArena::RewriteChain(PropId f, std::vector<PropId>* memo) {
  const Kind kind = nodes_[f].kind;
  const bool is_and = kind == Kind::kAnd;
  auto join = [&](const std::vector<PropId>& operands) {
    PropId out = operands[0];
    for (size_t i = 1; i < operands.size(); ++i) {
      out = is_and ? And(out, operands[i]) : Or(out, operands[i]);
    }
    return out;
  };
  // The chain's operands, left to right, each rewritten; an operand that
  // rewrites to the chain's own connective is spliced in.
  std::vector<PropId> operands;
  std::vector<PropId> stack = {f};
  while (!stack.empty()) {
    PropId g = stack.back();
    stack.pop_back();
    if (nodes_[g].kind == kind) {
      stack.push_back(nodes_[g].right);
      stack.push_back(nodes_[g].left);
      continue;
    }
    PropId r = Rewrite(g, memo);
    if (nodes_[r].kind == kind) {
      stack.push_back(r);  // already rewritten: its operands are too
      continue;
    }
    operands.push_back(r);
  }
  // Drop duplicates, then gather the operands that share an argument:
  //   ∨: a U b1, a U b2 → a U (b1 ∨ b2);  a1 R b, a2 R b → (a1 ∨ a2) R b
  //   ∧: a R b1, a R b2 → a R (b1 ∧ b2);  a1 U b, a2 U b → (a1 ∧ a2) U b
  //   both: X a, X b → X (a ∘ b)
  // A group sits where its first member did.
  struct Group {
    Kind kind;
    PropId shared = -1;          // the common argument (U/R groups)
    std::vector<PropId> others;  // X bodies or the differing arguments
    PropId first;                // the first member, for singletons
  };
  std::vector<Group> groups;
  std::vector<PropId> seen;
  for (PropId g : operands) {
    if (std::find(seen.begin(), seen.end(), g) != seen.end()) continue;
    seen.push_back(g);
    const Node& n = nodes_[g];
    // Which argument is shared: U merges on its left in ∨ and on its
    // right in ∧; R the other way round.
    bool shares_left = (n.kind == Kind::kU) != is_and;
    PropId shared = -1, other = n.left;
    if (n.kind == Kind::kU || n.kind == Kind::kR) {
      shared = shares_left ? n.left : n.right;
      other = shares_left ? n.right : n.left;
    } else if (n.kind != Kind::kX) {
      groups.push_back({n.kind, -1, {}, g});
      continue;
    }
    auto it = std::find_if(groups.begin(), groups.end(), [&](const Group& gr) {
      return gr.kind == n.kind && gr.shared == shared;
    });
    if (it == groups.end()) {
      groups.push_back({n.kind, shared, {other}, g});
    } else {
      it->others.push_back(other);
    }
  }
  std::vector<PropId> merged;
  for (const Group& group : groups) {
    if (group.others.size() <= 1) {
      merged.push_back(group.first);
      continue;
    }
    PropId joined = join(group.others);
    PropId node;
    if (group.kind == Kind::kX) {
      node = X(joined);
    } else {
      bool shares_left = (group.kind == Kind::kU) != is_and;
      PropId l = shares_left ? group.shared : joined;
      PropId r = shares_left ? joined : group.shared;
      node = group.kind == Kind::kU ? U(l, r) : R(l, r);
    }
    merged.push_back(Rewrite(node, memo));
  }
  return join(merged);
}

std::string PropArena::ToString(
    PropId f, const std::function<std::string(int)>& prop_name) const {
  const Node& n = nodes_[f];
  switch (n.kind) {
    case Kind::kTrue:
      return "true";
    case Kind::kFalse:
      return "false";
    case Kind::kProp:
      return prop_name ? prop_name(n.prop) : "P" + std::to_string(n.prop);
    case Kind::kNot:
      return "!" + ToString(n.left, prop_name);
    case Kind::kAnd:
      return "(" + ToString(n.left, prop_name) + " & " +
             ToString(n.right, prop_name) + ")";
    case Kind::kOr:
      return "(" + ToString(n.left, prop_name) + " | " +
             ToString(n.right, prop_name) + ")";
    case Kind::kImplies:
      return "(" + ToString(n.left, prop_name) + " -> " +
             ToString(n.right, prop_name) + ")";
    case Kind::kX:
      return "X" + ToString(n.left, prop_name);
    case Kind::kU:
      return "(" + ToString(n.left, prop_name) + " U " +
             ToString(n.right, prop_name) + ")";
    case Kind::kR:
      return "(" + ToString(n.left, prop_name) + " R " +
             ToString(n.right, prop_name) + ")";
    case Kind::kG:
      return "G" + ToString(n.left, prop_name);
    case Kind::kF:
      return "F" + ToString(n.left, prop_name);
    case Kind::kB:
      return "(" + ToString(n.left, prop_name) + " B " +
             ToString(n.right, prop_name) + ")";
  }
  WAVE_CHECK(false);
  return "";
}

}  // namespace wave
