// Propositional LTL with hash-consed nodes.
//
// `phi_aux` — the propositional abstraction of an LTL-FO property where
// each maximal FO component becomes a proposition (paper Section 3, Step 1)
// — is represented here. Hash-consing makes structural equality pointer
// (id) equality, which the GPVW tableau construction relies on for its
// formula sets.
#ifndef WAVE_BUCHI_PROP_LTL_H_
#define WAVE_BUCHI_PROP_LTL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

namespace wave {

/// Node id within a `PropArena`; ids are stable for the arena's lifetime.
using PropId = int32_t;

/// Arena of hash-consed propositional LTL nodes.
///
/// `Nnf` rewrites to negation normal form over the core connectives
/// {true, false, literal, and, or, X, U, R}; the derived operators
/// G, F, B and implication are expanded there:
///   G p = false R p,  F p = true U p,  p B q = p R !q  (== !(!p U q)).
class PropArena {
 public:
  enum class Kind : uint8_t {
    kTrue,
    kFalse,
    kProp,   // proposition `prop`
    kNot,
    kAnd,
    kOr,
    kImplies,
    kX,
    kU,
    kR,   // release (dual of U)
    kG,
    kF,
    kB,   // before (paper footnote 1): p B q == !( !p U q )
  };

  struct Node {
    Kind kind;
    int prop = -1;      // kProp
    PropId left = -1;   // unary body / binary lhs
    PropId right = -1;  // binary rhs
  };

  PropArena() = default;

  PropId True();
  PropId False();
  PropId Prop(int prop);
  PropId Not(PropId f);
  PropId And(PropId l, PropId r);
  PropId Or(PropId l, PropId r);
  PropId Implies(PropId l, PropId r);
  PropId X(PropId f);
  PropId U(PropId l, PropId r);
  PropId R(PropId l, PropId r);
  PropId G(PropId f);
  PropId F(PropId f);
  PropId B(PropId l, PropId r);

  const Node& node(PropId id) const { return nodes_[id]; }
  int size() const { return static_cast<int>(nodes_.size()); }

  /// Negation normal form (negating first when `negate`). The result uses
  /// only kTrue/kFalse/kProp/kNot-over-kProp/kAnd/kOr/kX/kU/kR. Linear in
  /// the number of distinct nodes under `f`.
  PropId Nnf(PropId f, bool negate = false);

  /// Rewrites an NNF formula into an equivalent one that the tableau
  /// expands into fewer states (Somenzi & Bloem, CAV 2000; Etessami &
  /// Holzmann, CONCUR 2000). Each ∧ and ∨ chain is flattened and its
  /// duplicate operands dropped; then operands sharing an argument merge:
  ///   a U b1 ∨ a U b2 → a U (b1 ∨ b2)    a1 R b ∨ a2 R b → (a1 ∨ a2) R b
  ///   a R b1 ∧ a R b2 → a R (b1 ∧ b2)    a1 U b ∧ a2 U b → (a1 ∧ a2) U b
  ///   X a ∨ X b → X (a ∨ b)              X a ∧ X b → X (a ∧ b)
  /// A merged group takes the place of its first member, and is rewritten
  /// again. Chains are rebuilt left-nested.
  PropId Rewrite(PropId f);

  /// Renders using `prop_name` for propositions.
  std::string ToString(PropId f,
                       const std::function<std::string(int)>& prop_name) const;

 private:
  PropId Intern(Node n);
  /// `Nnf` with `memo[2 * id + negate]` caching each (node, polarity).
  PropId Nnf(PropId f, bool negate, std::vector<PropId>* memo);
  /// `Rewrite` with `memo[id]` caching each node's rewrite (-1 unknown).
  PropId Rewrite(PropId f, std::vector<PropId>* memo);
  /// Rewrites the ∧ or ∨ chain rooted at `f`.
  PropId RewriteChain(PropId f, std::vector<PropId>* memo);

  std::vector<Node> nodes_;
  std::map<std::tuple<uint8_t, int, PropId, PropId>, PropId> index_;
};

}  // namespace wave

#endif  // WAVE_BUCHI_PROP_LTL_H_
