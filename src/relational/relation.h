// Set-semantics relation over interned symbol tuples.
#ifndef WAVE_RELATIONAL_RELATION_H_
#define WAVE_RELATIONAL_RELATION_H_

#include <string>
#include <vector>

#include "common/symbol_table.h"

namespace wave {

/// A row: one interned value per attribute.
using Tuple = std::vector<SymbolId>;

/// A relation instance: an ordered (lexicographic) duplicate-free set of
/// equal-arity tuples. The configurations the verifier manipulates contain
/// at most a handful of tuples per relation, so a sorted vector beats a hash
/// structure and gives deterministic iteration order — which the bitmap
/// codec and counterexample printing rely on.
class Relation {
 public:
  Relation() = default;
  explicit Relation(int arity) : arity_(arity) {}

  Relation(const Relation&) = default;
  Relation& operator=(const Relation&) = default;
  Relation(Relation&&) = default;
  Relation& operator=(Relation&&) = default;

  int arity() const { return arity_; }
  int size() const { return static_cast<int>(tuples_.size()); }
  bool empty() const { return tuples_.empty(); }

  /// Inserts `t`; returns true if newly added.
  bool Insert(const Tuple& t);

  /// Erases `t`; returns true if it was present.
  bool Erase(const Tuple& t);

  bool Contains(const Tuple& t) const;
  /// True if the tuple of `values` (arity() of them) is present.
  bool Contains(const SymbolId* values) const;

  void Clear() { tuples_.clear(); }

  const std::vector<Tuple>& tuples() const { return tuples_; }

  /// Set-union with `other` (same arity).
  void UnionWith(const Relation& other);

  /// Set-difference: removes all tuples of `other`.
  void DifferenceWith(const Relation& other);

  /// Renders as `{(a,b),(c,d)}` using `symbols` for value names.
  std::string ToString(const SymbolTable& symbols) const;

  friend bool operator==(const Relation& a, const Relation& b) {
    return a.arity_ == b.arity_ && a.tuples_ == b.tuples_;
  }

 private:
  int arity_ = 0;
  std::vector<Tuple> tuples_;  // sorted, unique
};

}  // namespace wave

#endif  // WAVE_RELATIONAL_RELATION_H_
