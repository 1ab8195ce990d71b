#include "relational/relation.h"

#include <algorithm>

#include "common/check.h"
#include "common/strings.h"

namespace wave {

bool Relation::Insert(const Tuple& t) {
  WAVE_CHECK_MSG(static_cast<int>(t.size()) == arity_,
                 "tuple arity " << t.size() << " != relation arity " << arity_);
  auto it = std::lower_bound(tuples_.begin(), tuples_.end(), t);
  if (it != tuples_.end() && *it == t) return false;
  tuples_.insert(it, t);
  return true;
}

bool Relation::Erase(const Tuple& t) {
  auto it = std::lower_bound(tuples_.begin(), tuples_.end(), t);
  if (it == tuples_.end() || *it != t) return false;
  tuples_.erase(it);
  return true;
}

bool Relation::Contains(const Tuple& t) const {
  return std::binary_search(tuples_.begin(), tuples_.end(), t);
}

bool Relation::Contains(const SymbolId* values) const {
  const SymbolId* end = values + arity_;
  auto it = std::lower_bound(
      tuples_.begin(), tuples_.end(), values,
      [end](const Tuple& t, const SymbolId* v) {
        return std::lexicographical_compare(t.begin(), t.end(), v, end);
      });
  return it != tuples_.end() && std::equal(it->begin(), it->end(), values);
}

void Relation::UnionWith(const Relation& other) {
  WAVE_CHECK(arity_ == other.arity_);
  for (const Tuple& t : other.tuples_) Insert(t);
}

void Relation::DifferenceWith(const Relation& other) {
  WAVE_CHECK(arity_ == other.arity_);
  for (const Tuple& t : other.tuples_) Erase(t);
}

std::string Relation::ToString(const SymbolTable& symbols) const {
  std::vector<std::string> rows;
  rows.reserve(tuples_.size());
  for (const Tuple& t : tuples_) {
    std::vector<std::string> cells;
    cells.reserve(t.size());
    for (SymbolId v : t) cells.push_back(symbols.Name(v));
    rows.push_back("(" + Join(cells, ",") + ")");
  }
  return "{" + Join(rows, ",") + "}";
}

}  // namespace wave
