#include "common/symbol_table.h"

#include <string>

#include "common/check.h"

namespace wave {

SymbolId SymbolTable::Intern(std::string_view name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  SymbolId id = static_cast<SymbolId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

SymbolId SymbolTable::Find(std::string_view name) const {
  auto it = ids_.find(name);
  return it == ids_.end() ? kInvalidSymbol : it->second;
}

const std::string& SymbolTable::Name(SymbolId id) const {
  WAVE_CHECK_MSG(id >= 0 && id < size(), "symbol id " << id << " out of range");
  return names_[id];
}

SymbolId SymbolTable::MintFresh(std::string_view prefix) {
  std::string name;
  do {
    name = "$" + std::string(prefix) + "." + std::to_string(fresh_counter_++);
  } while (ids_.count(name) > 0);
  return Intern(name);
}

bool SymbolTable::IsFresh(SymbolId id) const {
  const std::string& n = Name(id);
  return !n.empty() && n[0] == '$';
}

}  // namespace wave
