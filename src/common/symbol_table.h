// Symbol interning: every data value (constants from the spec, user-text
// placeholders, fresh page-domain values, fresh C-existential values) is an
// interned string represented by a dense 32-bit id. Pseudoconfigurations,
// tuples and bitmaps all operate on ids; the table is only consulted when
// printing.
#ifndef WAVE_COMMON_SYMBOL_TABLE_H_
#define WAVE_COMMON_SYMBOL_TABLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/strings.h"

namespace wave {

/// Dense identifier for an interned value. Ids are assigned consecutively
/// starting at 0; `kInvalidSymbol` marks "no value".
using SymbolId = int32_t;

inline constexpr SymbolId kInvalidSymbol = -1;

/// Interning table mapping strings to dense `SymbolId`s and back.
///
/// A single `SymbolTable` is owned by a `WebAppSpec` and shared by every
/// component that manipulates values for that spec (analysis, verifier,
/// benchmarks). The table is append-only: symbols are never removed, so ids
/// stay valid for the lifetime of the table.
class SymbolTable {
 public:
  SymbolTable() = default;

  SymbolTable(const SymbolTable&) = default;
  SymbolTable& operator=(const SymbolTable&) = default;

  /// Returns the id for `name`, interning it if new.
  SymbolId Intern(std::string_view name);

  /// Returns the id for `name` or `kInvalidSymbol` if not interned.
  SymbolId Find(std::string_view name) const;

  /// Returns the string for `id`. `id` must be valid.
  const std::string& Name(SymbolId id) const;

  /// Mints a fresh symbol that cannot collide with user-provided names.
  /// The generated name is `$<prefix>.<counter>`.
  SymbolId MintFresh(std::string_view prefix);

  /// Number of interned symbols (also the smallest unused id).
  int size() const { return static_cast<int>(names_.size()); }

  /// True if `id` names a minted fresh symbol (its name starts with '$').
  bool IsFresh(SymbolId id) const;

 private:
  std::vector<std::string> names_;
  StringMap<SymbolId> ids_;
  int fresh_counter_ = 0;
};

}  // namespace wave

#endif  // WAVE_COMMON_SYMBOL_TABLE_H_
