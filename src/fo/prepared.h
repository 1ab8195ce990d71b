// Prepared (compiled) FO formulas.
//
// This is the C++ analogue of the paper's parameterized-SQL prepared
// statements (Section 4): a formula is resolved once — relation names to
// catalog ids, page names to page indices, variable names to register
// slots — and then evaluated or enumerated many times per verification run
// without touching strings.
//
// Evaluation is satisfying-assignment enumeration in the style the paper
// describes for property FO components: positive atoms drive variable
// binding (a join over the configuration's tuples); negated subformulas,
// which cannot bind, fall back to enumerating their unbound variables over
// the finite evaluation domain. Because input-bounded formulas quantify
// only over input relations (which hold at most one tuple), the common case
// binds instantly — this subsumes the paper's `emptyI`/tuple-substitution
// rewrite of input-bounded quantifiers.
#ifndef WAVE_FO_PREPARED_H_
#define WAVE_FO_PREPARED_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fo/formula.h"
#include "fo/view.h"
#include "relational/relation.h"
#include "relational/schema.h"

namespace wave {

/// Resolves a page name to its dense index (used by `at PAGE` atoms).
using PageResolver = std::function<int(const std::string&)>;

namespace internal {

struct PreparedArg {
  bool is_var = false;
  int slot = -1;             // when is_var
  SymbolId constant = kInvalidSymbol;  // when !is_var
};

struct PreparedNode {
  Formula::Kind kind = Formula::Kind::kTrue;
  RelationId relation = kInvalidRelation;
  bool previous = false;
  int page = -1;
  std::vector<PreparedArg> args;  // atom args or [lhs, rhs] for equality
  std::vector<std::unique_ptr<PreparedNode>> children;
  std::vector<int> quant_slots;      // kExists / kForall
  std::vector<int> subtree_slots;    // all slots in this subtree, sorted
};

}  // namespace internal

/// Buffers `PreparedFormula::EnumerateSatisfying` reuses from call to call,
/// so a warm scratch makes an enumeration allocation-free.
struct EvalScratch {
  std::vector<SymbolId> regs;    // the register file
  std::vector<SymbolId> rows;    // satisfying assignments, repeats included
  std::vector<uint32_t> order;   // `rows` sorted, by row index
};

/// A compiled formula ready for repeated evaluation.
///
/// Register layout: slots `0 .. num_free()-1` hold the free variables in
/// the order given at `Prepare` time; further slots belong to quantified
/// variables and are managed internally. `kInvalidSymbol` means unbound.
class PreparedFormula {
 public:
  /// Compiles `formula` (converted to NNF internally).
  ///
  /// `free_order` fixes the slot order of the free variables; it must
  /// contain every free variable of `formula` (extra names are allowed and
  /// get slots that simply never bind). Relation names resolve against
  /// `catalog`; page atoms through `pages` (only needed if the formula
  /// contains `at P` atoms).
  static PreparedFormula Prepare(const FormulaPtr& formula,
                                 const Catalog& catalog,
                                 const std::vector<std::string>& free_order,
                                 const PageResolver& pages = nullptr);

  /// An empty (unprepared) formula; usable only as an assignment target.
  PreparedFormula() = default;

  PreparedFormula(PreparedFormula&&) = default;
  PreparedFormula& operator=(PreparedFormula&&) = default;

  int num_free() const { return num_free_; }
  int num_slots() const { return num_slots_; }

  /// Returns a register file with all slots unbound.
  std::vector<SymbolId> MakeRegisters() const {
    return std::vector<SymbolId>(num_slots_, kInvalidSymbol);
  }

  /// Evaluates as a sentence: free slots in `regs[0..num_free)` must be
  /// bound by the caller. Quantified variables range over `domain`.
  bool EvalClosed(const ConfigurationView& view,
                  const std::vector<SymbolId>& domain,
                  std::vector<SymbolId>* regs) const;

  /// Enumerates the distinct satisfying assignments of the free variables
  /// over `domain`, appending each to `out` as num_free() values, in
  /// lexicographic order, and returns how many it appended. Free variables
  /// not constrained by the formula are expanded over `domain`.
  size_t EnumerateSatisfying(const ConfigurationView& view,
                             const std::vector<SymbolId>& domain,
                             EvalScratch* scratch,
                             std::vector<SymbolId>* out) const;

  /// The same assignments, one tuple (of length num_free()) each.
  void EnumerateSatisfying(const ConfigurationView& view,
                           const std::vector<SymbolId>& domain,
                           std::vector<Tuple>* out) const;

 private:
  std::unique_ptr<internal::PreparedNode> root_;
  std::vector<int> free_slots_;  // 0 .. num_free()-1
  int num_free_ = 0;
  int num_slots_ = 0;
};

}  // namespace wave

#endif  // WAVE_FO_PREPARED_H_
