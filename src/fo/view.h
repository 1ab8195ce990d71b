// Abstract read view of a (pseudo)configuration, the evaluation structure
// for FO formulas: relation contents by id (with a previous-input axis) and
// the current Web page. The view hands out tuples as value arrays, so the
// evaluator runs unchanged over a `Configuration`'s relations (the
// run semantics, counterexample validation, the first-cut baseline) and
// over the search's bitset pseudoconfigurations (verifier/config_store.h).
#ifndef WAVE_FO_VIEW_H_
#define WAVE_FO_VIEW_H_

#include "common/function_ref.h"
#include "common/symbol_table.h"
#include "relational/schema.h"

namespace wave {

/// Called with each tuple's values (the relation's arity of them); returns
/// false to stop the iteration.
using TupleVisitor = FunctionRef<bool(const SymbolId*)>;

/// What the evaluator can observe about a configuration.
///
/// `previous == true` reads the previous step's value of an input relation
/// or input constant; for database/state/action relations it is invalid.
class ConfigurationView {
 public:
  virtual ~ConfigurationView() = default;

  /// Calls `visit` on every tuple of relation `id`, in no particular order,
  /// until it returns false. Returns false iff `visit` stopped it.
  virtual bool ForEachTuple(RelationId id, bool previous,
                            TupleVisitor visit) const = 0;

  /// True if relation `id` holds the tuple of `values` (its arity of them).
  virtual bool Contains(RelationId id, bool previous,
                        const SymbolId* values) const = 0;

  /// Dense index of the current page (see `WebAppSpec::PageIndex`).
  virtual int current_page() const = 0;
};

}  // namespace wave

#endif  // WAVE_FO_VIEW_H_
