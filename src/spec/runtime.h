// Configurations and the genuine-run semantics of a Web application
// (Section 2.1): how one configuration steps to the next given a user's
// input choice. Genuine runs, counterexamples and the first-cut baseline
// hold configurations as `Configuration`s; the verifier's search holds its
// *pseudo*configurations (database relations = core ∪ extension) as
// bitsets over a tuple table instead (verifier/config_store.h).
#ifndef WAVE_SPEC_RUNTIME_H_
#define WAVE_SPEC_RUNTIME_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "fo/view.h"
#include "relational/instance.h"
#include "spec/web_app.h"

namespace wave {

/// A configuration of a Web application: current page, the contents of all
/// relations (database, state, this step's inputs, this step's actions) and
/// the previous step's inputs.
struct Configuration {
  int page = 0;
  Instance data;      // database, state, input and action relations
  Instance previous;  // only input/input-constant relations are meaningful

  friend bool operator==(const Configuration& a, const Configuration& b) {
    return a.page == b.page && a.data == b.data && a.previous == b.previous;
  }
};

/// Adapter exposing a `Configuration` to the FO evaluator.
class ConfigurationAdapter final : public ConfigurationView {
 public:
  explicit ConfigurationAdapter(const Configuration* config)
      : config_(config) {}

  bool ForEachTuple(RelationId id, bool previous,
                    TupleVisitor visit) const override {
    for (const Tuple& t : Get(id, previous).tuples()) {
      if (!visit(t.data())) return false;
    }
    return true;
  }
  bool Contains(RelationId id, bool previous,
                const SymbolId* values) const override {
    return Get(id, previous).Contains(values);
  }
  int current_page() const override { return config_->page; }

 private:
  const Relation& Get(RelationId id, bool previous) const {
    return previous ? config_->previous.relation(id)
                    : config_->data.relation(id);
  }

  const Configuration* config_;
};

/// The user's response at a page: at most one tuple per input relation and
/// an optional value per input constant (all keyed by relation id).
using InputChoice = std::map<RelationId, Tuple>;

/// The options generated by a page, per input relation.
using InputOptions = std::map<RelationId, std::vector<Tuple>>;

}  // namespace wave

#endif  // WAVE_SPEC_RUNTIME_H_
