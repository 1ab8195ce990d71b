// Dataflow analysis for potential comparisons (paper Section 3.2).
//
// For every attribute position (relation, column) the analysis
// overestimates `constants(R,i)`: the constants the position may ever be
// compared to, explicitly (a constant in an atom / an equality) or
// implicitly (through equality transitivity within a rule, or through
// values being copied into a state/input/action attribute that is itself
// compared). Heuristic 2's extension sets take their fresh values from each
// formula's own input positions (`LocalVar::inputs`), not from here.
//
// Comparison sets propagate *backwards* along copy edges: if a rule head
// H(..x..) copies from a body atom R(..x..), anything compared to the head
// position is potentially compared to the source position (paper
// Example 3.6: property constants on `userchoice` flow back through the
// `laptopsearch` input into `criteria`).
//
// Copy edges come only from rule heads; a property's formulas add seeds
// (comparisons at positions) and never edges. So the work splits there:
// `SpecFacts` resolves every rule's leaves once and closes the rules' seeds
// over the copy edges, once per spec; `ComparisonAnalysis` pushes one
// property's seeds along the same edges and reads the spec's closure
// everywhere else. The fixpoint is a union over ancestors, so the split is
// exact.
#ifndef WAVE_ANALYSIS_DATAFLOW_H_
#define WAVE_ANALYSIS_DATAFLOW_H_

#include <string>
#include <utility>
#include <vector>

#include "fo/formula.h"
#include "spec/web_app.h"

namespace wave {

/// An attribute position: relation id + 0-based column.
struct AttrPos {
  RelationId relation = kInvalidRelation;
  int column = 0;

  friend bool operator<(const AttrPos& a, const AttrPos& b) {
    if (a.relation != b.relation) return a.relation < b.relation;
    return a.column < b.column;
  }
  friend bool operator==(const AttrPos& a, const AttrPos& b) {
    return a.relation == b.relation && a.column == b.column;
  }
};

/// A resolved term: a variable slot of its formula, or a constant.
struct TermFact {
  int var = -1;                        // slot in `FormulaFacts::vars`
  SymbolId constant = kInvalidSymbol;  // when `var` < 0

  bool is_variable() const { return var >= 0; }
};

/// A relation atom (`prev` atoms included) with its relation resolved;
/// `relation` is kInvalidRelation when the catalog does not declare it.
struct AtomFact {
  RelationId relation = kInvalidRelation;
  bool previous = false;
  std::vector<TermFact> args;
};

/// What one formula says about a variable, gathered from its leaves.
struct LocalVar {
  std::string name;
  /// Constants the variable is equated to, sorted.
  std::vector<SymbolId> pinned;
  /// Positions (`SpecFacts::Position`) of the declared atoms it occurs
  /// in, sorted.
  std::vector<int> positions;
  /// Input positions it occurs at, as (`SpecFacts::InputSlot`,
  /// is_previous), sorted.
  std::vector<std::pair<int, bool>> inputs;
};

/// The leaves of one formula, resolved by one `Formula::VisitLeaves` walk:
/// its relation atoms and equalities left to right, with every variable
/// replaced by a slot whose fact sheet lists its constants and positions.
struct FormulaFacts {
  std::vector<LocalVar> vars;  // slots, in first-occurrence order
  std::vector<AtomFact> atoms;
  std::vector<std::pair<TermFact, TermFact>> equalities;
  std::vector<SymbolId> constants;  // every constant of the formula, sorted

  /// Slot of `var`, or -1 when the formula does not mention it.
  int Slot(const std::string& var) const;
};

/// One rule of the spec, resolved.
struct RuleFacts {
  /// 'i', 's', 'a' or 't' (input, state, action, target rule), and the
  /// rule's index among its page's rules of that kind: its witness values
  /// are named after both ("i0.x").
  char kind = 'i';
  int index = 0;
  /// The head relation; kInvalidRelation for a target rule.
  RelationId head_relation = kInvalidRelation;
  /// Head terms, their variables slotted into `body.vars`.
  std::vector<TermFact> head;
  /// The body. An input rule's head variables also sit at current-step
  /// positions of its input relation in the fact sheet: they are the
  /// values of the option tuple the rule generates.
  FormulaFacts body;
  /// Index of the rule's first variable in the spec's witness table;
  /// variable slot `k` has entry `witness_base + k`.
  int witness_base = 0;
};

/// The spec-level facts behind the dataflow analysis and Heuristics 1 and
/// 2, built once per spec: each rule's resolved leaves, CW, what each page
/// reads, the copy-edge graph, and the rules' comparison sets closed over
/// it. Immutable once built; it does not mint symbols.
class SpecFacts {
 public:
  explicit SpecFacts(const WebAppSpec& spec);

  const WebAppSpec& spec() const { return *spec_; }

  /// Resolves `f` against the spec's catalog and position numbering.
  FormulaFacts Gather(const Formula& f) const;

  /// Dense id of a position: the catalog's columns numbered relation by
  /// relation, so ids sort like positions.
  int Position(AttrPos pos) const {
    return offsets_[pos.relation] + pos.column;
  }
  int num_positions() const { return offsets_.back(); }
  /// Dense id of an input position (input and input-constant relations
  /// only), or -1; ids sort like positions too.
  int InputSlot(AttrPos pos) const { return input_slots_[Position(pos)]; }
  int num_input_slots() const { return num_input_slots_; }

  /// Page `page`'s input, state, action and target rules, in that order.
  const std::vector<RuleFacts>& rules(int page) const { return rules_[page]; }
  /// Entries in the witness table (every rule's variable slots).
  int num_witnesses() const { return num_witnesses_; }

  /// CW: every constant of every rule, sorted.
  const std::vector<SymbolId>& constants() const { return constants_; }

  /// `reads()[R]`: some rule reads relation R (current or previous step).
  const std::vector<bool>& reads() const { return reads_; }
  /// Relations page `page`'s rules read at the previous step, sorted.
  const std::vector<RelationId>& prev_reads(int page) const {
    return prev_reads_[page];
  }

  /// `sources(p)`: the positions whose values rule heads copy into
  /// position `p`; they inherit `p`'s comparisons.
  const std::vector<int>& sources(int position) const {
    return sources_[position];
  }
  /// The constants the rules compare `position` to, closed over the copy
  /// edges, sorted.
  const std::vector<SymbolId>& closure(int position) const {
    return closure_[position];
  }

 private:
  const WebAppSpec* spec_;
  std::vector<int> offsets_;  // per relation, plus the total at the end
  std::vector<int> input_slots_;
  int num_input_slots_ = 0;
  std::vector<std::vector<RuleFacts>> rules_;
  int num_witnesses_ = 0;
  std::vector<SymbolId> constants_;
  std::vector<bool> reads_;
  std::vector<std::vector<RelationId>> prev_reads_;
  std::vector<std::vector<int>> sources_;
  std::vector<std::vector<SymbolId>> closure_;
};

/// Comparison sets for one property: the spec's closure plus the seeds of
/// the property's formulas, pushed along the copy edges in one worklist
/// pass. Only the positions those seeds reach get sets of their own.
class ComparisonAnalysis {
 public:
  /// `facts` must outlive the analysis. `property_formulas` are the
  /// property's FO components (instantiated or not), gathered by `facts`.
  ComparisonAnalysis(const SpecFacts& facts,
                     const std::vector<FormulaFacts>& property_formulas);

  /// Constants the position may be compared to, sorted.
  const std::vector<SymbolId>& constants(AttrPos pos) const {
    return constants(facts_->Position(pos));
  }
  const std::vector<SymbolId>& constants(int position) const {
    const int own = own_.empty() ? -1 : own_[position];
    return own < 0 ? facts_->closure(position) : sets_[own];
  }

 private:
  const SpecFacts* facts_;
  // Per position: index into sets_, or -1; empty when nothing is seeded.
  std::vector<int> own_;
  std::vector<std::vector<SymbolId>> sets_;
};

}  // namespace wave

#endif  // WAVE_ANALYSIS_DATAFLOW_H_
