#include "baseline/firstcut.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <utility>

#include "buchi/gpvw.h"
#include "common/bitset.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "ltl/abstraction.h"
#include "verifier/encode.h"

namespace wave {

namespace {

enum class SearchStatus { kContinue, kFound, kAbort };

class ExplicitSearch {
 public:
  ExplicitSearch(WebAppSpec* spec, const PreparedSpec* prepared,
                 const Property& property, const FirstCutOptions& options,
                 FirstCutResult* result)
      : spec_(spec),
        prepared_(prepared),
        property_(property),
        options_(options),
        result_(result) {}

  void Run() {
    LtlPtr negated = LtlFormula::Not(property_.body);
    Abstraction abstraction = AbstractLtl(negated, spec_->symbols());
    raw_components_ = abstraction.components;
    // The translation stops at the search's deadline too.
    GpvwStats gpvw_stats;
    GpvwOptions gpvw;
    gpvw.stats = &gpvw_stats;
    gpvw.stop = [this](int64_t /*bytes*/) { return TimedOut(); };
    std::optional<BuchiAutomaton> automaton =
        LtlToBuchi(&abstraction.arena, abstraction.root,
                   static_cast<int>(abstraction.components.size()), gpvw);
    if (!automaton.has_value()) {
      result_->failure_reason =
          gpvw_stats.over_size_cap
              ? "Büchi automaton past its size cap"
              : TimeoutReason("while translating the property");
      return;
    }
    automaton_ = std::move(*automaton);
    if (automaton_.IsEmptyLanguage()) {
      result_->verdict = Verdict::kHolds;
      return;
    }

    // The fixed domain: every constant of the spec and property plus a few
    // fresh values.
    std::set<SymbolId> domain_set = spec_->SpecConstants();
    for (const FormulaPtr& c : raw_components_) {
      std::set<SymbolId> cs = c->Constants();
      domain_set.insert(cs.begin(), cs.end());
    }
    for (int i = 0; i < options_.extra_domain_values; ++i) {
      domain_set.insert(spec_->symbols().MintFresh("dom"));
    }
    domain_.assign(domain_set.begin(), domain_set.end());
    result_->stats.domain_size = static_cast<int>(domain_.size());

    // Candidate database tuples: every tuple over the domain, for every
    // database relation. The set of representative databases is the
    // powerset — this is where the doubly exponential blow-up lives.
    double num_candidates = 0;
    for (RelationId id = 0; id < spec_->catalog().size(); ++id) {
      const RelationSchema& schema = spec_->catalog().schema(id);
      if (schema.kind != RelationKind::kDatabase) continue;
      double product = 1;
      for (int i = 0; i < schema.arity; ++i) {
        product *= static_cast<double>(domain_.size());
      }
      num_candidates += product;
    }
    result_->stats.db_tuple_candidates = num_candidates;
    if (num_candidates > options_.max_db_tuple_bits) {
      result_->verdict = Verdict::kUnknown;
      result_->failure_reason =
          "database space too large: 2^" +
          std::to_string(static_cast<int64_t>(num_candidates)) +
          " representative databases over a domain of " +
          std::to_string(domain_.size()) + " values";
      return;
    }

    // Materialize candidates and iterate the powerset with a bitmap
    // counter.
    std::vector<std::pair<RelationId, Tuple>> candidates;
    for (RelationId id = 0; id < spec_->catalog().size(); ++id) {
      const RelationSchema& schema = spec_->catalog().schema(id);
      if (schema.kind != RelationKind::kDatabase) continue;
      Tuple tuple(schema.arity);
      std::vector<size_t> idx(schema.arity, 0);
      if (schema.arity == 0) {
        candidates.emplace_back(id, Tuple{});
        continue;
      }
      while (true) {
        for (int i = 0; i < schema.arity; ++i) tuple[i] = domain_[idx[i]];
        candidates.emplace_back(id, tuple);
        size_t i = 0;
        while (i < idx.size() && ++idx[i] == domain_.size()) {
          idx[i] = 0;
          ++i;
        }
        if (i == idx.size()) break;
      }
    }

    SearchStatus status = SearchStatus::kContinue;
    DynamicBitset bitmap(static_cast<int>(candidates.size()));
    while (status == SearchStatus::kContinue) {
      ++result_->stats.num_databases;
      Instance database(&spec_->catalog());
      for (int b = 0; b < bitmap.size(); ++b) {
        if (bitmap.Test(b)) {
          database.relation(candidates[b].first).Insert(candidates[b].second);
        }
      }
      status = RunDatabase(database);
      if (status == SearchStatus::kContinue && !bitmap.Increment()) break;
    }
    if (status == SearchStatus::kFound) {
      result_->verdict = Verdict::kViolated;
    } else if (status == SearchStatus::kAbort) {
      result_->verdict = Verdict::kUnknown;
      result_->failure_reason = abort_reason_;
    } else {
      result_->verdict = Verdict::kHolds;
    }
  }

 private:
  SearchStatus RunDatabase(const Instance& database) {
    // All assignments of the property's free variables over the domain.
    std::map<std::string, SymbolId> binding;
    return EnumerateAssignments(database, 0, &binding);
  }

  SearchStatus EnumerateAssignments(const Instance& database, size_t i,
                                    std::map<std::string, SymbolId>* binding) {
    if (i == property_.forall_vars.size()) {
      return RunAssignment(database, *binding);
    }
    for (SymbolId v : domain_) {
      (*binding)[property_.forall_vars[i]] = v;
      SearchStatus status = EnumerateAssignments(database, i + 1, binding);
      if (status != SearchStatus::kContinue) return status;
    }
    return SearchStatus::kContinue;
  }

  SearchStatus RunAssignment(const Instance& database,
                             const std::map<std::string, SymbolId>& binding) {
    components_.clear();
    PageResolver resolver = [this](const std::string& name) {
      return spec_->PageIndex(name);
    };
    for (const FormulaPtr& c : raw_components_) {
      components_.push_back(PreparedFormula::Prepare(
          c->SubstituteConstants(binding), spec_->catalog(), {}, resolver));
    }
    visited_.clear();
    Configuration initial = prepared_->MakeInitial(database);
    // Initial input choices at the home page.
    return ForEachInputChoice(initial, [&](const Configuration& c0) {
      return Stick(automaton_.start, c0);
    });
  }

  template <typename Fn>
  SearchStatus ForEachInputChoice(const Configuration& skeleton,
                                  const Fn& fn) {
    std::vector<SymbolId> eval_domain =
        prepared_->EvaluationDomain(skeleton, domain_);
    InputOptions options = prepared_->ComputeOptions(skeleton, eval_domain);
    const PageSchema& page = spec_->page(skeleton.page);
    std::vector<std::pair<RelationId, std::vector<Tuple>>> alternatives;
    for (RelationId input : page.inputs) {
      std::vector<Tuple> tuples;
      if (spec_->catalog().schema(input).kind ==
          RelationKind::kInputConstant) {
        // Text inputs range over the whole domain.
        for (SymbolId v : domain_) tuples.push_back({v});
      } else {
        auto it = options.find(input);
        if (it != options.end()) tuples = it->second;
      }
      alternatives.emplace_back(input, std::move(tuples));
    }
    std::vector<InputChoice> choices = {{}};
    for (const auto& [input, tuples] : alternatives) {
      std::vector<InputChoice> expanded;
      for (const InputChoice& base : choices) {
        expanded.push_back(base);
        for (const Tuple& t : tuples) {
          InputChoice with = base;
          with[input] = t;
          expanded.push_back(std::move(with));
        }
      }
      choices = std::move(expanded);
    }
    for (const InputChoice& choice : choices) {
      Configuration complete = skeleton;
      prepared_->ApplyInput(choice, eval_domain, &complete);
      SearchStatus status = fn(complete);
      if (status != SearchStatus::kContinue) return status;
    }
    return SearchStatus::kContinue;
  }

  template <typename Fn>
  SearchStatus ForEachSuccessor(const Configuration& config, const Fn& fn) {
    std::vector<SymbolId> eval_domain =
        prepared_->EvaluationDomain(config, domain_);
    Configuration skeleton = prepared_->Advance(config, eval_domain);
    return ForEachInputChoice(skeleton, fn);
  }

  std::vector<bool> EvalComponents(const Configuration& config) {
    ConfigurationAdapter view(&config);
    std::vector<SymbolId> eval_domain =
        prepared_->EvaluationDomain(config, domain_);
    std::vector<bool> assignment(components_.size());
    for (size_t i = 0; i < components_.size(); ++i) {
      std::vector<SymbolId> regs = components_[i].MakeRegisters();
      assignment[i] = components_[i].EvalClosed(view, eval_domain, &regs);
    }
    return assignment;
  }

  bool TimedOut() const {
    return watch_.ElapsedSeconds() > options_.timeout_seconds;
  }

  /// "timeout after <timeout_seconds>s (<when>)".
  std::string TimeoutReason(const std::string& when) const {
    return "timeout after " + std::to_string(options_.timeout_seconds) +
           "s (" + when + ")";
  }

  SearchStatus CheckBudgets() {
    if (TimedOut()) {
      abort_reason_ = TimeoutReason(
          "after " + std::to_string(result_->stats.num_databases) +
          " of the representative databases");
      return SearchStatus::kAbort;
    }
    if (options_.max_expansions >= 0 &&
        result_->stats.num_expansions >= options_.max_expansions) {
      abort_reason_ = "expansion budget exhausted";
      return SearchStatus::kAbort;
    }
    return SearchStatus::kContinue;
  }

  bool MarkVisited(int flag, int state, const Configuration& config) {
    bool inserted =
        visited_.insert({flag, state, EncodeConfigurationKey(config)}).second;
    result_->stats.max_visited = std::max(
        result_->stats.max_visited, static_cast<int>(visited_.size()));
    return inserted;
  }

  SearchStatus Stick(int state, const Configuration& config) {
    if (SearchStatus s = CheckBudgets(); s != SearchStatus::kContinue) {
      return s;
    }
    if (!MarkVisited(0, state, config)) return SearchStatus::kContinue;
    ++result_->stats.num_expansions;
    std::vector<bool> assignment = EvalComponents(config);
    for (const BuchiTransition& t : automaton_.adj[state]) {
      if (!GuardSatisfied(t.guard, assignment)) continue;
      SearchStatus status = ForEachSuccessor(
          config, [&](const Configuration& next) -> SearchStatus {
            if (!visited_.count({0, t.to, EncodeConfigurationKey(next)})) {
              SearchStatus s = Stick(t.to, next);
              if (s != SearchStatus::kContinue) return s;
            }
            if (automaton_.accepting[t.to]) {
              base_state_ = t.to;
              base_config_ = next;
              SearchStatus s = Candy(t.to, next);
              if (s != SearchStatus::kContinue) return s;
            }
            return SearchStatus::kContinue;
          });
      if (status != SearchStatus::kContinue) return status;
    }
    return SearchStatus::kContinue;
  }

  SearchStatus Candy(int state, const Configuration& config) {
    if (SearchStatus s = CheckBudgets(); s != SearchStatus::kContinue) {
      return s;
    }
    if (!MarkVisited(1, state, config)) return SearchStatus::kContinue;
    ++result_->stats.num_expansions;
    std::vector<bool> assignment = EvalComponents(config);
    for (const BuchiTransition& t : automaton_.adj[state]) {
      if (!GuardSatisfied(t.guard, assignment)) continue;
      SearchStatus status = ForEachSuccessor(
          config, [&](const Configuration& next) -> SearchStatus {
            if (t.to == base_state_ && next == base_config_) {
              return SearchStatus::kFound;
            }
            if (!visited_.count({1, t.to, EncodeConfigurationKey(next)})) {
              return Candy(t.to, next);
            }
            return SearchStatus::kContinue;
          });
      if (status != SearchStatus::kContinue) return status;
    }
    return SearchStatus::kContinue;
  }

  WebAppSpec* spec_;
  const PreparedSpec* prepared_;
  const Property& property_;
  FirstCutOptions options_;
  FirstCutResult* result_;

  Stopwatch watch_;
  BuchiAutomaton automaton_;
  std::vector<FormulaPtr> raw_components_;
  std::vector<SymbolId> domain_;
  std::vector<PreparedFormula> components_;
  // Visited (flag, Büchi state, configuration key) triples.
  std::set<std::tuple<int, int, std::vector<uint8_t>>> visited_;
  int base_state_ = -1;
  Configuration base_config_;
  std::string abort_reason_;
};

}  // namespace

FirstCutVerifier::FirstCutVerifier(WebAppSpec* spec)
    : spec_(spec), prepared_(spec) {}

FirstCutResult FirstCutVerifier::Verify(const Property& property,
                                        const FirstCutOptions& options) {
  FirstCutResult result;
  Stopwatch watch;
  ExplicitSearch search(spec_, &prepared_, property, options, &result);
  search.Run();
  result.stats.seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace wave
