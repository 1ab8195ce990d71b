#include "verifier/validate.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "buchi/gpvw.h"
#include "buchi/lasso.h"
#include "common/check.h"
#include "ltl/abstraction.h"
#include "spec/prepared_spec.h"
#include "verifier/encode.h"

namespace wave {

namespace {

/// The input choice recorded in a counterexample configuration.
InputChoice ExtractChoice(const WebAppSpec& spec, const Configuration& config,
                          std::string* error) {
  InputChoice choice;
  const Catalog& catalog = spec.catalog();
  for (RelationId id = 0; id < catalog.size(); ++id) {
    if (!IsInputKind(catalog.schema(id).kind)) continue;
    const Relation& r = config.data.relation(id);
    if (r.empty()) continue;
    if (r.size() > 1) {
      *error = "input relation " + catalog.schema(id).name +
               " holds more than one tuple";
      return choice;
    }
    choice[id] = r.tuples()[0];
  }
  return choice;
}

}  // namespace

ValidationResult ValidateCounterexample(WebAppSpec* spec,
                                        const Property& property,
                                        const VerifyResult& result) {
  ValidationResult out;
  out.database = Instance(&spec->catalog());
  if (result.verdict != Verdict::kViolated) {
    out.reason = "result is not a violation";
    return out;
  }
  if (result.candy.empty()) {
    out.reason = "counterexample has no cycle";
    return out;
  }

  // 1. Materialize the database: the core plus every extension window seen
  // along the pseudorun. Page-domain values are globally distinct symbols,
  // so the union is a consistent instance (the paper's Section 3.1
  // intuition made concrete).
  std::vector<const CounterexampleStep*> steps;
  for (const CounterexampleStep& s : result.stick) steps.push_back(&s);
  for (const CounterexampleStep& s : result.candy) steps.push_back(&s);
  const Catalog& catalog = spec->catalog();
  for (const CounterexampleStep* step : steps) {
    for (RelationId id = 0; id < catalog.size(); ++id) {
      if (catalog.schema(id).kind != RelationKind::kDatabase) continue;
      out.database.relation(id).UnionWith(step->config.data.relation(id));
    }
  }

  // 2. Property machinery under the witness binding.
  LtlPtr negated = LtlFormula::Not(property.body);
  Abstraction abstraction = AbstractLtl(negated, spec->symbols());
  std::optional<BuchiAutomaton> translated =
      LtlToBuchi(&abstraction.arena, abstraction.root,
                 static_cast<int>(abstraction.components.size()));
  if (!translated.has_value()) {
    out.reason = "Büchi automaton past its size cap";
    return out;
  }
  const BuchiAutomaton& automaton = *translated;
  PageResolver resolver = [spec](const std::string& name) {
    return spec->PageIndex(name);
  };
  std::vector<PreparedFormula> components;
  for (const FormulaPtr& c : abstraction.components) {
    components.push_back(PreparedFormula::Prepare(
        c->SubstituteConstants(result.witness_binding), spec->catalog(), {},
        resolver));
  }
  std::vector<SymbolId> extra;
  for (const auto& [var, value] : result.witness_binding) {
    extra.push_back(value);
  }

  // 3. Replay under genuine-run semantics. The pseudorun filtered states
  // to C and swapped extensions, so the genuine replay need not repeat
  // after a single round of the cycle inputs: iterate the cycle's inputs
  // until the configuration at a round boundary recurs (it must — the
  // replay is deterministic over a finite value universe), then build the
  // real lasso from the trace.
  PreparedSpec prepared(spec);
  size_t cycle_start = result.stick.size();
  Configuration config = prepared.MakeInitial(out.database);
  std::vector<std::vector<bool>> letters;

  auto replay_step = [&](const CounterexampleStep& step, size_t index,
                         bool record_letter) -> bool {
    std::vector<SymbolId> domain = prepared.EvaluationDomain(config, extra);
    if (config.page != step.config.page) {
      out.reason = "replay diverged at step " + std::to_string(index) +
                   ": page " + spec->page(config.page).name + " vs " +
                   spec->page(step.config.page).name;
      return false;
    }
    std::string error;
    InputChoice choice = ExtractChoice(*spec, step.config, &error);
    if (!error.empty()) {
      out.reason = error;
      return false;
    }
    // Input legality: picked tuples must be among the generated options.
    InputOptions options = prepared.ComputeOptions(config, domain);
    for (const auto& [relation, tuple] : choice) {
      if (catalog.schema(relation).kind != RelationKind::kInput) continue;
      auto it = options.find(relation);
      bool offered = it != options.end() &&
                     std::find(it->second.begin(), it->second.end(),
                               tuple) != it->second.end();
      if (!offered) {
        out.reason = "step " + std::to_string(index) + ": input " +
                     catalog.schema(relation).name +
                     " tuple was not among the generated options";
        return false;
      }
    }
    prepared.ApplyInput(choice, domain, &config);
    if (record_letter) {
      ConfigurationAdapter view(&config);
      std::vector<bool> letter(components.size());
      for (size_t c = 0; c < components.size(); ++c) {
        std::vector<SymbolId> regs = components[c].MakeRegisters();
        letter[c] = components[c].EvalClosed(view, domain, &regs);
      }
      letters.push_back(std::move(letter));
    }
    config = prepared.Advance(config, domain);
    return true;
  };

  for (size_t i = 0; i < cycle_start; ++i) {
    if (!replay_step(*steps[i], i, true)) return out;
  }
  // Iterate cycle rounds until the round-boundary configuration recurs.
  constexpr int kMaxRounds = 256;
  std::map<std::vector<uint8_t>, size_t> seen_rounds;  // key -> letters size
  size_t lasso_prefix = 0, lasso_cycle = 0;
  bool closed = false;
  for (int round = 0; round < kMaxRounds; ++round) {
    std::vector<uint8_t> key = EncodeConfigurationKey(config);
    auto it = seen_rounds.find(key);
    if (it != seen_rounds.end()) {
      lasso_prefix = it->second;
      lasso_cycle = letters.size() - it->second;
      closed = true;
      break;
    }
    seen_rounds.emplace(std::move(key), letters.size());
    for (size_t j = 0; j < result.candy.size(); ++j) {
      if (!replay_step(*steps[cycle_start + j],
                       cycle_start + round * result.candy.size() + j,
                       true)) {
        return out;
      }
    }
  }
  if (!closed) {
    out.reason = "replay did not recur within " +
                 std::to_string(kMaxRounds) + " cycle rounds";
    return out;
  }

  // 4. The induced word must be accepted by the automaton of ¬ϕ0.
  LassoWord word;
  word.prefix.assign(letters.begin(), letters.begin() + lasso_prefix);
  word.cycle.assign(letters.begin() + lasso_prefix,
                    letters.begin() + lasso_prefix + lasso_cycle);
  if (!AcceptsLasso(automaton, word)) {
    out.reason = "the replayed run does not violate the property";
    return out;
  }
  out.genuine = true;
  return out;
}

VerifyResult VerifyValidated(Verifier* verifier, WebAppSpec* spec,
                             const Property& property,
                             VerifyOptions options, int jobs) {
  options.candidate_filter =
      [spec, &property](const std::vector<CounterexampleStep>& stick,
                        const std::vector<CounterexampleStep>& candy,
                        const std::map<std::string, SymbolId>& binding) {
        VerifyResult candidate;
        candidate.verdict = Verdict::kViolated;
        candidate.stick = stick;
        candidate.candy = candy;
        candidate.witness_binding = binding;
        return ValidateCounterexample(spec, property, candidate).genuine;
      };
  VerifyRequest request;
  request.property = &property;
  request.options = std::move(options);
  request.jobs = jobs;
  StatusOr<VerifyResponse> response = verifier->Run(request);
  WAVE_CHECK_MSG(response.ok(), "VerifyValidated(" << property.name << "): "
                                                   << response.status()
                                                          .message());
  VerifyResult result = std::move(static_cast<VerifyResult&>(*response));
  if (result.verdict == Verdict::kHolds &&
      result.stats.num_rejected_candidates > 0) {
    // Spurious candidates were discarded; without input-boundedness the
    // exhausted search is not a proof.
    result.verdict = Verdict::kUnknown;
    result.unknown_reason = UnknownReason::kRejectedCandidates;
    result.failure_reason =
        "search exhausted after rejecting " +
        std::to_string(result.stats.num_rejected_candidates) +
        " spurious counterexample(s)";
  }
  return result;
}

}  // namespace wave
