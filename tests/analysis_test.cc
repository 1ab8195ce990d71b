// Dataflow analysis and candidate-set tests — including the paper's
// Examples 3.5 / 3.6 / 3.7 scenarios on the E1 page LSP — and a
// differential test of the spec closure plus property seeds against a
// per-property fixpoint over every rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <set>

#include "analysis/candidates.h"
#include "analysis/dataflow.h"
#include "apps/apps.h"
#include "parser/parser.h"
#include "testing/spec_gen.h"
#include "verifier/session.h"
#include "verifier/verifier.h"

namespace wave {
namespace {

AttrPos Pos(const WebAppSpec& spec, const std::string& relation, int column) {
  RelationId id = spec.catalog().Find(relation);
  EXPECT_NE(id, kInvalidRelation) << relation;
  return {id, column};
}

template <typename T>
bool Contains(const std::vector<T>& sorted, const T& value) {
  return std::binary_search(sorted.begin(), sorted.end(), value);
}

TEST(DataflowTest, ExplicitComparisonsAreFound) {
  // Paper Example 3.6 (explicit case): LSP's input rule compares the
  // attributes of `criteria` to constants like "laptop" and "ram".
  AppBundle e1 = BuildE1();
  SpecFacts facts(*e1.spec);
  ComparisonAnalysis analysis(facts, {});
  SymbolId laptop = e1.spec->symbols().Find("laptop");
  SymbolId ram = e1.spec->symbols().Find("ram");
  ASSERT_NE(laptop, kInvalidSymbol);
  EXPECT_TRUE(
      Contains(analysis.constants(Pos(*e1.spec, "criteria", 0)), laptop));
  EXPECT_TRUE(Contains(analysis.constants(Pos(*e1.spec, "criteria", 1)), ram));
}

TEST(DataflowTest, ThirdCriteriaAttributeHasNoConstantComparisons) {
  // Paper Example 3.5: "the third attribute of criteria, used on page LSP"
  // is compared to no constant whatsoever, so Heuristic 1 admits no core
  // tuples for criteria.
  AppBundle e1 = BuildE1();
  SpecFacts facts(*e1.spec);
  ComparisonAnalysis analysis(facts, {});
  EXPECT_TRUE(analysis.constants(Pos(*e1.spec, "criteria", 2)).empty());
}

TEST(DataflowTest, ImplicitComparisonFlowsThroughCopies) {
  // Paper Example 3.6 (implicit case): a property mentioning the ground
  // state atom userchoice("1GB","60GB","21in") induces a comparison of the
  // third attribute of criteria to those constants, because the input rule
  // copies criteria values into laptopsearch, and the state rule copies
  // laptopsearch into userchoice.
  AppBundle e1 = BuildE1();
  std::vector<std::string> errors;
  FormulaPtr property_atom = ParseFormula(
      "userchoice(\"1GB\", \"60GB\", \"21in\")", e1.spec.get(), &errors);
  ASSERT_NE(property_atom, nullptr) << (errors.empty() ? "" : errors[0]);
  SpecFacts facts(*e1.spec);
  ComparisonAnalysis analysis(facts, {facts.Gather(*property_atom)});
  SymbolId gb1 = e1.spec->symbols().Find("1GB");
  SymbolId gb60 = e1.spec->symbols().Find("60GB");
  SymbolId in21 = e1.spec->symbols().Find("21in");
  const std::vector<SymbolId>& value =
      analysis.constants(Pos(*e1.spec, "criteria", 2));
  EXPECT_TRUE(Contains(value, gb1));
  EXPECT_TRUE(Contains(value, gb60));
  EXPECT_TRUE(Contains(value, in21));
  // Without the property the set stays empty (previous test), so the flow
  // is attributable to the copy chain.
}

TEST(CandidatesTest, Heuristic1PrunesCriteriaCores) {
  // Example 3.5: with Heuristic 1 and no property constants on products,
  // criteria/user/ordersdb contribute no core tuples.
  AppBundle e1 = BuildE1();
  SpecFacts facts(*e1.spec);
  ComparisonAnalysis analysis(facts, {});
  PageDomains domains(e1.spec.get(), &facts);
  CandidateOptions options;
  CandidateBuilder builder(&facts, &domains, &analysis, nullptr,
                           facts.constants(), options);
  const CandidateSet& core = builder.CoreCandidates();
  EXPECT_FALSE(core.overflow);
  RelationId criteria = e1.spec->catalog().Find("criteria");
  RelationId user = e1.spec->catalog().Find("user");
  for (const auto& [relation, tuple] : core.tuples) {
    EXPECT_NE(relation, criteria);
    EXPECT_NE(relation, user);
  }
}

TEST(CandidatesTest, Heuristic1OffExplodesAnalytically) {
  // Example 3.4: without Heuristic 1 the candidate count is the sum of
  // |C|^arity over the database relations — astronomically many cores.
  AppBundle e1 = BuildE1();
  SpecFacts facts(*e1.spec);
  ComparisonAnalysis analysis(facts, {});
  PageDomains domains(e1.spec.get(), &facts);
  double c = static_cast<double>(facts.constants().size());
  CandidateOptions options;
  options.heuristic1 = false;
  CandidateBuilder builder(&facts, &domains, &analysis, nullptr,
                           facts.constants(), options);
  const CandidateSet& core = builder.CoreCandidates();
  EXPECT_TRUE(core.overflow);
  double expected = c * c + c * c * c + std::pow(c, 5) + std::pow(c, 7);
  EXPECT_NEAR(core.approx_tuple_count / expected, 1.0, 1e-9);
}

TEST(CandidatesTest, ExtensionsAtLspAreTiny) {
  // Example 3.7's regime: at page LSP only a handful of extension
  // candidates exist (the criteria witnesses for the search options and the
  // login-support user tuple), versus the astronomic count with
  // Heuristic 2 off.
  AppBundle e1 = BuildE1();
  SpecFacts facts(*e1.spec);
  ComparisonAnalysis analysis(facts, {});
  PageDomains domains(e1.spec.get(), &facts);
  int lsp = e1.spec->PageIndex("LSP");
  int cp = e1.spec->PageIndex("CP");
  {
    CandidateOptions options;
    CandidateBuilder builder(&facts, &domains, &analysis, nullptr,
                             facts.constants(), options);
    const CandidateSet& ext = builder.ExtensionCandidates(lsp, cp);
    EXPECT_FALSE(ext.overflow);
    EXPECT_LE(ext.tuples.size(), 8u);
    EXPECT_GE(ext.tuples.size(), 3u);  // the three criteria witnesses
  }
  {
    CandidateOptions options;
    options.heuristic2 = false;
    CandidateBuilder builder(&facts, &domains, &analysis, nullptr,
                             facts.constants(), options);
    const CandidateSet& ext = builder.ExtensionCandidates(lsp, cp);
    EXPECT_TRUE(ext.overflow);
    EXPECT_GT(ext.approx_tuple_count, 1e9);
  }
}

TEST(CandidatesTest, ExtensionTuplesAlwaysContainAFreshValue) {
  AppBundle e1 = BuildE1();
  SpecFacts facts(*e1.spec);
  ComparisonAnalysis analysis(facts, {});
  PageDomains domains(e1.spec.get(), &facts);
  const std::vector<SymbolId>& universe = facts.constants();
  CandidateOptions options;
  CandidateBuilder builder(&facts, &domains, &analysis, nullptr, universe,
                           options);
  for (int page = 0; page < e1.spec->num_pages(); ++page) {
    const CandidateSet& ext = builder.ExtensionCandidates(page, -1);
    for (const auto& [relation, tuple] : ext.tuples) {
      bool fresh = false;
      for (SymbolId v : tuple) {
        if (!Contains(universe, v)) fresh = true;
      }
      EXPECT_TRUE(fresh) << "all-constant tuple belongs to the core";
    }
  }
}

TEST(PageDomainsTest, ValuesAreStableAndDistinct) {
  AppBundle e1 = BuildE1();
  SpecFacts facts(*e1.spec);
  PageDomains domains(e1.spec.get(), &facts);
  int lsp = e1.spec->PageIndex("LSP");
  const PageDomain& first = domains.Get(lsp);
  size_t values = first.all_values.size();
  EXPECT_GT(values, 0u);
  // Re-fetching must not mint new symbols.
  const int symbols = e1.spec->symbols().size();
  const PageDomain& second = domains.Get(lsp);
  EXPECT_EQ(second.all_values.size(), values);
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(e1.spec->symbols().size(), symbols);
  // Witnesses are stable too, and distinct per variable.
  auto rule_it = std::find_if(
      facts.rules(lsp).begin(), facts.rules(lsp).end(),
      [](const RuleFacts& r) { return r.body.vars.size() >= 2; });
  ASSERT_NE(rule_it, facts.rules(lsp).end());
  const RuleFacts& rule = *rule_it;
  SymbolId w1 = domains.RuleWitness(lsp, rule, 0);
  EXPECT_EQ(domains.RuleWitness(lsp, rule, 0), w1);
  EXPECT_NE(domains.RuleWitness(lsp, rule, 1), w1);
  int x = domains.PropertyVar(0, "x");
  EXPECT_EQ(domains.PropertyVar(0, "x"), x);
  SymbolId p1 = domains.PropertyWitness(lsp, x);
  EXPECT_EQ(domains.PropertyWitness(lsp, x), p1);
  EXPECT_NE(domains.PropertyWitness(lsp, domains.PropertyVar(0, "y")), p1);
  EXPECT_NE(domains.PropertyWitness(lsp, domains.PropertyVar(1, "x")), p1);
}

// --- the shared closure against a per-property fixpoint ----------------------

/// The comparison analysis as it was computed before the spec closure was
/// shared: every rule and every given formula processed into one map, then
/// a round-robin fixpoint over all copy edges. Kept as the reference that
/// `SpecFacts` plus `ComparisonAnalysis` must equal at every position.
class ReferenceAnalysis {
 public:
  ReferenceAnalysis(const WebAppSpec& spec,
                    const std::vector<FormulaPtr>& extra_formulas)
      : catalog_(&spec.catalog()) {
    for (int p = 0; p < spec.num_pages(); ++p) {
      const PageSchema& page = spec.page(p);
      for (const InputRule& r : page.input_rules) {
        Process(*r.body, r.relation, &r.head);
      }
      for (const StateRule& r : page.state_rules) {
        Process(*r.body, r.relation, &r.head);
      }
      for (const ActionRule& r : page.action_rules) {
        Process(*r.body, r.relation, &r.head);
      }
      for (const TargetRule& r : page.target_rules) {
        Process(*r.condition, kInvalidRelation, nullptr);
      }
    }
    for (const FormulaPtr& f : extra_formulas) {
      Process(*f, kInvalidRelation, nullptr);
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (const auto& [target, sources] : copy_edges_) {
        const std::set<SymbolId> target_constants = constants_[target];
        for (const AttrPos& src : sources) {
          for (SymbolId c : target_constants) {
            changed |= constants_[src].insert(c).second;
          }
        }
      }
    }
  }

  std::vector<SymbolId> constants(AttrPos pos) const {
    auto it = constants_.find(pos);
    if (it == constants_.end()) return {};
    return {it->second.begin(), it->second.end()};
  }

 private:
  void Process(const Formula& body, RelationId head_relation,
               const std::vector<Term>* head) {
    // Union-find over variable names.
    std::map<std::string, std::string> parent;
    std::function<std::string(const std::string&)> find =
        [&](const std::string& v) -> std::string {
      auto it = parent.find(v);
      if (it == parent.end()) {
        parent[v] = v;
        return v;
      }
      return it->second == v ? v : find(it->second);
    };
    std::vector<std::pair<std::string, AttrPos>> var_positions;
    std::vector<std::pair<std::string, SymbolId>> var_constants;
    std::vector<std::pair<AttrPos, SymbolId>> explicit_constants;
    body.VisitLeaves([&](const Formula& leaf) {
      const std::vector<Term>& args = leaf.args();
      if (leaf.kind() == Formula::Kind::kEquals) {
        if (args[0].is_variable() && args[1].is_variable()) {
          parent[find(args[0].variable)] = find(args[1].variable);
        } else if (args[0].is_variable()) {
          var_constants.emplace_back(args[0].variable, args[1].constant);
        } else if (args[1].is_variable()) {
          var_constants.emplace_back(args[1].variable, args[0].constant);
        }
        return;
      }
      if (leaf.kind() != Formula::Kind::kAtom) return;
      RelationId id = catalog_->Find(leaf.relation());
      if (id == kInvalidRelation) return;
      for (size_t i = 0; i < args.size(); ++i) {
        AttrPos pos{id, static_cast<int>(i)};
        if (args[i].is_variable()) {
          var_positions.emplace_back(args[i].variable, pos);
        } else {
          explicit_constants.emplace_back(pos, args[i].constant);
        }
      }
    });
    std::map<std::string, std::set<AttrPos>> positions;
    std::map<std::string, std::set<SymbolId>> constants;
    for (const auto& [var, pos] : var_positions) {
      positions[find(var)].insert(pos);
    }
    for (const auto& [var, c] : var_constants) constants[find(var)].insert(c);
    if (head != nullptr && head_relation != kInvalidRelation) {
      for (size_t j = 0; j < head->size(); ++j) {
        AttrPos head_pos{head_relation, static_cast<int>(j)};
        const Term& t = (*head)[j];
        if (t.is_variable()) {
          std::set<AttrPos>& cls = positions[find(t.variable)];
          for (const AttrPos& src : cls) copy_edges_[head_pos].insert(src);
          cls.insert(head_pos);
        } else {
          explicit_constants.emplace_back(head_pos, t.constant);
        }
      }
    }
    for (const auto& [pos, c] : explicit_constants) constants_[pos].insert(c);
    for (const auto& [cls, members] : positions) {
      const std::set<SymbolId>& cs = constants[cls];
      for (const AttrPos& pos : members) {
        constants_[pos].insert(cs.begin(), cs.end());
      }
    }
  }

  const Catalog* catalog_;
  std::map<AttrPos, std::set<SymbolId>> constants_;
  std::map<AttrPos, std::set<AttrPos>> copy_edges_;
};

/// Expects `analysis` (the spec closure plus `formulas`' seeds) to equal
/// the reference fixpoint over the spec and `formulas` at every position.
void ExpectSameAsReference(const SpecFacts& facts,
                           const ComparisonAnalysis& analysis,
                           const std::vector<FormulaPtr>& formulas,
                           const std::string& what) {
  const WebAppSpec& spec = facts.spec();
  ReferenceAnalysis reference(spec, formulas);
  const Catalog& catalog = spec.catalog();
  for (RelationId id = 0; id < catalog.size(); ++id) {
    for (int c = 0; c < catalog.schema(id).arity; ++c) {
      AttrPos pos{id, c};
      EXPECT_EQ(analysis.constants(pos), reference.constants(pos))
          << what << ": constants of " << catalog.schema(id).name << "." << c;
    }
  }
}

/// Checks every property of `properties` on `spec`: the plan's
/// uninstantiated components, and the instantiated components of every
/// assignment the default pre-pass builds (whose analysis is the engine's
/// own). Returns the number of analyses compared.
int CheckProperties(WebAppSpec* spec, const std::vector<Property>& properties,
                    const std::string& name) {
  Verifier verifier(spec);
  VerifierSession& session = verifier.session();
  const SpecFacts& facts = session.facts();
  int checked = 0;
  for (const Property& property : properties) {
    const std::string what = name + "/" + property.name;
    const PropertyPlan* plan = session.GetPlan(property, nullptr);
    std::vector<FormulaFacts> raw;
    for (const FormulaPtr& c : plan->raw_components) {
      raw.push_back(facts.Gather(*c));
    }
    ExpectSameAsReference(facts, ComparisonAnalysis(facts, raw),
                          plan->raw_components, what + " (uninstantiated)");
    ++checked;
    PrepassResult prepass =
        session.GetPrepass(property, VerifyOptions{}, nullptr, nullptr);
    if (prepass.get() == nullptr) continue;
    for (const auto& ctx : prepass.get()->ctxs) {
      ExpectSameAsReference(facts, *ctx->analysis, ctx->instantiated,
                            what + " assignment " + std::to_string(ctx->index));
      ++checked;
    }
    session.UnpinPrepass(prepass.artifacts);
  }
  return checked;
}

TEST(SpecClosureTest, MatchesPerPropertyFixpointOnTheSuite) {
  int checked = 0;
  for (auto build : {BuildE1, BuildE2, BuildE3, BuildE4}) {
    AppBundle bundle = build();
    std::vector<Property> properties;
    for (const ParsedProperty& p : bundle.properties) {
      properties.push_back(p.property);
    }
    checked += CheckProperties(bundle.spec.get(), properties,
                               bundle.spec->name);
  }
  EXPECT_GE(checked, 56 * 2);
}

TEST(SpecClosureTest, MatchesPerPropertyFixpointOnGeneratedSpecs) {
  int specs = 0;
  for (uint64_t seed = 1; seed <= 240; ++seed) {
    testing::FuzzCase c = testing::GenerateCase(seed);
    ParseResult parsed = ParseSpec(c.Text());
    ASSERT_TRUE(parsed.ok()) << "seed " << seed << ": " << parsed.ErrorText();
    std::vector<Property> properties;
    for (const ParsedProperty& p : parsed.properties) {
      properties.push_back(p.property);
    }
    CheckProperties(parsed.spec.get(), properties,
                    "seed " + std::to_string(seed));
    ++specs;
  }
  EXPECT_EQ(specs, 240);
}

}  // namespace
}  // namespace wave
