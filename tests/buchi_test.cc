// Büchi construction tests: Figure 1's automaton shape, hand-picked
// formulas, a randomized differential test of the GPVW translation
// against the reference lasso-word LTL evaluator, and the property
// automata of the suite and of generated cases pinned in
// tests/golden/automaton_pins.json.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>

#include "apps/apps.h"
#include "buchi/gpvw.h"
#include "buchi/lasso.h"
#include "buchi/prop_ltl.h"
#include "common/fingerprint.h"
#include "common/io.h"
#include "ltl/abstraction.h"
#include "obs/json.h"
#include "parser/parser.h"
#include "testing/spec_gen.h"

namespace wave {
namespace {

LassoWord MakeLasso(const std::vector<std::vector<bool>>& prefix,
                    const std::vector<std::vector<bool>>& cycle) {
  LassoWord w;
  w.prefix = prefix;
  w.cycle = cycle;
  return w;
}

TEST(GpvwTest, Figure1UntilAutomatonShape) {
  // Figure 1 of the paper: the automaton for P1 U P2 has two states — a
  // start state with a P1 self-loop and a P2 edge to an accepting state
  // with a true self-loop.
  PropArena arena;
  PropId f = arena.U(arena.Prop(0), arena.Prop(1));
  BuchiAutomaton a = *LtlToBuchi(&arena, f, 2);
  EXPECT_EQ(a.NumStates(), 2);
  int accepting_count = 0;
  for (int s = 0; s < a.NumStates(); ++s) {
    if (a.accepting[s]) ++accepting_count;
  }
  EXPECT_EQ(accepting_count, 1);
  EXPECT_FALSE(a.accepting[a.start]);
  // Start: P1 self-loop + P2 edge to the accepting state.
  ASSERT_EQ(a.adj[a.start].size(), 2u);
  // Accepting: unguarded self-loop.
  int acc = a.accepting[0] ? 0 : 1;
  ASSERT_EQ(a.adj[acc].size(), 1u);
  EXPECT_EQ(a.adj[acc][0].to, acc);
  EXPECT_TRUE(a.adj[acc][0].guard.empty());
}

TEST(GpvwTest, UntilAcceptsOnlyMatchingWords) {
  PropArena arena;
  PropId f = arena.U(arena.Prop(0), arena.Prop(1));
  BuchiAutomaton a = *LtlToBuchi(&arena, f, 2);
  // P1 P1 P2 then anything: accepted.
  EXPECT_TRUE(AcceptsLasso(
      a, MakeLasso({{true, false}, {true, false}, {false, true}},
                   {{false, false}})));
  // P1 forever, P2 never: rejected.
  EXPECT_FALSE(AcceptsLasso(a, MakeLasso({}, {{true, false}})));
  // P1 gap before P2: rejected.
  EXPECT_FALSE(AcceptsLasso(
      a, MakeLasso({{false, false}}, {{false, true}})));
}

TEST(GpvwTest, GloballyAutomaton) {
  PropArena arena;
  PropId f = arena.G(arena.Prop(0));
  BuchiAutomaton a = *LtlToBuchi(&arena, f, 1);
  EXPECT_TRUE(AcceptsLasso(a, MakeLasso({}, {{true}})));
  EXPECT_FALSE(AcceptsLasso(a, MakeLasso({{true}}, {{false}})));
  EXPECT_FALSE(AcceptsLasso(a, MakeLasso({{false}}, {{true}})));
}

TEST(GpvwTest, FalseHasEmptyLanguage) {
  PropArena arena;
  BuchiAutomaton a = *LtlToBuchi(&arena, arena.False(), 1);
  EXPECT_TRUE(a.IsEmptyLanguage());
  // G p & F !p is also unsatisfiable.
  PropId f = arena.And(arena.G(arena.Prop(0)),
                       arena.F(arena.Not(arena.Prop(0))));
  BuchiAutomaton b = *LtlToBuchi(&arena, f, 1);
  EXPECT_TRUE(b.IsEmptyLanguage());
}

TEST(GpvwTest, BeforeOperatorSemantics) {
  // p B q: q never holds, or p holds strictly before the first q.
  PropArena arena;
  PropId f = arena.B(arena.Prop(0), arena.Prop(1));
  BuchiAutomaton a = *LtlToBuchi(&arena, f, 2);
  // q never: accepted.
  EXPECT_TRUE(AcceptsLasso(a, MakeLasso({}, {{false, false}})));
  // p at 0, q at 1: accepted.
  EXPECT_TRUE(AcceptsLasso(
      a, MakeLasso({{true, false}, {false, true}}, {{false, false}})));
  // q at 0 with no earlier p: rejected.
  EXPECT_FALSE(AcceptsLasso(
      a, MakeLasso({{false, true}}, {{false, false}})));
  // p and q simultaneously at 0 (p not strictly before): rejected.
  EXPECT_FALSE(AcceptsLasso(a, MakeLasso({{true, true}}, {{false, false}})));
}

TEST(GpvwTest, AStoppedTranslationReturnsNoAutomaton) {
  // F nested 12 deep: thousands of translation steps, so the stop check
  // is called more than once.
  PropArena arena;
  PropId f = arena.Prop(0);
  for (int i = 0; i < 12; ++i) f = arena.F(f);
  int calls = 0;
  GpvwOptions options;
  options.stop = [&calls](int64_t) { return ++calls == 2; };
  EXPECT_FALSE(LtlToBuchi(&arena, f, 1, options).has_value());
  EXPECT_EQ(calls, 2) << "the stop latches: no check after it fired";

  // A check that never fires leaves the automaton as it is without one.
  calls = 0;
  options.stop = [&calls](int64_t) { return ++calls < 0; };
  std::optional<BuchiAutomaton> kept = LtlToBuchi(&arena, f, 1, options);
  ASSERT_TRUE(kept.has_value());
  EXPECT_GT(calls, 1);
  BuchiAutomaton plain = *LtlToBuchi(&arena, f, 1);
  EXPECT_EQ(kept->start, plain.start);
  EXPECT_EQ(kept->adj, plain.adj);
  EXPECT_EQ(kept->accepting, plain.accepting);
}

/// ¬(G nested `depth` deep around p0), i.e. F nested as deep around ¬p0:
/// a tableau of (depth + 1)(depth + 2)/2 nodes and `depth` Until
/// subformulas.
PropId NegatedGChain(PropArena* arena, int depth) {
  PropId f = arena->Prop(0);
  for (int i = 0; i < depth; ++i) f = arena->G(f);
  return arena->Not(f);
}

TEST(GpvwTest, TheStopCheckIsToldTheBytesAboutToBeNeeded) {
  // Once before degeneralizing, the check sees the tableau's bytes plus
  // those of the degeneralized automaton: 8 bytes and more per state.
  PropArena arena;
  PropId f = NegatedGChain(&arena, 12);
  GpvwStats stats;
  GpvwOptions options;
  options.stats = &stats;
  int64_t most = 0;
  options.stop = [&most](int64_t bytes) {
    most = std::max(most, bytes);
    return false;
  };
  ASSERT_TRUE(LtlToBuchi(&arena, f, 1, options).has_value());
  EXPECT_EQ(stats.tableau_nodes, 13 * 14 / 2);
  EXPECT_EQ(stats.states_before_simplify, (stats.tableau_nodes + 1) * 12);
  EXPECT_GT(most, 8 * int64_t{stats.states_before_simplify});
  EXPECT_FALSE(stats.over_size_cap);
}

TEST(GpvwTest, AnAutomatonPastASizeCapIsNotBuilt) {
  // G nested 210 deep: 22,366 tableau nodes, whose degeneralization would
  // have 22,367 × 210 = 4,697,070 states, past kMaxDegeneralizedStates.
  // G nested 100 deep: 515,200 states, but more transitions than
  // kMaxDegeneralizedTransitions. Both tableaux complete in well under a
  // second; nothing of the degeneralized size is allocated, so the stop
  // check only ever sees the tableau's few megabytes.
  for (int depth : {210, 100}) {
    SCOPED_TRACE(depth);
    for (bool simplify : {true, false}) {
      PropArena arena;
      PropId f = NegatedGChain(&arena, depth);
      GpvwStats stats;
      GpvwOptions options;
      options.simplify = simplify;
      options.stats = &stats;
      int64_t most = 0;
      options.stop = [&most](int64_t bytes) {
        most = std::max(most, bytes);
        return false;
      };
      EXPECT_FALSE(LtlToBuchi(&arena, f, 1, options).has_value());
      EXPECT_TRUE(stats.over_size_cap);
      EXPECT_EQ(stats.tableau_nodes, (depth + 1) * (depth + 2) / 2);
      EXPECT_EQ(stats.until_subformulas, depth);
      EXPECT_EQ(stats.states_before_simplify, 0);
      EXPECT_LT(most, 16 << 20);
    }
  }
  EXPECT_LE((int64_t{101 * 102 / 2} + 1) * 100, kMaxDegeneralizedStates);
  EXPECT_GT((int64_t{211 * 212 / 2} + 1) * 210, kMaxDegeneralizedStates);
}

TEST(GpvwTest, OneExpansionStopsAtTheStateCap) {
  // (G a1 ∨ G b1) ∧ … ∧ (G a26 ∨ G b26): the initial state alone
  // completes 2^26 distinct nodes, one per choice of disjuncts (the
  // rewrite merges no R under ∨ on its left operand). The tableau stops
  // registering them once they pass kMaxDegeneralizedStates, inside that
  // one expansion, so its bytes stay a few hundred megabytes; without
  // that bound the stop check here would end the translation instead.
  constexpr int kConjuncts = 26;
  constexpr int64_t kLimit = int64_t{512} << 20;
  PropArena arena;
  PropId f = -1;
  for (int i = 0; i < kConjuncts; ++i) {
    PropId d = arena.Or(arena.G(arena.Prop(2 * i)),
                        arena.G(arena.Prop(2 * i + 1)));
    f = i == 0 ? d : arena.And(f, d);
  }
  GpvwStats stats;
  GpvwOptions options;
  options.stats = &stats;
  int64_t most = 0;
  options.stop = [&most](int64_t bytes) {
    most = std::max(most, bytes);
    return bytes > kLimit;
  };
  EXPECT_FALSE(LtlToBuchi(&arena, f, 2 * kConjuncts, options).has_value());
  EXPECT_TRUE(stats.over_size_cap);
  EXPECT_LE(most, kLimit);
}

TEST(GpvwTest, ASuccessorCompletedManyTimesIsListedOnce) {
  // p0 ∧ … ∧ p7 ∧ (p0 ∨ p1) ∧ (p0 ∨ p2) ∧ … (20 of the pairs): both
  // branches of each disjunction are already in Old, so the initial state
  // completes the same node 2^20 times. It lists that node once, so the
  // tableau's bytes do not grow with the completions.
  PropArena arena;
  PropId f = arena.Prop(0);
  for (int i = 1; i < 8; ++i) f = arena.And(f, arena.Prop(i));
  int pairs = 0;
  for (int i = 0; i < 8; ++i) {
    for (int j = i + 1; j < 8 && pairs < 20; ++j, ++pairs) {
      f = arena.And(f, arena.Or(arena.Prop(i), arena.Prop(j)));
    }
  }
  GpvwStats stats;
  GpvwOptions options;
  options.stats = &stats;
  int64_t most = 0;
  options.stop = [&most](int64_t bytes) {
    most = std::max(most, bytes);
    return false;
  };
  ASSERT_TRUE(LtlToBuchi(&arena, f, 8, options).has_value());
  EXPECT_EQ(stats.tableau_nodes, 2);
  EXPECT_LT(most, 64 << 10);
}

TEST(GpvwTest, IdenticalBranchesOfASplitExpandOnce) {
  // As above with 24 of the pairs: each disjunction's two branches come
  // out as the same frame, and the split keeps one, so the translation
  // no longer takes 2^24 completions (0.53 s before) for its two nodes.
  PropArena arena;
  PropId f = arena.Prop(0);
  for (int i = 1; i < 8; ++i) f = arena.And(f, arena.Prop(i));
  int pairs = 0;
  for (int i = 0; i < 8; ++i) {
    for (int j = i + 1; j < 8 && pairs < 24; ++j, ++pairs) {
      f = arena.And(f, arena.Or(arena.Prop(i), arena.Prop(j)));
    }
  }
  ASSERT_EQ(pairs, 24);
  GpvwStats stats;
  GpvwOptions options;
  options.stats = &stats;
  const auto start = std::chrono::steady_clock::now();
  std::optional<BuchiAutomaton> a = LtlToBuchi(&arena, f, 8, options);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(stats.tableau_nodes, 2);
  EXPECT_EQ(a->NumStates(), 2);
  EXPECT_LT(seconds, 0.05);
}

// --- negation normal form ----------------------------------------------------

/// ((…(F p0 -> F p1) -> …) -> F p_depth): each implication nests in the
/// left operand of the next.
PropId NestedImplications(PropArena* arena, int depth) {
  PropId f = arena->F(arena->Prop(0));
  for (int i = 1; i <= depth; ++i) {
    f = arena->Implies(f, arena->F(arena->Prop(i)));
  }
  return f;
}

/// The NNF of `NestedImplications(depth)` in polarity `negate`, built by
/// hand: a -> b is !a | b, !(a -> b) is a & !b, F p is true U p and !F p
/// is false R !p.
PropId NestedImplicationsNnf(PropArena* arena, int depth, bool negate) {
  PropId p = arena->Prop(depth);
  PropId f = negate ? arena->R(arena->False(), arena->Not(p))
                    : arena->U(arena->True(), p);
  if (depth == 0) return f;
  PropId rest = NestedImplicationsNnf(arena, depth - 1, !negate);
  return negate ? arena->And(rest, f) : arena->Or(rest, f);
}

TEST(PropArenaTest, NnfOfNestedImplicationsMatchesHandBuilt) {
  for (int depth = 0; depth <= 6; ++depth) {
    for (bool negate : {false, true}) {
      PropArena arena;
      PropId f = NestedImplications(&arena, depth);
      EXPECT_EQ(arena.Nnf(f, negate),
                NestedImplicationsNnf(&arena, depth, negate))
          << "depth " << depth << " negate " << negate;
    }
  }
}

TEST(PropArenaTest, NnfIsLinearInDeepImplicationChains) {
  // Each level reaches the level below in both polarities; without the
  // (node, polarity) memo the work doubles with every two levels.
  PropArena arena;
  PropId f = NestedImplications(&arena, 200);
  auto start = std::chrono::steady_clock::now();
  PropId nnf = arena.Nnf(f, true);
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  EXPECT_EQ(nnf, NestedImplicationsNnf(&arena, 200, true));
  EXPECT_LT(seconds, 1.0);
}

// --- randomized differential test -------------------------------------------

/// Builds a random LTL formula over `num_props` propositions.
PropId RandomFormula(PropArena* arena, std::mt19937* rng, int depth,
                     int num_props) {
  std::uniform_int_distribution<int> kind_dist(0, depth <= 0 ? 2 : 10);
  std::uniform_int_distribution<int> prop_dist(0, num_props - 1);
  switch (kind_dist(*rng)) {
    case 0:
      return arena->Prop(prop_dist(*rng));
    case 1:
      return arena->True();
    case 2:
      return arena->Not(arena->Prop(prop_dist(*rng)));
    case 3:
      return arena->Not(RandomFormula(arena, rng, depth - 1, num_props));
    case 4:
      return arena->And(RandomFormula(arena, rng, depth - 1, num_props),
                        RandomFormula(arena, rng, depth - 1, num_props));
    case 5:
      return arena->Or(RandomFormula(arena, rng, depth - 1, num_props),
                       RandomFormula(arena, rng, depth - 1, num_props));
    case 6:
      return arena->X(RandomFormula(arena, rng, depth - 1, num_props));
    case 7:
      return arena->U(RandomFormula(arena, rng, depth - 1, num_props),
                      RandomFormula(arena, rng, depth - 1, num_props));
    case 8:
      return arena->G(RandomFormula(arena, rng, depth - 1, num_props));
    case 9:
      return arena->F(RandomFormula(arena, rng, depth - 1, num_props));
    default:
      return arena->B(RandomFormula(arena, rng, depth - 1, num_props),
                      RandomFormula(arena, rng, depth - 1, num_props));
  }
}

std::vector<bool> RandomLetter(std::mt19937* rng, int num_props) {
  std::vector<bool> letter(num_props);
  for (int p = 0; p < num_props; ++p) letter[p] = (*rng)() & 1;
  return letter;
}

/// A random lasso word over `num_props` propositions: a prefix of 0-3
/// letters, then a cycle of 1-3.
LassoWord RandomLasso(std::mt19937* rng, int num_props) {
  std::uniform_int_distribution<int> prefix_dist(0, 3), cycle_dist(1, 3);
  LassoWord word;
  int prefix_len = prefix_dist(*rng), cycle_len = cycle_dist(*rng);
  for (int i = 0; i < prefix_len; ++i) {
    word.prefix.push_back(RandomLetter(rng, num_props));
  }
  for (int i = 0; i < cycle_len; ++i) {
    word.cycle.push_back(RandomLetter(rng, num_props));
  }
  return word;
}

/// Checks that the formula `f`, its rewritten NNF and its automaton agree
/// on `words` random lassos.
void ExpectAgreesOnLassos(PropArena* arena, PropId f, int num_props,
                          std::mt19937* rng, int words,
                          const std::string& name) {
  PropId rewritten = arena->Rewrite(arena->Nnf(f));
  BuchiAutomaton a = *LtlToBuchi(arena, f, num_props);
  for (int w = 0; w < words; ++w) {
    LassoWord word = RandomLasso(rng, std::max(num_props, 1));
    bool semantic = EvalLtlOnLasso(arena, f, word);
    ASSERT_EQ(EvalLtlOnLasso(arena, rewritten, word), semantic)
        << name << ": " << arena->ToString(f, nullptr) << " rewritten to "
        << arena->ToString(rewritten, nullptr) << ", word " << w;
    ASSERT_EQ(AcceptsLasso(a, word), semantic)
        << name << ": " << arena->ToString(f, nullptr) << ", word " << w;
  }
}

class GpvwDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(GpvwDifferentialTest, MatchesReferenceSemanticsOnRandomLassos) {
  std::mt19937 rng(GetParam());
  constexpr int kNumProps = 2;
  PropArena arena;
  PropId f = RandomFormula(&arena, &rng, 3, kNumProps);
  ExpectAgreesOnLassos(&arena, f, kNumProps, &rng, 40,
                       "seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GpvwDifferentialTest,
                         ::testing::Range(0, 60));

// --- automaton pins ---------------------------------------------------------

/// One LTL-FO property whose negation's automaton is pinned.
struct PinnedProperty {
  std::string name;  // "e1/P4", "fuzz/<seed>", "wide/<seed>"
  LtlPtr negated;
  const SymbolTable* symbols;
};

/// Number of generated properties pinned per generator config.
constexpr int kPinnedSeeds = 500;

/// The properties of tests/golden/automaton_pins.json: the suite's, then
/// generated ones (seeds 1..kPinnedSeeds) at the fuzz defaults and at a
/// widened config. `specs` keeps their symbol tables alive.
std::vector<PinnedProperty> PinnedProperties(
    std::vector<std::unique_ptr<WebAppSpec>>* specs) {
  std::vector<PinnedProperty> out;
  const std::pair<const char*, AppBundle (*)()> suites[] = {
      {"e1", BuildE1}, {"e2", BuildE2}, {"e3", BuildE3}, {"e4", BuildE4}};
  for (const auto& [suite, build] : suites) {
    AppBundle bundle = build();
    for (const ParsedProperty& p : bundle.properties) {
      out.push_back({std::string(suite) + "/" + p.property.name,
                     LtlFormula::Not(p.property.body),
                     &bundle.spec->symbols()});
    }
    specs->push_back(std::move(bundle.spec));
  }
  testing::GeneratorConfig wide;
  wide.max_pages = 6;
  wide.max_constants = 4;
  wide.max_property_depth = 4;
  const std::pair<const char*, testing::GeneratorConfig> configs[] = {
      {"fuzz", testing::GeneratorConfig{}}, {"wide", wide}};
  for (const auto& [prefix, config] : configs) {
    for (uint64_t seed = 1; seed <= kPinnedSeeds; ++seed) {
      ParseResult parsed =
          ParseSpec(testing::GenerateCase(seed, config).Text());
      EXPECT_TRUE(parsed.ok()) << prefix << "/" << seed << "\n"
                               << parsed.ErrorText();
      if (!parsed.ok() || parsed.properties.empty()) continue;
      out.push_back({std::string(prefix) + "/" + std::to_string(seed),
                     LtlFormula::Not(parsed.properties[0].property.body),
                     &parsed.spec->symbols()});
      specs->push_back(std::move(parsed.spec));
    }
  }
  return out;
}

/// Hex fingerprint of an automaton: its start state, then per state its
/// acceptance flag and its transitions' targets and guards, in order.
std::string AutomatonFingerprint(const BuchiAutomaton& a) {
  FingerprintBuilder fp;
  fp.AddInt(a.NumStates());
  fp.AddInt(a.start);
  for (int s = 0; s < a.NumStates(); ++s) {
    fp.AddBool(a.accepting[s]);
    fp.AddInt(static_cast<int64_t>(a.adj[s].size()));
    for (const BuchiTransition& t : a.adj[s]) {
      fp.AddInt(t.to);
      fp.AddInt(static_cast<int64_t>(t.guard.size()));
      for (const Literal& lit : t.guard) {
        fp.AddInt(lit.prop);
        fp.AddBool(lit.positive);
      }
    }
  }
  return fp.Finish().ToHex();
}

/// The pin of one property: the raw tableau's and the simplified
/// automaton's state counts and fingerprints.
obs::Json AutomatonPin(const PinnedProperty& p) {
  obs::Json pin = obs::Json::Object();
  pin.Set("name", obs::Json::Str(p.name));
  for (bool simplify : {false, true}) {
    Abstraction abstraction = AbstractLtl(p.negated, *p.symbols);
    GpvwOptions options;
    options.simplify = simplify;
    BuchiAutomaton a =
        *LtlToBuchi(&abstraction.arena, abstraction.root,
                    static_cast<int>(abstraction.components.size()), options);
    const std::string prefix = simplify ? "" : "raw_";
    pin.Set(prefix + "states", obs::Json::Int(a.NumStates()));
    pin.Set(prefix + "fingerprint", obs::Json::Str(AutomatonFingerprint(a)));
  }
  return pin;
}

std::string AutomatonPinsPath() {
  return std::string(WAVE_REPO_ROOT) + "/tests/golden/automaton_pins.json";
}

/// Every pinned property's automaton, raw and simplified, matches
/// tests/golden/automaton_pins.json. Run the test binary with WAVE_REGOLD
/// set to rewrite the file after a deliberate change to the translation.
TEST(AutomatonPinsTest, AutomataMatchPins) {
  std::vector<std::unique_ptr<WebAppSpec>> specs;
  std::vector<PinnedProperty> properties = PinnedProperties(&specs);
  ASSERT_EQ(properties.size(), 56u + 2 * kPinnedSeeds);
  if (std::getenv("WAVE_REGOLD") != nullptr) {
    std::string bytes;
    for (const PinnedProperty& p : properties) {
      bytes += AutomatonPin(p).Dump() + "\n";
    }
    Status written = AtomicWriteFile(AutomatonPinsPath(), bytes);
    ASSERT_TRUE(written.ok()) << written.ToString();
    return;
  }
  StatusOr<std::string> golden = ReadFileToString(AutomatonPinsPath());
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  std::istringstream lines(*golden);
  std::string line;
  size_t row = 0;
  for (; std::getline(lines, line) && row < properties.size(); ++row) {
    EXPECT_EQ(AutomatonPin(properties[row]).Dump(), line);
  }
  EXPECT_EQ(row, properties.size()) << "pins file is short";
  EXPECT_FALSE(std::getline(lines, line)) << "pins file is long";
}

// --- the rewrite before the tableau -----------------------------------------

TEST(RewriteTest, FlattensChainsAndDropsDuplicates) {
  PropArena arena;
  PropId a = arena.Prop(0), b = arena.Prop(1), c = arena.Prop(2);
  // a ∧ (b ∧ a) → a ∧ b; (a ∨ b) ∨ (c ∨ b) → (a ∨ b) ∨ c.
  EXPECT_EQ(arena.Rewrite(arena.And(a, arena.And(b, a))), arena.And(a, b));
  EXPECT_EQ(arena.Rewrite(arena.Or(arena.Or(a, b), arena.Or(c, b))),
            arena.Or(arena.Or(a, b), c));
  // A chain that collapses to one operand is that operand.
  PropId ab = arena.And(a, b);
  EXPECT_EQ(arena.Rewrite(arena.Or(ab, ab)), ab);
}

TEST(RewriteTest, MergesUntilsSharingTheirLeftInDisjunctions) {
  PropArena arena;
  PropId a = arena.Prop(0), b1 = arena.Prop(1), b2 = arena.Prop(2);
  EXPECT_EQ(arena.Rewrite(arena.Or(arena.U(a, b1), arena.U(a, b2))),
            arena.U(a, arena.Or(b1, b2)));
  // F b1 ∨ F b2 → true U (b1 ∨ b2).
  PropId f = arena.Nnf(arena.Or(arena.F(b1), arena.F(b2)));
  EXPECT_EQ(arena.Rewrite(f), arena.U(arena.True(), arena.Or(b1, b2)));
  // Untils sharing only their right operand stay apart in a disjunction.
  PropId apart = arena.Or(arena.U(b1, a), arena.U(b2, a));
  EXPECT_EQ(arena.Rewrite(apart), apart);
}

TEST(RewriteTest, MergesReleasesSharingTheirRightInDisjunctions) {
  PropArena arena;
  PropId a1 = arena.Prop(0), a2 = arena.Prop(1), b = arena.Prop(2);
  EXPECT_EQ(arena.Rewrite(arena.Or(arena.R(a1, b), arena.R(a2, b))),
            arena.R(arena.Or(a1, a2), b));
}

TEST(RewriteTest, MergesReleasesSharingTheirLeftInConjunctions) {
  PropArena arena;
  PropId a = arena.Prop(0), b1 = arena.Prop(1), b2 = arena.Prop(2);
  EXPECT_EQ(arena.Rewrite(arena.And(arena.R(a, b1), arena.R(a, b2))),
            arena.R(a, arena.And(b1, b2)));
  // G b1 ∧ G b2 → false R (b1 ∧ b2).
  PropId g = arena.Nnf(arena.And(arena.G(b1), arena.G(b2)));
  EXPECT_EQ(arena.Rewrite(g), arena.R(arena.False(), arena.And(b1, b2)));
}

TEST(RewriteTest, MergesUntilsSharingTheirRightInConjunctions) {
  PropArena arena;
  PropId a1 = arena.Prop(0), a2 = arena.Prop(1), b = arena.Prop(2);
  EXPECT_EQ(arena.Rewrite(arena.And(arena.U(a1, b), arena.U(a2, b))),
            arena.U(arena.And(a1, a2), b));
}

TEST(RewriteTest, MergesNexts) {
  PropArena arena;
  PropId a = arena.Prop(0), b = arena.Prop(1), c = arena.Prop(2);
  EXPECT_EQ(arena.Rewrite(arena.Or(arena.X(a), arena.X(b))),
            arena.X(arena.Or(a, b)));
  EXPECT_EQ(arena.Rewrite(arena.And(arena.And(arena.X(a), c), arena.X(b))),
            arena.And(arena.X(arena.And(a, b)), c));
}

TEST(RewriteTest, GroupsSitWhereTheirFirstMemberDid) {
  PropArena arena;
  PropId a = arena.Prop(0), b1 = arena.Prop(1), b2 = arena.Prop(2);
  PropId p = arena.Prop(3);
  PropId f = arena.Or(arena.Or(p, arena.U(a, b1)),
                      arena.Or(arena.X(p), arena.U(a, b2)));
  EXPECT_EQ(arena.Rewrite(f),
            arena.Or(arena.Or(p, arena.U(a, arena.Or(b1, b2))), arena.X(p)));
}

TEST(RewriteTest, RewritesAMergedOperandAgain) {
  // a U X b1 ∨ a U X b2 → a U (X b1 ∨ X b2) → a U X (b1 ∨ b2).
  PropArena arena;
  PropId a = arena.Prop(0), b1 = arena.Prop(1), b2 = arena.Prop(2);
  PropId f = arena.Or(arena.U(a, arena.X(b1)), arena.U(a, arena.X(b2)));
  PropId once = arena.Rewrite(f);
  EXPECT_EQ(once, arena.U(a, arena.X(arena.Or(b1, b2))));
  EXPECT_EQ(arena.Rewrite(once), once);
}

TEST(RewriteTest, ShrinksTheE1P4Automaton) {
  // E1/P4's negation is a disjunction of twelve F's; merged into one, the
  // tableau has 27 states instead of 744, and the automaton 14 (the
  // paper's ltl2ba automaton has 30).
  AppBundle e1 = BuildE1();
  const ParsedProperty* p4 = nullptr;
  for (const ParsedProperty& p : e1.properties) {
    if (p.property.name == "P4") p4 = &p;
  }
  ASSERT_NE(p4, nullptr);
  Abstraction abstraction =
      AbstractLtl(LtlFormula::Not(p4->property.body), e1.spec->symbols());
  GpvwStats stats;
  GpvwOptions options;
  options.stats = &stats;
  BuchiAutomaton a =
      *LtlToBuchi(&abstraction.arena, abstraction.root,
                  static_cast<int>(abstraction.components.size()), options);
  EXPECT_EQ(stats.states_before_simplify, 27);
  EXPECT_EQ(a.NumStates(), 14);
}

TEST(RewriteDifferentialTest, PinnedPropertiesAgreeOnRandomLassos) {
  std::vector<std::unique_ptr<WebAppSpec>> specs;
  std::mt19937 rng(7);
  for (const PinnedProperty& p : PinnedProperties(&specs)) {
    Abstraction abstraction = AbstractLtl(p.negated, *p.symbols);
    ExpectAgreesOnLassos(&abstraction.arena, abstraction.root,
                         static_cast<int>(abstraction.components.size()),
                         &rng, 12, p.name);
    if (HasFatalFailure()) return;
  }
}

/// A random ∧/∨ chain of U, R, X, G and F operands over two propositions.
/// Operands draw their arguments from a pool of two, and most take a shape
/// that merges under the chain's connective, so the rules fire often.
/// Temporal nesting stays at two.
PropId RandomSharedChain(PropArena* arena, std::mt19937* rng) {
  auto pick = [&](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(*rng);
  };
  auto leaf = [&]() -> PropId {
    switch (pick(6)) {
      case 0:
        return arena->True();
      case 1:
        return arena->False();
      case 2:
      case 3:
        return arena->Prop(pick(2));
      default:
        return arena->Not(arena->Prop(pick(2)));
    }
  };
  auto arg = [&]() { return pick(4) == 0 ? arena->X(leaf()) : leaf(); };
  const PropId pool[] = {arg(), arg()};
  const bool conjunction = pick(2) == 0;
  auto operand = [&]() -> PropId {
    PropId shared = pool[pick(2)], other = arg();
    // 0-3 merge in a conjunction, 4-7 in a disjunction (X in both).
    int shape = pick(4) == 0 ? pick(8) : pick(4) + (conjunction ? 0 : 4);
    switch (shape) {
      case 0:
        return arena->U(other, shared);
      case 1:
        return arena->R(shared, other);
      case 2:
        return arena->G(other);
      case 4:
        return arena->U(shared, other);
      case 5:
        return arena->R(other, shared);
      case 6:
        return arena->F(other);
      default:
        return arena->X(other);
    }
  };
  PropId f = operand();
  for (int i = 1 + pick(4); i > 0; --i) {
    PropId g = operand();
    f = (pick(8) == 0) != conjunction ? arena->And(f, g) : arena->Or(f, g);
  }
  return pick(3) == 0 ? arena->Not(f) : f;
}

class RewriteChainDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(RewriteChainDifferentialTest, AgreesOnRandomLassos) {
  std::mt19937 rng(GetParam());
  int rewritten = 0;
  for (int i = 0; i < 50; ++i) {
    PropArena arena;
    PropId f = RandomSharedChain(&arena, &rng);
    PropId nnf = arena.Nnf(f);
    if (arena.Rewrite(nnf) != nnf) ++rewritten;
    ExpectAgreesOnLassos(&arena, f, 2, &rng, 30,
                         "seed " + std::to_string(GetParam()) + " formula " +
                             std::to_string(i));
    if (HasFatalFailure()) return;
  }
  // The generator is built for the merge rules: at least 14 of each
  // seed's 50 formulas move.
  EXPECT_GE(rewritten, 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewriteChainDifferentialTest,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace wave
