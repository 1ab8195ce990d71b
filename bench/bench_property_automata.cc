// Experiment: property-automaton sizes (Section 5 discusses P4, chosen
// "because of its size (12 G and 12 X operators), to study the impact of
// the size of the property automaton (30 states) on the running time").
// Prints the Büchi automaton size for the negation of every property of
// every application, before and after simplification. Then it times
// `LtlToBuchi` over two sets of properties, with and without the
// simplification passes: the 56 suite properties, and the first property
// of the 500 generated cases `wide/1` .. `wide/500` (6 pages, 4 constants,
// property depth 4) that tests/golden/automaton_pins.json pins. For each
// set it prints the best of 9 passes and the property whose best time is
// the longest. Run from any directory; it writes no file.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "buchi/gpvw.h"
#include "ltl/abstraction.h"
#include "parser/parser.h"
#include "testing/spec_gen.h"

namespace {

using namespace wave;  // NOLINT: experiment harness

constexpr int kPasses = 9;
constexpr uint64_t kWideSeeds = 500;

void Report(const char* app_name, AppBundle* bundle) {
  std::printf("---- %s ----\n", app_name);
  std::printf("%-6s %6s %10s %12s %12s\n", "prop", "comps", "raw states",
              "simplified", "transitions");
  for (const ParsedProperty& p : bundle->properties) {
    LtlPtr negated = LtlFormula::Not(p.property.body);
    Abstraction raw_abs = AbstractLtl(negated, bundle->spec->symbols());
    GpvwOptions raw;
    raw.simplify = false;
    BuchiAutomaton tableau =
        *LtlToBuchi(&raw_abs.arena, raw_abs.root,
                    static_cast<int>(raw_abs.components.size()), raw);
    Abstraction abs = AbstractLtl(negated, bundle->spec->symbols());
    BuchiAutomaton simplified =
        *LtlToBuchi(&abs.arena, abs.root,
                    static_cast<int>(abs.components.size()));
    std::printf("%-6s %6zu %10d %12d %12d\n", p.property.name.c_str(),
                abs.components.size(), tableau.NumStates(),
                simplified.NumStates(), simplified.NumTransitions());
  }
  std::printf("\n");
}

/// One property to translate: its abstraction, copied afresh for every
/// timed call so that no call finds another's nodes in the arena.
struct TimedProperty {
  std::string name;
  Abstraction abstraction;
};

/// The set's best pass time and its slowest property, in milliseconds.
struct SetTimes {
  double pass_ms = std::numeric_limits<double>::infinity();
  std::string slowest;
  double slowest_ms = 0;
};

SetTimes TimeSet(const std::vector<TimedProperty>& set, bool simplify) {
  GpvwOptions options;
  options.simplify = simplify;
  std::vector<double> best(set.size(),
                           std::numeric_limits<double>::infinity());
  SetTimes times;
  for (int pass = 0; pass < kPasses; ++pass) {
    double pass_ms = 0;
    for (size_t i = 0; i < set.size(); ++i) {
      PropArena arena = set[i].abstraction.arena;
      const auto start = std::chrono::steady_clock::now();
      std::optional<BuchiAutomaton> a = LtlToBuchi(
          &arena, set[i].abstraction.root,
          static_cast<int>(set[i].abstraction.components.size()), options);
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      if (!a.has_value()) {
        std::printf("  %s: no automaton\n", set[i].name.c_str());
      }
      pass_ms += ms;
      best[i] = std::min(best[i], ms);
    }
    times.pass_ms = std::min(times.pass_ms, pass_ms);
  }
  for (size_t i = 0; i < set.size(); ++i) {
    if (best[i] > times.slowest_ms) {
      times.slowest_ms = best[i];
      times.slowest = set[i].name;
    }
  }
  return times;
}

void ReportTimes(const char* set_name, const std::vector<TimedProperty>& set) {
  const SetTimes raw = TimeSet(set, /*simplify=*/false);
  const SetTimes simplified = TimeSet(set, /*simplify=*/true);
  std::printf("%-6s %6zu %10.3f %14.3f  %-10s %8.3f\n", set_name, set.size(),
              raw.pass_ms, simplified.pass_ms, simplified.slowest.c_str(),
              simplified.slowest_ms);
}

}  // namespace

int main() {
  AppBundle e1 = BuildE1();
  AppBundle e2 = BuildE2();
  AppBundle e3 = BuildE3();
  AppBundle e4 = BuildE4();
  Report("E1 (paper: P4's automaton has 30 states)", &e1);
  Report("E2", &e2);
  Report("E3", &e3);
  Report("E4", &e4);

  std::vector<TimedProperty> suite;
  const std::pair<const char*, AppBundle*> apps[] = {
      {"e1", &e1}, {"e2", &e2}, {"e3", &e3}, {"e4", &e4}};
  for (const auto& [app, bundle] : apps) {
    for (const ParsedProperty& p : bundle->properties) {
      suite.push_back({std::string(app) + "/" + p.property.name,
                       AbstractLtl(LtlFormula::Not(p.property.body),
                                   bundle->spec->symbols())});
    }
  }
  testing::GeneratorConfig config;
  config.max_pages = 6;
  config.max_constants = 4;
  config.max_property_depth = 4;
  std::vector<TimedProperty> wide;
  for (uint64_t seed = 1; seed <= kWideSeeds; ++seed) {
    ParseResult parsed = ParseSpec(testing::GenerateCase(seed, config).Text());
    if (!parsed.ok() || parsed.properties.empty()) continue;
    wide.push_back({"wide/" + std::to_string(seed),
                    AbstractLtl(
                        LtlFormula::Not(parsed.properties[0].property.body),
                        parsed.spec->symbols())});
  }

  std::printf("---- LtlToBuchi time (ms, best of %d passes) ----\n",
              kPasses);
  std::printf("%-6s %6s %10s %14s  %-10s %8s\n", "set", "props", "raw pass",
              "simplified", "slowest", "its ms");
  ReportTimes("suite", suite);
  ReportTimes("wide", wide);
  return 0;
}
