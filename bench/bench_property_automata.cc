// Experiment: property-automaton sizes (Section 5 discusses P4, chosen
// "because of its size (12 G and 12 X operators), to study the impact of
// the size of the property automaton (30 states) on the running time").
// Prints the Büchi automaton size for the negation of every property of
// every application, before and after simplification.
#include <cstdio>

#include "apps/apps.h"
#include "buchi/gpvw.h"
#include "ltl/abstraction.h"

namespace {

using namespace wave;  // NOLINT: experiment harness

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
  return 0;
}
