// Experiment: Figure 1 of the paper — the Büchi automaton for
// phi_aux = P1 U P2 (the propositional abstraction of the negated
// pay-before-confirm property of Example 3.1).
//
// Expected shape: two states — a start state with a P1 self-loop and a P2
// edge into an accepting state carrying a `true` self-loop.
#include <cstdio>
#include <string>

#include "buchi/gpvw.h"
#include "buchi/prop_ltl.h"

int main() {
  wave::PropArena arena;
  wave::PropId f = arena.U(arena.Prop(0), arena.Prop(1));
  auto name = [](int p) { return "P" + std::to_string(p + 1); };

  std::printf("formula: %s\n", arena.ToString(f, name).c_str());

  wave::GpvwOptions raw;
  raw.simplify = false;
  wave::BuchiAutomaton tableau = *wave::LtlToBuchi(&arena, f, 2, raw);
  std::printf("raw GPVW tableau: %d states, %d transitions\n",
              tableau.NumStates(), tableau.NumTransitions());

  wave::BuchiAutomaton automaton = *wave::LtlToBuchi(&arena, f, 2);
  std::printf("simplified automaton: %d states, %d transitions\n",
              automaton.NumStates(), automaton.NumTransitions());
  std::printf("(paper Figure 1: 2 states)\n\n%s",
              automaton.ToDot(name).c_str());

  bool matches_figure = automaton.NumStates() == 2;
  std::printf("\nshape matches Figure 1: %s\n",
              matches_figure ? "yes" : "NO");
  return matches_figure ? 0 : 1;
}
