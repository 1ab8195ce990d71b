#include "buchi/buchi.h"

#include <algorithm>

#include "buchi/flat_buchi.h"
#include "common/check.h"

namespace wave {

bool NormalizeGuard(Guard* guard) {
  std::sort(guard->begin(), guard->end());
  guard->erase(std::unique(guard->begin(), guard->end()), guard->end());
  for (size_t i = 0; i + 1 < guard->size(); ++i) {
    if ((*guard)[i].prop == (*guard)[i + 1].prop &&
        (*guard)[i].positive != (*guard)[i + 1].positive) {
      return false;  // contradictory
    }
  }
  return true;
}

bool GuardSatisfied(const Guard& guard, const std::vector<bool>& assignment) {
  for (const Literal& lit : guard) {
    WAVE_CHECK(lit.prop >= 0 &&
               lit.prop < static_cast<int>(assignment.size()));
    if (assignment[lit.prop] != lit.positive) return false;
  }
  return true;
}

int BuchiAutomaton::NumTransitions() const {
  int n = 0;
  for (const auto& ts : adj) n += static_cast<int>(ts.size());
  return n;
}

bool BuchiAutomaton::IsEmptyLanguage() const {
  if (NumStates() == 0) return true;
  FlatBuchi flat;
  flat.start = start;
  flat.first.reserve(adj.size() + 1);
  flat.edges.reserve(NumTransitions());
  for (const auto& ts : adj) {
    for (const BuchiTransition& t : ts) flat.edges.push_back({t.to, 0});
    flat.first.push_back(static_cast<int>(flat.edges.size()));
  }
  flat.accepting.assign(accepting.begin(), accepting.end());
  return !HasAcceptingLasso(flat);
}

std::string BuchiAutomaton::ToDot(
    const std::function<std::string(int)>& prop_name) const {
  std::string out = "digraph buchi {\n  rankdir=LR;\n";
  out += "  init [shape=point];\n";
  for (int s = 0; s < NumStates(); ++s) {
    out += "  s" + std::to_string(s) + " [shape=" +
           (accepting[s] ? "doublecircle" : "circle") + "];\n";
  }
  out += "  init -> s" + std::to_string(start) + ";\n";
  for (int s = 0; s < NumStates(); ++s) {
    for (const BuchiTransition& t : adj[s]) {
      std::string label;
      if (t.guard.empty()) {
        label = "true";
      } else {
        for (size_t i = 0; i < t.guard.size(); ++i) {
          if (i > 0) label += " & ";
          if (!t.guard[i].positive) label += "!";
          label += prop_name ? prop_name(t.guard[i].prop)
                             : "P" + std::to_string(t.guard[i].prop);
        }
      }
      out += "  s" + std::to_string(s) + " -> s" + std::to_string(t.to) +
             " [label=\"" + label + "\"];\n";
    }
  }
  out += "}\n";
  return out;
}

}  // namespace wave
