// Ablation: the search's visited set (Section 4 stores visited
// pseudoconfigurations "in a trie data structure which allows updates and
// membership tests in time linear in the size of the bitmap"; WAVE uses an
// open-addressing hash set, verifier/visited_set.h) against std::set and
// std::unordered_set, on synthetic visited keys encoded over the E1
// catalog: each structure inserts every key once, then looks it up.
#include <benchmark/benchmark.h>

#include <set>
#include <unordered_set>

#include "apps/apps.h"
#include "verifier/encode.h"
#include "verifier/visited_set.h"

namespace {

using namespace wave;  // NOLINT: experiment harness

/// Visited keys of synthetic configurations over the E1 catalog: every
/// page, a button input, a one-tuple cart state and a few automaton
/// states, so keys share long prefixes like the search's keys do.
std::vector<std::vector<uint8_t>> MakeKeys() {
  AppBundle e1 = BuildE1();
  const Catalog& catalog = e1.spec->catalog();
  std::vector<std::vector<uint8_t>> keys;
  Configuration config;
  config.data = Instance(&catalog);
  config.previous = Instance(&catalog);
  RelationId button = catalog.Find("button");
  RelationId cart = catalog.Find("cart");
  for (int page = 0; page < e1.spec->num_pages(); ++page) {
    config.page = page;
    for (SymbolId b = 0; b < 12; ++b) {
      config.data.relation(button).Clear();
      config.data.relation(button).Insert({b});
      for (SymbolId c = 0; c < 6; ++c) {
        config.data.relation(cart).Clear();
        config.data.relation(cart).Insert({c, c + 1});
        for (int state = 0; state < 3; ++state) {
          for (int flag = 0; flag < 2; ++flag) {
            keys.push_back(EncodeVisitedKey(flag, state, config));
          }
        }
      }
    }
  }
  return keys;
}

const std::vector<std::vector<uint8_t>>& Keys() {
  static const auto& keys = *new std::vector<std::vector<uint8_t>>(MakeKeys());
  return keys;
}

void BM_VisitedSet(benchmark::State& state) {
  const auto& keys = Keys();
  for (auto _ : state) {
    VisitedSet visited;
    int hits = 0;
    for (const auto& key : keys) {
      if (!visited.Insert(key)) ++hits;
      if (visited.Contains(key)) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetLabel(std::to_string(Keys().size()) + " keys");
}
BENCHMARK(BM_VisitedSet);

void BM_StdSet(benchmark::State& state) {
  const auto& keys = Keys();
  for (auto _ : state) {
    std::set<std::vector<uint8_t>> visited;
    int hits = 0;
    for (const auto& key : keys) {
      if (!visited.insert(key).second) ++hits;
      if (visited.count(key) > 0) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_StdSet);

struct ByteVectorHash {
  size_t operator()(const std::vector<uint8_t>& v) const {
    size_t h = 14695981039346656037ull;
    for (uint8_t b : v) h = (h ^ b) * 1099511628211ull;
    return h;
  }
};

void BM_StdUnorderedSet(benchmark::State& state) {
  const auto& keys = Keys();
  for (auto _ : state) {
    std::unordered_set<std::vector<uint8_t>, ByteVectorHash> visited;
    int hits = 0;
    for (const auto& key : keys) {
      if (!visited.insert(key).second) ++hits;
      if (visited.count(key) > 0) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_StdUnorderedSet);

}  // namespace

BENCHMARK_MAIN();
