// Ablation: the search's visited product (Section 4 stores visited
// pseudoconfigurations "in a trie data structure which allows updates and
// membership tests in time linear in the size of the bitmap"; WAVE interns
// each configuration's word key once and keeps one visited bit per (flag,
// Büchi state) beside its id, verifier/config_store.h) against std::set
// and std::unordered_set keyed by (flag, state, configuration byte key),
// on synthetic configurations over the E1 catalog: each structure inserts
// every (flag, state, configuration) triple once, then looks it up. Every
// structure converts each configuration to its key once per triple: the
// store packs it into words over its tuple table, the sets encode bytes.
#include <benchmark/benchmark.h>

#include <set>
#include <tuple>
#include <unordered_set>

#include "apps/apps.h"
#include "verifier/config_store.h"
#include "verifier/encode.h"

namespace {

using namespace wave;  // NOLINT: experiment harness

constexpr int kStates = 3;

struct Triple {
  int flag;
  int state;
  Configuration config;
};

/// Synthetic (flag, state, configuration) triples over the E1 catalog:
/// every page, a button input, a one-tuple cart state and a few automaton
/// states, so each configuration recurs under every (flag, state) pair
/// like the search's do.
struct Workload {
  AppBundle e1 = BuildE1();
  std::vector<Triple> triples;

  Workload() {
    const Catalog& catalog = e1.spec->catalog();
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
          for (int state = 0; state < kStates; ++state) {
            for (int flag = 0; flag < 2; ++flag) {
              triples.push_back({flag, state, config});
            }
          }
        }
      }
    }
  }
};

const Workload& Triples() {
  static const auto& workload = *new Workload();
  return workload;
}

void BM_ConfigStore(benchmark::State& state) {
  const Workload& w = Triples();
  ConfigStore store;
  for (auto _ : state) {
    store.Reset(&w.e1.spec->catalog(), kStates, 0);
    int hits = 0;
    for (const Triple& t : w.triples) {
      ConfigId id = store.Intern(store.Pack(t.config));
      if (!store.Insert(t.flag, t.state, id)) ++hits;
      if (store.Contains(t.flag, t.state, id)) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetLabel(std::to_string(w.triples.size()) + " triples");
}
BENCHMARK(BM_ConfigStore);

using Key = std::tuple<int, int, std::vector<uint8_t>>;

void BM_StdSet(benchmark::State& state) {
  const Workload& w = Triples();
  for (auto _ : state) {
    std::set<Key> visited;
    int hits = 0;
    for (const Triple& t : w.triples) {
      Key key{t.flag, t.state, EncodeConfigurationKey(t.config)};
      if (!visited.insert(key).second) ++hits;
      if (visited.count(key) > 0) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_StdSet);

struct KeyHash {
  size_t operator()(const Key& k) const {
    size_t h = 14695981039346656037ull;
    h = (h ^ static_cast<size_t>(std::get<0>(k))) * 1099511628211ull;
    h = (h ^ static_cast<size_t>(std::get<1>(k))) * 1099511628211ull;
    for (uint8_t b : std::get<2>(k)) h = (h ^ b) * 1099511628211ull;
    return h;
  }
};

void BM_StdUnorderedSet(benchmark::State& state) {
  const Workload& w = Triples();
  for (auto _ : state) {
    std::unordered_set<Key, KeyHash> visited;
    int hits = 0;
    for (const Triple& t : w.triples) {
      Key key{t.flag, t.state, EncodeConfigurationKey(t.config)};
      if (!visited.insert(key).second) ++hits;
      if (visited.count(key) > 0) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_StdUnorderedSet);

}  // namespace

BENCHMARK_MAIN();
