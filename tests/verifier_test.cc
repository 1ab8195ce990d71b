// Verifier-core tests: the configuration store (tuple table, word keys and
// their round trip to `Configuration`), successor sharing across automaton
// states, heuristic on/off agreement, counterexample sanity, and a
// differential test of the pseudorun verifier against the explicit
// first-cut baseline on small specs.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <string>
#include <tuple>

#include "apps/apps.h"
#include "baseline/firstcut.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "parser/parser.h"
#include "verifier/encode.h"
#include "verifier/verifier.h"
#include "verifier/config_store.h"

#include "verify_helpers.h"

namespace wave {
namespace {

// --- configuration store ----------------------------------------------------

/// Two unary database relations, a nullary state and a unary input: enough
/// for configurations that differ in page, relation, instance and size.
Catalog SmallCatalog() {
  Catalog catalog;
  catalog.Declare({"R", 1, RelationKind::kDatabase, {}});
  catalog.Declare({"S", 1, RelationKind::kDatabase, {}});
  catalog.Declare({"Z", 0, RelationKind::kState, {}});
  catalog.Declare({"I", 1, RelationKind::kInput, {}});
  return catalog;
}

/// The configuration at `page` whose `R` holds the values `r`.
Configuration ConfigWith(const Catalog& catalog, int page,
                         const std::vector<SymbolId>& r) {
  Configuration c;
  c.page = page;
  c.data = Instance(&catalog);
  c.previous = Instance(&catalog);
  for (SymbolId v : r) c.data.relation("R").Insert({v});
  return c;
}

/// The id of `config` in `store`, packing it into words first.
ConfigId Id(ConfigStore* store, const Configuration& config) {
  return store->Intern(store->Pack(config));
}

TEST(TrieTest, InsertAndContains) {
  Catalog catalog = SmallCatalog();
  ConfigStore store;
  store.Reset(&catalog, /*num_states=*/3, /*num_components=*/0);
  ConfigId a = Id(&store, ConfigWith(catalog, 0, {1, 2, 3}));
  ConfigId b = Id(&store, ConfigWith(catalog, 0, {1, 2}));
  EXPECT_NE(a, b);
  EXPECT_EQ(Id(&store, ConfigWith(catalog, 0, {1, 2, 3})), a);
  EXPECT_EQ(store.num_configs(), 2);
  EXPECT_TRUE(store.Insert(0, 2, a));
  EXPECT_FALSE(store.Insert(0, 2, a));
  EXPECT_TRUE(store.Contains(0, 2, a));
  EXPECT_FALSE(store.Contains(0, 2, b));  // a subset of a's tuples
  EXPECT_TRUE(store.Insert(0, 2, b));
  EXPECT_TRUE(store.Contains(0, 2, b));
  EXPECT_EQ(store.size(), 2);
  store.Reset(&catalog, 3, 0);
  EXPECT_EQ(store.size(), 0);
  EXPECT_EQ(store.num_configs(), 0);
  EXPECT_EQ(store.tuples().size(), 0u);
  a = Id(&store, ConfigWith(catalog, 0, {1, 2, 3}));
  EXPECT_EQ(a, 0u);
  EXPECT_FALSE(store.Contains(0, 2, a));
}

TEST(TrieTest, EmptyKeyIsAKey) {
  // The all-empty configuration is interned and visited like any other.
  Catalog catalog = SmallCatalog();
  ConfigStore store;
  store.Reset(&catalog, 1, 0);
  ConfigId empty = Id(&store, ConfigWith(catalog, 0, {}));
  EXPECT_FALSE(store.Contains(0, 0, empty));
  EXPECT_TRUE(store.Insert(0, 0, empty));
  EXPECT_FALSE(store.Insert(0, 0, empty));
  EXPECT_TRUE(store.Contains(0, 0, empty));
  ConfigId zero = Id(&store, ConfigWith(catalog, 0, {0}));  // R = {(0)}
  EXPECT_NE(zero, empty);
  EXPECT_FALSE(store.Contains(0, 0, zero));
  EXPECT_EQ(store.size(), 1);
  EXPECT_EQ(store.Materialize(empty), ConfigWith(catalog, 0, {}));
}

TEST(TrieTest, CountsHitsAndMisses) {
  Catalog catalog = SmallCatalog();
  ConfigStore store;
  store.Reset(&catalog, 1, 0);
  ConfigId a = Id(&store, ConfigWith(catalog, 0, {1, 2, 3}));
  ConfigId b = Id(&store, ConfigWith(catalog, 0, {9}));
  ConfigId c = Id(&store, ConfigWith(catalog, 0, {1, 2}));
  store.Insert(0, 0, a);    // miss (new)
  store.Insert(0, 0, a);    // hit (already stored)
  store.Contains(0, 0, a);  // hit
  store.Contains(0, 0, b);  // miss
  store.Contains(0, 0, c);  // miss (interned, never visited)
  EXPECT_EQ(store.stats().hits, 2);
  EXPECT_EQ(store.stats().misses, 3);
  EXPECT_EQ(store.stats().lookups(), 5);
  store.Reset(&catalog, 1, 0);
  EXPECT_EQ(store.stats().lookups(), 0);
}

TEST(TrieTest, AgreesWithStdSetOnRandomKeys) {
  // Enough distinct configurations to double the 16-slot table ten times
  // over, over enough distinct tuples to widen the words past one; small
  // ones repeat often, so hits, misses and growth interleave. The
  // reference keys (flag, state, byte key) triples in a std::set and
  // numbers keys in first-seen order, as interning must, and every id
  // materializes back to its configuration.
  std::mt19937 rng(7);
  Catalog catalog = SmallCatalog();
  constexpr int kStates = 3;
  ConfigStore store;
  store.Reset(&catalog, kStates, 0);
  std::map<std::vector<uint8_t>, ConfigId> ids;
  std::set<std::tuple<int, int, std::vector<uint8_t>>> reference;
  for (int i = 0; i < 20000; ++i) {
    std::vector<SymbolId> r(rng() % 4);
    for (SymbolId& v : r) v = static_cast<SymbolId>(rng() % 96);
    Configuration c = ConfigWith(catalog, static_cast<int>(rng() % 4), r);
    if (rng() % 2 == 0) c.previous.relation("I").Insert({SymbolId(rng() % 4)});
    std::vector<uint8_t> key = EncodeConfigurationKey(c);
    ConfigId expected_id = static_cast<ConfigId>(ids.size());
    expected_id = ids.emplace(key, expected_id).first->second;
    ConfigId id = Id(&store, c);
    ASSERT_EQ(id, expected_id);
    const int flag = static_cast<int>(rng() % 2);
    const int state = static_cast<int>(rng() % kStates);
    bool inserted_ref = reference.insert({flag, state, key}).second;
    if (rng() % 2 == 0) {
      EXPECT_EQ(store.Insert(flag, state, id), inserted_ref);
    } else {
      EXPECT_EQ(store.Contains(flag, state, id), !inserted_ref);
      if (inserted_ref) store.Insert(flag, state, id);
    }
    EXPECT_EQ(store.size(), static_cast<int>(reference.size()));
  }
  EXPECT_GT(store.num_configs(), 16 << 9);
  EXPECT_EQ(store.num_configs(), static_cast<int>(ids.size()));
  EXPECT_GT(store.tuples().size(), 64u);
  for (const auto& [flag, state, key] : reference) {
    EXPECT_TRUE(store.Contains(flag, state, ids.at(key)));
  }
  for (const auto& [key, id] : ids) {
    EXPECT_EQ(EncodeConfigurationKey(store.Materialize(id)), key);
  }
}

TEST(TrieTest, SameContentGetsOneIdWhateverTheOrderOrTableWidth) {
  // A key is the words with trailing zero words trimmed, so neither the
  // order the bits were set in nor how wide the table has grown since
  // changes a configuration's id.
  Catalog catalog = SmallCatalog();
  const RelationId r = catalog.Find("R");
  const RelationId input = catalog.Find("I");
  ConfigStore store;
  store.Reset(&catalog, 1, 0);
  Configuration c = ConfigWith(catalog, 1, {3, 1, 2});
  c.previous.relation(input).Insert({5});
  const ConfigId id = Id(&store, c);
  ASSERT_EQ(store.tuples().size(), 4u);

  // 300 more tuples: the table is now five words wide.
  for (SymbolId v = 100; v < 400; ++v) store.tuples().Intern(r, &v);
  ASSERT_GT(store.tuples().size(), 256u);
  ConfigWords wide;
  wide.page = 1;
  wide.data.assign(5, 0);
  wide.previous.assign(5, 0);
  for (SymbolId v : {2, 3, 1}) SetBit(&wide.data, store.tuples().Find(r, &v));
  const SymbolId five = 5;
  SetBit(&wide.previous, store.tuples().Find(input, &five));
  EXPECT_EQ(store.Intern(wide), id);

  // Built in another order and packed again.
  Configuration d = ConfigWith(catalog, 1, {2, 1});
  d.previous.relation(input).Insert({5});
  d.data.relation(r).Insert({3});
  EXPECT_EQ(Id(&store, d), id);
  EXPECT_EQ(store.num_configs(), 1);

  // Loading the id gives the same content back, however wide.
  ConfigWords loaded;
  store.Load(id, &loaded);
  EXPECT_EQ(store.Intern(loaded), id);
  EXPECT_EQ(store.Unpack(loaded), c);
  EXPECT_EQ(store.Unpack(wide), c);
}

TEST(TrieTest, TupleTableKeepsValuesKindsAndTheUniverse) {
  Catalog catalog = SmallCatalog();
  const RelationId r = catalog.Find("R");
  const RelationId z = catalog.Find("Z");
  const RelationId input = catalog.Find("I");
  std::vector<bool> in_universe = {true, false, true};  // C = {0, 2}
  TupleTable table;
  table.Reset(&catalog, &in_universe);
  const SymbolId zero = 0, one = 1, two = 2, nine = 9;
  const TupleId r0 = table.Intern(r, &zero);
  const TupleId r1 = table.Intern(r, &one);
  const TupleId i2 = table.Intern(input, &two);
  const TupleId i9 = table.Intern(input, &nine);
  const TupleId fact = table.Intern(z, nullptr);  // nullary
  EXPECT_EQ(table.Intern(r, &one), r1);
  EXPECT_EQ(table.Find(input, &two), i2);
  EXPECT_EQ(table.Find(r, &two), kNoTuple);
  EXPECT_EQ(table.size(), 5u);
  EXPECT_EQ(table.relation(i9), input);
  EXPECT_EQ(table.values(i9)[0], nine);
  EXPECT_EQ(table.arity(fact), 0);
  EXPECT_TRUE(TestBit(table.in_universe(), r0));
  EXPECT_FALSE(TestBit(table.in_universe(), r1));
  EXPECT_TRUE(TestBit(table.in_universe(), i2));
  EXPECT_FALSE(TestBit(table.in_universe(), i9));  // past the table's end
  EXPECT_TRUE(TestBit(table.in_universe(), fact));
  EXPECT_TRUE(TestBit(table.kind_mask(RelationKind::kInput), i9));
  EXPECT_FALSE(TestBit(table.kind_mask(RelationKind::kInput), r0));
  EXPECT_TRUE(TestBit(table.kind_mask(RelationKind::kState), fact));
  EXPECT_TRUE(TestBit(table.relation_mask(r), r1));
  EXPECT_FALSE(TestBit(table.relation_mask(r), i2));

  // The view reads the words through the table.
  ConfigWords words;
  SetBit(&words.data, r1);
  SetBit(&words.data, fact);
  SetBit(&words.previous, i9);
  WordsView view(&table, &words);
  EXPECT_TRUE(view.Contains(r, false, &one));
  EXPECT_FALSE(view.Contains(r, false, &zero));
  EXPECT_FALSE(view.Contains(r, false, &nine));  // never interned
  EXPECT_TRUE(view.Contains(input, true, &nine));
  EXPECT_FALSE(view.Contains(input, false, &nine));
  EXPECT_TRUE(view.Contains(z, false, nullptr));
  std::vector<SymbolId> seen;
  view.ForEachTuple(r, false, [&](const SymbolId* v) {
    seen.push_back(v[0]);
    return true;
  });
  EXPECT_EQ(seen, std::vector<SymbolId>({1}));
}

TEST(TrieTest, SuccessorListsReplayOnlyOnceComplete) {
  // A skeleton's list is built whole, so it is readable as soon as it is
  // set, and every configuration under one (previous page, skeleton) key
  // shares its range.
  Catalog catalog = SmallCatalog();
  ConfigStore store;
  store.Reset(&catalog, 2, 3);
  ConfigId a = Id(&store, ConfigWith(catalog, 0, {1}));
  ConfigId b = Id(&store, ConfigWith(catalog, 0, {2}));
  ConfigId c = Id(&store, ConfigWith(catalog, 1, {}));
  SuccessorRange range;
  EXPECT_FALSE(store.FindSuccessors(a, &range));

  const ConfigWords skeleton = store.Pack(ConfigWith(catalog, 1, {7}));
  SkeletonId s = store.InternSkeleton(/*prev_page=*/0, skeleton);
  EXPECT_EQ(store.InternSkeleton(0, skeleton), s);
  SkeletonId other_page = store.InternSkeleton(1, skeleton);
  SkeletonId other_skeleton =
      store.InternSkeleton(0, store.Pack(ConfigWith(catalog, 1, {8})));
  EXPECT_EQ(std::set<SkeletonId>({s, other_page, other_skeleton}).size(), 3u);
  EXPECT_FALSE(store.FindSkeletonSuccessors(s, &range));
  EXPECT_FALSE(store.FindSkeletonSuccessors(other_page, &range));

  SuccessorRange set = store.SetSkeletonSuccessors(s, {b, c, b});
  ASSERT_TRUE(store.FindSkeletonSuccessors(s, &range));
  EXPECT_EQ(range.begin, set.begin);
  EXPECT_EQ(range.end, set.end);
  std::vector<ConfigId> replayed;
  for (uint32_t i = range.begin; i < range.end; ++i) {
    replayed.push_back(store.successor(i));
  }
  EXPECT_EQ(replayed, (std::vector<ConfigId>{b, c, b}));

  // Two configurations under the skeleton point at its one range.
  store.SetSuccessors(a, set);
  store.SetSuccessors(c, set);
  SuccessorRange from_a, from_c;
  ASSERT_TRUE(store.FindSuccessors(a, &from_a));
  ASSERT_TRUE(store.FindSuccessors(c, &from_c));
  EXPECT_EQ(from_a.begin, set.begin);
  EXPECT_EQ(from_a.end, set.end);
  EXPECT_EQ(from_c.begin, set.begin);
  EXPECT_EQ(from_c.end, set.end);
  EXPECT_FALSE(store.FindSuccessors(b, &range));

  // An empty list still counts as set, and takes no room.
  SkeletonId empty = store.InternSkeleton(2, skeleton);
  SuccessorRange none = store.SetSkeletonSuccessors(empty, {});
  ASSERT_TRUE(store.FindSkeletonSuccessors(empty, &range));
  EXPECT_EQ(range.begin, set.end);
  EXPECT_EQ(range.end, set.end);
  EXPECT_EQ(none.begin, none.end);

  EXPECT_FALSE(store.has_components(c));
  store.SetComponents(c, {true, false, true});
  EXPECT_TRUE(store.has_components(c));
  EXPECT_TRUE(store.component(c, 0));
  EXPECT_FALSE(store.component(c, 1));
  EXPECT_TRUE(store.component(c, 2));
  EXPECT_FALSE(store.has_components(b));
}

// --- configuration keys ------------------------------------------------------

TEST(EncodeTest, DistinctConfigurationsGetDistinctKeys) {
  Catalog catalog;
  catalog.Declare({"R", 1, RelationKind::kDatabase, {}});
  catalog.Declare({"S", 1, RelationKind::kDatabase, {}});
  catalog.Declare({"I", 1, RelationKind::kInput, {}});
  Configuration a;
  a.page = 0;
  a.data = Instance(&catalog);
  a.previous = Instance(&catalog);
  Configuration b = a;
  ConfigStore store;
  store.Reset(&catalog, /*num_states=*/2, /*num_components=*/0);
  EXPECT_EQ(Id(&store, a), Id(&store, b));
  b.page = 1;
  EXPECT_NE(Id(&store, a), Id(&store, b));

  // The flag and the automaton state are not in the key: each (flag,
  // state) pair is its own visited bit beside the key's id.
  ConfigId id = Id(&store, a);
  EXPECT_TRUE(store.Insert(0, 0, id));
  EXPECT_TRUE(store.Insert(1, 0, id));
  EXPECT_TRUE(store.Insert(0, 1, id));
  EXPECT_TRUE(store.Insert(1, 1, id));
  EXPECT_EQ(store.size(), 4);
  EXPECT_FALSE(store.Contains(0, 0, Id(&store, b)));

  // A tuple's bit names its relation, and `data` and `previous` are apart,
  // so moving a tuple to another relation or instance must change the id.
  // The byte key the edges use tells the same cases apart.
  struct Put {
    const char* relation;
    SymbolId value;
    bool previous;
  };
  const std::vector<std::vector<Put>> cases = {
      {},
      {{"R", 5, false}},
      {{"S", 5, false}},                   // same values, next relation
      {{"R", 5, false}, {"R", 6, false}},  // R holds both tuples ...
      {{"R", 5, false}, {"S", 6, false}},  // ... vs one moved to S
      {{"R", 5, true}},                    // same tuple, previous instance
      {{"I", 5, false}},
      {{"I", 5, true}},
      {{"R", 0, false}},
  };
  std::set<ConfigId> ids;
  std::set<std::vector<uint8_t>> keys;
  for (size_t i = 0; i < cases.size(); ++i) {
    Configuration c = a;
    for (const Put& put : cases[i]) {
      (put.previous ? c.previous : c.data)
          .relation(put.relation)
          .Insert({put.value});
    }
    EXPECT_TRUE(ids.insert(Id(&store, c)).second)
        << "case " << i << " collides with an earlier one";
    EXPECT_TRUE(keys.insert(EncodeConfigurationKey(c)).second)
        << "case " << i << " collides with an earlier one";
  }
}

/// Packing `config` into words and materializing its id gives `config`
/// back, and the loaded words intern to the same id.
void ExpectRoundTrip(const Configuration& config, const std::string& what) {
  ConfigStore store;
  store.Reset(&config.data.catalog(), 1, 0);
  const ConfigId id = Id(&store, config);
  EXPECT_TRUE(store.Materialize(id) == config) << what;
  ConfigWords loaded;
  store.Load(id, &loaded);
  EXPECT_EQ(store.Intern(loaded), id) << what;
  EXPECT_EQ(EncodeConfigurationKey(store.Unpack(loaded)),
            EncodeConfigurationKey(config))
      << what;
}

TEST(EncodeTest, DecodeInvertsEncodeOnEdgeCases) {
  Catalog catalog;
  catalog.Declare({"R", 1, RelationKind::kDatabase, {}});
  catalog.Declare({"T", 3, RelationKind::kDatabase, {}});
  catalog.Declare({"Z", 0, RelationKind::kState, {}});
  catalog.Declare({"I", 2, RelationKind::kInput, {}});
  catalog.Declare({"K", 1, RelationKind::kInputConstant, {}});
  Configuration empty;
  empty.page = 0;
  empty.data = Instance(&catalog);
  empty.previous = Instance(&catalog);
  ExpectRoundTrip(empty, "all relations empty");

  Configuration multi = empty;
  multi.page = 3;
  for (SymbolId v : {4, 1, 9}) multi.data.relation("R").Insert({v});
  multi.data.relation("T").Insert({1, 2, 3});
  multi.data.relation("T").Insert({1, 2, 2});
  multi.data.relation("T").Insert({0, 7, 7});
  multi.data.relation("Z").Insert({});
  multi.data.relation("I").Insert({5, 6});
  ExpectRoundTrip(multi, "multi-tuple relations and a nullary fact");

  Configuration previous_only = empty;
  previous_only.previous.relation("I").Insert({2, 3});
  previous_only.previous.relation("K").Insert({8});
  ExpectRoundTrip(previous_only, "previous only");

  // Large values and pages, and one tuple in both instances.
  Configuration wide = empty;
  wide.page = 200;
  for (SymbolId v : {127, 128, 300, 16384, 1 << 28}) {
    wide.data.relation("R").Insert({v});
    wide.previous.relation("K").Clear();
    wide.previous.relation("K").Insert({v});
  }
  wide.data.relation("K").Insert({1 << 28});
  wide.data.relation("T").Insert({129, 255, 70000});
  ExpectRoundTrip(wide, "large values");
}

TEST(EncodeTest, CounterexampleConfigurationsRoundTrip) {
  // Every step of every counterexample the E1-E4 suites report.
  int violated = 0, steps = 0;
  for (AppBundle (*build)() : {&BuildE1, &BuildE2, &BuildE3, &BuildE4}) {
    AppBundle app = build();
    Verifier verifier(app.spec.get());
    for (const ParsedProperty& p : app.properties) {
      VerifyResult r = RunVerify(verifier, p.property);
      if (r.verdict != Verdict::kViolated) continue;
      ++violated;
      for (const auto* part : {&r.stick, &r.candy}) {
        for (const CounterexampleStep& step : *part) {
          ++steps;
          ExpectRoundTrip(step.config, p.property.name);
        }
      }
    }
  }
  EXPECT_EQ(violated, 29);
  EXPECT_GT(steps, 29);
}

TEST(ProductSharingTest, RevisitedConfigurationsReplayTheirSuccessors) {
  // succP runs about once per distinct configuration, not once per
  // (automaton state, configuration) expansion: E1/P4 expands 1,214 pairs
  // over 327 configurations, E1/P9 1,219 pairs over the same 327.
  // Recomputing per expansion took 19,689 and 1,710 Advance calls (P4 with
  // the 158-state automaton it had before the pre-tableau rewrite, 21,298
  // expansions).
  AppBundle e1 = BuildE1();
  Verifier verifier(e1.spec.get());
  auto advance_calls = [&](const char* name, VerifyResult* result) {
    obs::MetricsRegistry metrics;
    VerifyOptions options;
    options.metrics = &metrics;
    const Property* p = FindProperty(e1, name);
    EXPECT_NE(p, nullptr) << name;
    if (p != nullptr) *result = RunVerify(verifier, *p, options);
    return metrics.counter("prepared.advance_calls")->value();
  };
  VerifyResult p4, p9;
  EXPECT_LT(advance_calls("P4", &p4), 1000);
  EXPECT_LT(advance_calls("P9", &p9), 700);
  EXPECT_EQ(p4.verdict, Verdict::kHolds);
  EXPECT_EQ(p9.verdict, Verdict::kHolds);
  // The visited bits see exactly the lookups a set of (flag, state,
  // configuration) triples would.
  EXPECT_EQ(p4.stats.num_expansions, 1214);
  EXPECT_EQ(p4.stats.trie_hits, 10580);
  EXPECT_EQ(p4.stats.trie_misses, 2427);
}

TEST(ProductSharingTest, EachSkeletonIsEnumeratedOncePerShard) {
  // Each distinct configuration is advanced once (E1/P4: 327 Advance
  // calls for 327 configurations), and each distinct (previous page,
  // skeleton) is completed once per shard: the 2-state E1/P5 and E3/R3
  // never expand a configuration twice, yet their 21,399 and 34,301
  // successors take 3,956 and 4,367 ApplyInput calls. Every prepared call
  // count is pinned, and so is the search itself (expansions, visited-bit
  // lookups).
  struct Case {
    AppBundle (*build)();
    const char* property;
    int64_t advance_calls;
    int64_t apply_input_calls;
    int64_t compute_options_calls;
    int64_t rule_evaluations;
    int64_t derived_tuples;
    int64_t expansions;
    int64_t trie_hits;
    int64_t trie_misses;
  };
  const Case cases[] = {
      {&BuildE1, "P4", 327, 1244, 156, 1356, 559, 1214, 10580, 2427},
      {&BuildE1, "P5", 1051, 3956, 465, 4111, 1743, 1065, 20334, 2128},
      {&BuildE3, "R3", 1113, 4367, 565, 1925, 1926, 1121, 33180, 2241},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.property);
    AppBundle app = c.build();
    Verifier verifier(app.spec.get());
    const Property* p = FindProperty(app, c.property);
    ASSERT_NE(p, nullptr);
    obs::MetricsRegistry metrics;
    VerifyOptions options;
    options.metrics = &metrics;
    VerifyResult r = RunVerify(verifier, *p, options);
    EXPECT_EQ(r.verdict, Verdict::kHolds);
    EXPECT_EQ(metrics.counter("prepared.advance_calls")->value(),
              c.advance_calls);
    EXPECT_EQ(metrics.counter("prepared.apply_input_calls")->value(),
              c.apply_input_calls);
    EXPECT_EQ(metrics.counter("prepared.compute_options_calls")->value(),
              c.compute_options_calls);
    EXPECT_EQ(metrics.counter("prepared.rule_evaluations")->value(),
              c.rule_evaluations);
    EXPECT_EQ(metrics.counter("prepared.derived_tuples")->value(),
              c.derived_tuples);
    EXPECT_EQ(r.stats.num_expansions, c.expansions);
    EXPECT_EQ(r.stats.trie_hits, c.trie_hits);
    EXPECT_EQ(r.stats.trie_misses, c.trie_misses);
  }
}

TEST(ProductSharingTest, MemoCountersAccountForEveryAdvance) {
  // Every succP request is a replay of the configuration's own list or an
  // Advance whose skeleton is found or newly completed. The skeleton table
  // is shard-local, so on properties that hold (every shard searched to
  // the end) the counts do not depend on the number of workers.
  const char* const kNames[] = {"search.memo.replays",
                                "search.memo.skeleton_hits",
                                "search.memo.skeleton_misses",
                                "prepared.advance_calls",
                                "prepared.apply_input_calls",
                                "prepared.compute_options_calls",
                                "prepared.rule_evaluations",
                                "prepared.derived_tuples"};
  std::map<std::string, int64_t> at_one_job;
  for (int jobs : {1, 4}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    AppBundle e1 = BuildE1();
    std::vector<Property> catalog = CatalogOf(e1);
    Verifier verifier(e1.spec.get());
    obs::MetricsRegistry metrics;
    BatchRequest request;
    request.properties = &catalog;
    for (size_t i = 0; i < e1.properties.size(); ++i) {
      if (e1.properties[i].has_expected && e1.properties[i].expected) {
        request.property_indices.push_back(static_cast<int>(i));
      }
    }
    request.options.metrics = &metrics;
    request.jobs = jobs;
    StatusOr<BatchResponse> batch = verifier.RunBatch(request);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_TRUE(batch->all_hold());
    std::map<std::string, int64_t> counts;
    for (const char* name : kNames) {
      counts[name] = metrics.counter(name)->value();
    }
    EXPECT_EQ(counts["search.memo.skeleton_hits"] +
                  counts["search.memo.skeleton_misses"],
              counts["prepared.advance_calls"]);
    EXPECT_GT(counts["search.memo.replays"], 0);
    EXPECT_GT(counts["search.memo.skeleton_hits"], 0);
    if (jobs == 1) {
      at_one_job = counts;
    } else {
      EXPECT_EQ(counts, at_one_job);
    }
  }
}

// --- heuristics preserve verdicts ----------------------------------------------

constexpr char kSmallSpec[] = R"(
app small

database item(id, price)
database member(name)
state basket(id, price)
state active()
input pickitem(id, price)
input button(x)
inputconst who

home HP

page HP {
  input button
  input who
  rule button(x) <- x = "enter" | x = "stay"
  state +active() <- exists n: who(n) & member(n) & button("enter")
  target SHOP <- exists n: who(n) & member(n) & button("enter")
  target HP <- button("stay")
}

page SHOP {
  input button
  input pickitem
  rule button(x) <- x = "add" | x = "leave" | x = "drop"
  rule pickitem(i, p) <- item(i, p)
  state +basket(i, p) <- pickitem(i, p) & button("add")
  state -basket(i, p) <- pickitem(i, p) & button("drop")
  target HP <- button("leave")
}

property holds_reach type T9 expect true { F [at HP] }
property holds_basket type T3 expect true {
  forall i, p: F [basket(i, p)] -> F [pickitem(i, p)]
}
property fails_shop type T10 expect false { G [!(at SHOP)] }
property fails_active type T9 expect false { F [active()] }
property holds_active type T1 expect true {
  [at HP & button("enter")] B [active()]
}
property fails_drop type T4 expect false {
  forall i, p: G ([basket(i, p)] -> F [!basket(i, p)])
}
)";

// A micro spec whose unpruned search spaces stay enumerable: one unary
// database relation and three constants, so the first-cut baseline faces
// only 2^(domain) representative databases.
constexpr char kMicroSpec[] = R"(
app micro
database reg(x)
state flag()
state seen(x)
input pick(x)
input button(b)
home A
page A {
  input button
  input pick
  rule button(b) <- b = "go" | b = "stay"
  rule pick(x) <- reg(x)
  state +seen(x) <- pick(x) & button("go")
  state +flag() <- exists x: pick(x) & button("go")
  target B <- (exists x: pick(x)) & button("go")
}
page B {
  input button
  rule button(b) <- b = "back"
  state -flag() <- button("back")
  target A <- button("back")
}
property m1 type T9 expect true { F [at A] }
property m2 type T10 expect false { G [!(at B)] }
property m3 type T3 expect true { forall x: F [seen(x)] -> F [pick(x)] }
property m4 type T9 expect false { F [flag()] }
property m5 type T1 expect true { [at A & button("go")] B [at B] }
property m6 type T8 expect false { G ([flag()] -> X [flag()]) }
)";

class MicroSpecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    result_ = ParseSpec(kMicroSpec);
    ASSERT_TRUE(result_.ok()) << result_.ErrorText();
    ASSERT_TRUE(result_.spec->CheckInputBoundedness().empty());
  }
  ParseResult result_;
};

class SmallSpecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    result_ = ParseSpec(kSmallSpec);
    ASSERT_TRUE(result_.ok()) << result_.ErrorText();
    ASSERT_TRUE(result_.spec->CheckInputBoundedness().empty());
  }
  ParseResult result_;
};

TEST_F(SmallSpecTest, AllVerdictsMatch) {
  Verifier verifier(result_.spec.get());
  for (const ParsedProperty& p : result_.properties) {
    VerifyResult r = RunVerify(verifier, p.property);
    EXPECT_NE(r.verdict, Verdict::kUnknown)
        << p.property.name << ": " << r.failure_reason;
    EXPECT_EQ(r.verdict == Verdict::kHolds, p.expected) << p.property.name;
  }
}

TEST_F(MicroSpecTest, HeuristicsPreserveVerdicts) {
  // Theorem 3.8: pruning with Heuristics 1 and 2 keeps the algorithm sound
  // and complete. Cross-check verdicts with core pruning disabled (the
  // micro spec keeps the unpruned core space enumerable).
  Verifier verifier(result_.spec.get());
  for (const ParsedProperty& p : result_.properties) {
    VerifyOptions with;
    VerifyResult expected = RunVerify(verifier, p.property, with);
    VerifyOptions without;
    without.heuristic1 = false;
    without.max_candidates = 16;
    without.timeout_seconds = 300;
    VerifyResult actual = RunVerify(verifier, p.property, without);
    ASSERT_NE(actual.verdict, Verdict::kUnknown)
        << p.property.name << ": " << actual.failure_reason;
    EXPECT_EQ(actual.verdict, expected.verdict) << p.property.name;
  }
}

TEST_F(SmallSpecTest, CounterexampleEndsInACycleAndReachesShop) {
  Verifier verifier(result_.spec.get());
  const ParsedProperty* shop = nullptr;
  for (const ParsedProperty& p : result_.properties) {
    if (p.property.name == "fails_shop") shop = &p;
  }
  ASSERT_NE(shop, nullptr);
  VerifyResult r = RunVerify(verifier, shop->property);
  ASSERT_EQ(r.verdict, Verdict::kViolated);
  ASSERT_FALSE(r.candy.empty()) << "lollipop must have a cycle";
  int shop_page = result_.spec->PageIndex("SHOP");
  bool visits_shop = false;
  for (const CounterexampleStep& s : r.stick) {
    if (s.config.page == shop_page) visits_shop = true;
  }
  for (const CounterexampleStep& s : r.candy) {
    if (s.config.page == shop_page) visits_shop = true;
  }
  EXPECT_TRUE(visits_shop) << r.CounterexampleString(*result_.spec);
}

TEST_F(SmallSpecTest, StatsArePopulated) {
  Verifier verifier(result_.spec.get());
  VerifyResult r = RunVerify(verifier, result_.properties[0].property);
  EXPECT_GT(r.stats.buchi_states, 0);
  EXPECT_GT(r.stats.num_expansions, 0);
  EXPECT_GT(r.stats.max_trie_size, 0);
  EXPECT_GE(r.stats.seconds, 0);
}

// --- observability (ISSUE 1) -------------------------------------------------

TEST_F(SmallSpecTest, PhaseTimingsAndTrieCountersArePopulated) {
  Verifier verifier(result_.spec.get());
  VerifyResult r = RunVerify(verifier, result_.properties[0].property);
  // Phase wall-times are filled in from the metrics layer and bounded by
  // the total.
  EXPECT_GT(r.stats.prepare_seconds, 0);
  EXPECT_GT(r.stats.search_seconds, 0);
  EXPECT_GE(r.stats.dataflow_seconds, 0);
  EXPECT_GE(r.stats.validate_seconds, 0);
  double phase_sum = r.stats.prepare_seconds + r.stats.dataflow_seconds +
                     r.stats.search_seconds + r.stats.validate_seconds;
  EXPECT_LE(phase_sum, r.stats.seconds + 0.05);
  // Every expansion inserts into the trie, so lookups happened.
  EXPECT_GT(r.stats.trie_hits + r.stats.trie_misses, 0);
  EXPECT_GE(r.stats.trie_misses, static_cast<int64_t>(r.stats.max_trie_size));
}

TEST_F(SmallSpecTest, MetricsRegistryReceivesVerifierCounters) {
  Verifier verifier(result_.spec.get());
  obs::MetricsRegistry metrics;
  VerifyOptions options;
  options.metrics = &metrics;
  VerifyResult r = RunVerify(verifier, result_.properties[0].property, options);
  EXPECT_EQ(metrics.counter("verify.expansions")->value(),
            r.stats.num_expansions);
  EXPECT_EQ(metrics.counter("trie.hits")->value(), r.stats.trie_hits);
  EXPECT_EQ(metrics.counter("trie.misses")->value(), r.stats.trie_misses);
  EXPECT_GT(metrics.counter("verify.prepare_us")->value(), 0);
  EXPECT_GT(metrics.counter("prepared.rule_evaluations")->value(), 0);
  EXPECT_GT(metrics.counter("gpvw.tableau_nodes")->value(), 0);
  EXPECT_EQ(metrics.histogram("verify.assignment_us")->count(),
            r.stats.num_assignments);

  // A shared registry accumulates across Verify calls; per-call stats
  // must not (regression test for double counting).
  VerifyResult r2 = RunVerify(verifier, result_.properties[0].property, options);
  EXPECT_EQ(metrics.counter("verify.expansions")->value(),
            r.stats.num_expansions + r2.stats.num_expansions);
  double r2_phase_sum = r2.stats.prepare_seconds + r2.stats.dataflow_seconds +
                        r2.stats.search_seconds + r2.stats.validate_seconds;
  EXPECT_LE(r2_phase_sum, r2.stats.seconds + 0.05);
  EXPECT_EQ(r2.stats.trie_hits, r.stats.trie_hits);
}

TEST_F(SmallSpecTest, TracerEmitsNestedPhaseSpans) {
  Verifier verifier(result_.spec.get());
  obs::Tracer tracer;
  VerifyOptions options;
  options.tracer = &tracer;
  RunVerify(verifier, result_.properties[0].property, options);

  // The trace must contain verify > {prepare, search, validate}, with the
  // children inside the root span's interval.
  const obs::TraceEvent* root = nullptr;
  bool saw_prepare = false, saw_search = false, saw_validate = false;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (e.name == "verify") root = &e;
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->depth, 0);
  for (const obs::TraceEvent& e : tracer.events()) {
    if (e.phase != obs::TraceEvent::Phase::kSpan || e.name == "verify") {
      continue;
    }
    EXPECT_GE(e.ts_us, root->ts_us - 1e-6) << e.name;
    EXPECT_LE(e.ts_us + e.dur_us, root->ts_us + root->dur_us + 1e-6)
        << e.name;
    if (e.name == "prepare") saw_prepare = e.depth >= 1;
    if (e.name == "search") saw_search = e.depth >= 1;
    if (e.name == "validate") saw_validate = e.depth >= 1;
  }
  EXPECT_TRUE(saw_prepare);
  EXPECT_TRUE(saw_search);
  EXPECT_TRUE(saw_validate);

  // The exported document is valid JSON.
  std::string error;
  ASSERT_TRUE(obs::Json::Parse(tracer.ToChromeTraceJson(), &error).has_value())
      << error;
}

TEST_F(SmallSpecTest, DisabledTracerProducesNoEventsAndSameVerdict) {
  Verifier verifier(result_.spec.get());
  // Null tracer (the default) is the fast path: no events anywhere.
  VerifyResult plain = RunVerify(verifier, result_.properties[0].property);
  obs::Tracer tracer;
  VerifyOptions traced;
  traced.tracer = &tracer;
  VerifyResult with = RunVerify(verifier, result_.properties[0].property, traced);
  EXPECT_EQ(plain.verdict, with.verdict);
  EXPECT_EQ(plain.stats.num_expansions, with.stats.num_expansions);
  EXPECT_GT(tracer.events().size(), 0u);
  EXPECT_EQ(plain.stats.heartbeats, 0);  // no tracer, no heartbeat sink
}

TEST_F(SmallSpecTest, StatsJsonCarriesEveryField) {
  Verifier verifier(result_.spec.get());
  VerifyResult r = RunVerify(verifier, result_.properties[0].property);
  obs::Json j = r.stats.ToJson();
  for (const char* key :
       {"seconds", "prepare_seconds", "dataflow_seconds", "search_seconds",
        "validate_seconds", "max_pseudorun_length", "max_trie_size",
        "buchi_states", "num_assignments", "num_cores", "num_expansions",
        "num_successors", "num_rejected_candidates", "trie_hits",
        "trie_misses", "heartbeats"}) {
    EXPECT_TRUE(j.Has(key)) << key;
  }
  EXPECT_EQ(j.Find("num_expansions")->AsInt(), r.stats.num_expansions);
}

TEST(HeartbeatTest, FiresOnLongE1Property) {
  // E1's full search is long enough that with a zero interval (fire on
  // every budget check) heartbeats must arrive, monotonically.
  AppBundle bundle = BuildE1();
  Verifier verifier(bundle.spec.get());
  VerifyOptions options;
  options.heartbeat_interval_seconds = 0;  // every budget check
  options.max_expansions = 400;            // keep the test fast
  std::vector<HeartbeatSnapshot> beats;
  options.heartbeat = [&](const HeartbeatSnapshot& hb) {
    beats.push_back(hb);
  };
  VerifyResult r = RunVerify(verifier, bundle.properties[0].property, options);
  ASSERT_FALSE(beats.empty());
  EXPECT_EQ(r.stats.heartbeats, static_cast<int64_t>(beats.size()));
  for (size_t i = 1; i < beats.size(); ++i) {
    EXPECT_GE(beats[i].num_expansions, beats[i - 1].num_expansions);
    EXPECT_GE(beats[i].elapsed_seconds, beats[i - 1].elapsed_seconds);
  }
  EXPECT_GT(beats.back().num_expansions, 0);
  EXPECT_GT(beats.back().buchi_states, 0);
  EXPECT_GE(beats.back().max_trie_size, beats.back().trie_size);
}

TEST_F(SmallSpecTest, TimeoutYieldsUnknown) {
  Verifier verifier(result_.spec.get());
  VerifyOptions options;
  options.timeout_seconds = 0.0;
  VerifyResult r = RunVerify(verifier, result_.properties[0].property, options);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_NE(r.failure_reason.find("timeout"), std::string::npos);
}

// --- differential test: pseudorun verifier vs explicit baseline ------------------

TEST_F(MicroSpecTest, AgreesWithFirstCutBaseline) {
  // On a small spec the explicit first-cut verifier can enumerate all
  // databases over its bounded domain. Its verdicts must agree with the
  // pseudorun search: a violation it finds is genuine (soundness), and a
  // violation WAVE finds within the bounded domain must exist there too.
  Verifier wave_verifier(result_.spec.get());
  FirstCutVerifier baseline(result_.spec.get());
  for (const ParsedProperty& p : result_.properties) {
    VerifyResult wave_result = RunVerify(wave_verifier, p.property);
    FirstCutOptions options;
    options.extra_domain_values = 1;
    options.timeout_seconds = 120;
    FirstCutResult baseline_result = baseline.Verify(p.property, options);
    ASSERT_NE(baseline_result.verdict, Verdict::kUnknown)
        << p.property.name << ": " << baseline_result.failure_reason;
    EXPECT_EQ(baseline_result.verdict, wave_result.verdict)
        << p.property.name;
  }
}

TEST_F(MicroSpecTest, ExhaustiveExistentialAgrees) {
  // The default C∃ enumeration uses pairwise-distinct fresh values; the
  // exhaustive mode adds equality patterns among them. On input-bounded
  // specs both must yield identical verdicts (the paper's completeness
  // needs only representative assignments).
  Verifier verifier(result_.spec.get());
  for (const ParsedProperty& p : result_.properties) {
    VerifyResult fast = RunVerify(verifier, p.property);
    VerifyOptions options;
    options.exhaustive_existential = true;
    VerifyResult slow = RunVerify(verifier, p.property, options);
    EXPECT_EQ(fast.verdict, slow.verdict) << p.property.name;
    EXPECT_GE(slow.stats.num_assignments, fast.stats.num_assignments);
  }
}

TEST_F(MicroSpecTest, ExpansionBudgetYieldsUnknown) {
  Verifier verifier(result_.spec.get());
  VerifyOptions options;
  options.max_expansions = 1;
  VerifyResult r = RunVerify(verifier, result_.properties[0].property, options);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_NE(r.failure_reason.find("budget"), std::string::npos);
}

}  // namespace
}  // namespace wave
