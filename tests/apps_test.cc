// Integration tests: the four experimental applications of Section 5
// verify with the verdicts the paper's experiments report (the expected
// verdicts are asserted in the embedded suites), with exactly the search
// counters of the committed benchmark baseline, and with the visited-set
// hits and misses and the counterexamples pinned in
// tests/golden/search_pins.json, and with the candidate lists each
// property's pre-pass hands the search pinned in
// tests/golden/candidate_pins.json.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "apps/apps.h"
#include "common/fingerprint.h"
#include "common/io.h"
#include "obs/json.h"
#include "verifier/session.h"
#include "verifier/verifier.h"

#include "verify_helpers.h"

namespace wave {
namespace {

struct AppCase {
  const char* name;
  AppBundle (*build)();
  int pages;
  int min_properties;
};

// gtest's default dump of a param is its raw bytes, pointers included, so the
// listed test names would change from run to run; print the app name instead.
void PrintTo(const AppCase& c, std::ostream* os) { *os << c.name; }

class AppsTest : public ::testing::TestWithParam<AppCase> {};

/// Reads a JSON-lines file into (record name, record) pairs in file order.
std::vector<std::pair<std::string, obs::Json>> ReadJsonLines(
    const std::string& path) {
  std::vector<std::pair<std::string, obs::Json>> records;
  StatusOr<std::string> text = ReadFileToString(path);
  if (!text.ok()) return records;
  std::istringstream lines(*text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::optional<obs::Json> record = obs::Json::Parse(line);
    EXPECT_TRUE(record.has_value()) << line;
    if (!record.has_value()) continue;
    records.emplace_back(record->Find("name")->AsString(), *record);
  }
  return records;
}

/// The `counters` object of every record in bench/baselines/
/// BENCH_verify.json (`wave_bench --suite verify`, jobs=1), keyed by record
/// name ("e1/P4").
std::map<std::string, obs::Json> BaselineCounters() {
  std::map<std::string, obs::Json> counters;
  for (const auto& [name, record] : ReadJsonLines(
           std::string(WAVE_REPO_ROOT) + "/bench/baselines/BENCH_verify.json")) {
    counters[name] = *record.Find("counters");
  }
  return counters;
}

/// tests/golden/search_pins.json: one line per property ("e1/P4") with its
/// `trie_hits`, `trie_misses` and a fingerprint of its counterexample text
/// (null when it holds). The fresh symbols a counterexample names (e.g.
/// `$HP.upass.0.2`) expose any change in minting order. Run the test
/// binary with WAVE_REGOLD set to rewrite this suite's rows deliberately.
std::string SearchPinsPath() {
  return std::string(WAVE_REPO_ROOT) + "/tests/golden/search_pins.json";
}

obs::Json SearchPin(const std::string& name, const VerifyResult& r,
                    const WebAppSpec& spec) {
  obs::Json pin = obs::Json::Object();
  pin.Set("name", obs::Json::Str(name));
  pin.Set("trie_hits", obs::Json::Int(r.stats.trie_hits));
  pin.Set("trie_misses", obs::Json::Int(r.stats.trie_misses));
  if (r.verdict == Verdict::kViolated) {
    FingerprintBuilder fp;
    fp.AddString(r.CounterexampleString(spec));
    pin.Set("counterexample", obs::Json::Str(fp.Finish().ToHex()));
  } else {
    pin.Set("counterexample", obs::Json::Null());
  }
  return pin;
}

/// Replaces (or appends) `pins` in the golden file at `path`, keeping
/// other rows.
void RegoldPins(const std::string& path,
                const std::vector<std::pair<std::string, obs::Json>>& pins) {
  std::vector<std::pair<std::string, obs::Json>> rows = ReadJsonLines(path);
  for (const auto& [name, pin] : pins) {
    auto it = std::find_if(rows.begin(), rows.end(),
                           [&](const auto& row) { return row.first == name; });
    if (it != rows.end()) {
      it->second = pin;
    } else {
      rows.emplace_back(name, pin);
    }
  }
  std::string bytes;
  for (const auto& row : rows) bytes += row.second.Dump() + "\n";
  Status written = AtomicWriteFile(path, bytes);
  EXPECT_TRUE(written.ok()) << written.ToString();
}

TEST_P(AppsTest, SpecValidatesAndIsInputBounded) {
  AppBundle bundle = GetParam().build();
  EXPECT_EQ(bundle.spec->num_pages(), GetParam().pages);
  EXPECT_TRUE(bundle.spec->Validate().empty());
  std::vector<std::string> ib = bundle.spec->CheckInputBoundedness();
  EXPECT_TRUE(ib.empty()) << ib.front();
  EXPECT_GE(static_cast<int>(bundle.properties.size()),
            GetParam().min_properties);
}

TEST_P(AppsTest, AllPropertiesMatchExpectedVerdicts) {
  AppBundle bundle = GetParam().build();
  Verifier verifier(bundle.spec.get());
  const std::map<std::string, obs::Json> baseline = BaselineCounters();
  std::map<std::string, obs::Json> golden_pins;
  for (auto& [name, pin] : ReadJsonLines(SearchPinsPath())) {
    golden_pins.emplace(name, std::move(pin));
  }
  const bool regold = std::getenv("WAVE_REGOLD") != nullptr;
  std::vector<std::pair<std::string, obs::Json>> pins;
  std::string suite = GetParam().name;
  suite[0] = static_cast<char>(std::tolower(suite[0]));
  for (const ParsedProperty& p : bundle.properties) {
    ASSERT_TRUE(p.has_expected) << p.property.name;
    VerifyOptions options;
    options.timeout_seconds = 120;
    VerifyResult r = RunVerify(verifier, p.property, options);
    ASSERT_NE(r.verdict, Verdict::kUnknown)
        << GetParam().name << "/" << p.property.name << ": "
        << r.failure_reason;
    EXPECT_EQ(r.verdict == Verdict::kHolds, p.expected)
        << GetParam().name << "/" << p.property.name;
    if (r.verdict == Verdict::kViolated) {
      EXPECT_FALSE(r.candy.empty())
          << "counterexamples are lassos; " << p.property.name;
    }
    // The search itself is pinned: the same successors in the same order
    // give exactly the baseline's deterministic counters.
    const std::string name = suite + "/" + p.property.name;
    auto it = baseline.find(name);
    ASSERT_NE(it, baseline.end()) << name << " has no baseline record";
    const std::pair<const char*, int64_t> counters[] = {
        {"num_assignments", r.stats.num_assignments},
        {"num_cores", r.stats.num_cores},
        {"num_expansions", r.stats.num_expansions},
        {"num_successors", r.stats.num_successors},
        {"buchi_states", r.stats.buchi_states},
        {"max_trie_size", r.stats.max_trie_size},
        {"max_pseudorun_length", r.stats.max_pseudorun_length},
    };
    for (const auto& [counter, value] : counters) {
      const obs::Json* expected = it->second.Find(counter);
      ASSERT_NE(expected, nullptr) << name << " baseline lacks " << counter;
      EXPECT_EQ(value, expected->AsInt()) << name << " " << counter;
    }
    // Hits, misses and the counterexample itself are pinned too.
    obs::Json pin = SearchPin(name, r, *bundle.spec);
    pins.emplace_back(name, pin);
    if (regold) continue;
    auto golden = golden_pins.find(name);
    ASSERT_NE(golden, golden_pins.end()) << name << " has no search pin";
    EXPECT_EQ(pin.Dump(), golden->second.Dump())
        << name << " counterexample:\n"
        << r.CounterexampleString(*bundle.spec);
  }
  if (regold) RegoldPins(SearchPinsPath(), pins);
}

/// tests/golden/candidate_pins.json: one line per property ("e1/P4") with
/// what its pre-pass hands the search at default options: each free
/// variable's C∃ candidates and fresh value, and per assignment the core
/// candidates and every warmed extension set ("page<prev", "page<" for the
/// initial configuration). Tuples are rendered through symbol names in
/// list order, so both candidate order and minting order show. Run the
/// test binary with WAVE_REGOLD set to rewrite this suite's rows.
std::string CandidatePinsPath() {
  return std::string(WAVE_REPO_ROOT) + "/tests/golden/candidate_pins.json";
}

obs::Json CandidateSetPin(const CandidateSet& set, const WebAppSpec& spec) {
  const SymbolTable& symbols = spec.symbols();
  obs::Json tuples = obs::Json::Array();
  for (const auto& [relation, tuple] : set.tuples) {
    std::string text = spec.catalog().schema(relation).name + "(";
    for (size_t i = 0; i < tuple.size(); ++i) {
      if (i > 0) text += ",";
      text += symbols.Name(tuple[i]);
    }
    tuples.Append(obs::Json::Str(text + ")"));
  }
  obs::Json pin = obs::Json::Object();
  pin.Set("tuples", std::move(tuples));
  pin.Set("overflow", obs::Json::Bool(set.overflow));
  pin.Set("approx_tuple_count", obs::Json::Number(set.approx_tuple_count));
  return pin;
}

obs::Json CandidatePin(const std::string& name, const PropertyPlan& plan,
                       const PrepassArtifacts* artifacts,
                       const WebAppSpec& spec) {
  const SymbolTable& symbols = spec.symbols();
  obs::Json pin = obs::Json::Object();
  pin.Set("name", obs::Json::Str(name));
  pin.Set("decided_holds", obs::Json::Bool(plan.decided_holds));
  obs::Json free = obs::Json::Array();
  for (size_t v = 0; v < plan.free_vars.size(); ++v) {
    obs::Json var = obs::Json::Object();
    var.Set("var", obs::Json::Str(plan.free_vars[v]));
    obs::Json candidates = obs::Json::Array();
    for (SymbolId c : plan.var_candidates[v]) {
      candidates.Append(obs::Json::Str(symbols.Name(c)));
    }
    var.Set("candidates", std::move(candidates));
    var.Set("fresh", obs::Json::Str(symbols.Name(plan.fresh_values[v])));
    free.Append(std::move(var));
  }
  pin.Set("free", std::move(free));
  obs::Json assignments = obs::Json::Array();
  if (artifacts != nullptr) {
    for (const auto& ctx : artifacts->ctxs) {
      obs::Json a = obs::Json::Object();
      a.Set("core", CandidateSetPin(*ctx->core_candidates, spec));
      obs::Json extensions = obs::Json::Object();
      for (size_t slot = 0; slot < ctx->ext_table.size(); ++slot) {
        const CandidateSet* ext = ctx->ext_table[slot];
        if (ext == nullptr) continue;
        const int page = static_cast<int>(slot) / ctx->ext_stride;
        const int prev = static_cast<int>(slot) % ctx->ext_stride - 1;
        extensions.Set(
            spec.page(page).name + "<" + (prev < 0 ? "" : spec.page(prev).name),
            CandidateSetPin(*ext, spec));
      }
      a.Set("extensions", std::move(extensions));
      assignments.Append(std::move(a));
    }
  }
  pin.Set("assignments", std::move(assignments));
  return pin;
}

TEST_P(AppsTest, CandidateListsMatchPins) {
  AppBundle bundle = GetParam().build();
  Verifier verifier(bundle.spec.get());
  std::map<std::string, obs::Json> golden_pins;
  for (auto& [name, pin] : ReadJsonLines(CandidatePinsPath())) {
    golden_pins.emplace(name, std::move(pin));
  }
  const bool regold = std::getenv("WAVE_REGOLD") != nullptr;
  std::vector<std::pair<std::string, obs::Json>> pins;
  std::string suite = GetParam().name;
  suite[0] = static_cast<char>(std::tolower(suite[0]));
  // The engine's own sequence per property: the plan, then the pre-pass,
  // all on one session, so fresh symbols are minted in a run's order.
  VerifierSession& session = verifier.session();
  const VerifyOptions options;
  for (const ParsedProperty& p : bundle.properties) {
    const std::string name = suite + "/" + p.property.name;
    const PropertyPlan* plan = session.GetPlan(p.property, nullptr);
    PrepassResult prepass =
        session.GetPrepass(p.property, options, nullptr, nullptr);
    obs::Json pin =
        CandidatePin(name, *plan, prepass.get(), *bundle.spec);
    session.UnpinPrepass(prepass.artifacts);
    pins.emplace_back(name, pin);
    if (regold) continue;
    auto golden = golden_pins.find(name);
    ASSERT_NE(golden, golden_pins.end()) << name << " has no candidate pin";
    EXPECT_EQ(pin.Dump(), golden->second.Dump()) << name;
  }
  if (regold) RegoldPins(CandidatePinsPath(), pins);
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, AppsTest,
    ::testing::Values(AppCase{"E1", BuildE1, 19, 17},
                      AppCase{"E2", BuildE2, 15, 13},
                      AppCase{"E3", BuildE3, 22, 14},
                      AppCase{"E4", BuildE4, 35, 12}),
    [](const ::testing::TestParamInfo<AppCase>& info) {
      return info.param.name;
    });

TEST(AppsStatsTest, E1MatchesPaperScale) {
  AppBundle e1 = BuildE1();
  const Catalog& catalog = e1.spec->catalog();
  EXPECT_EQ(catalog.IdsOfKind(RelationKind::kDatabase).size(), 4u);
  EXPECT_EQ(catalog.IdsOfKind(RelationKind::kState).size(), 10u);
  EXPECT_EQ(catalog.IdsOfKind(RelationKind::kInput).size(), 6u);
  EXPECT_EQ(catalog.IdsOfKind(RelationKind::kAction).size(), 5u);
  // Database arities 2..7 as in the paper.
  int max_arity = 0, min_arity = 99;
  for (RelationId id : catalog.IdsOfKind(RelationKind::kDatabase)) {
    max_arity = std::max(max_arity, catalog.schema(id).arity);
    min_arity = std::min(min_arity, catalog.schema(id).arity);
  }
  EXPECT_EQ(min_arity, 2);
  EXPECT_EQ(max_arity, 7);
}

TEST(AppsStatsTest, E2HasNoStateOrActions) {
  AppBundle e2 = BuildE2();
  const Catalog& catalog = e2.spec->catalog();
  EXPECT_EQ(catalog.IdsOfKind(RelationKind::kDatabase).size(), 7u);
  EXPECT_TRUE(catalog.IdsOfKind(RelationKind::kState).empty());
  EXPECT_TRUE(catalog.IdsOfKind(RelationKind::kAction).empty());
}

TEST(AppsStatsTest, E3E4MatchPaperScale) {
  AppBundle e3 = BuildE3();
  EXPECT_EQ(e3.spec->catalog().IdsOfKind(RelationKind::kDatabase).size(),
            12u);
  EXPECT_EQ(e3.spec->catalog().IdsOfKind(RelationKind::kState).size(), 11u);
  EXPECT_EQ(e3.spec->catalog().IdsOfKind(RelationKind::kAction).size(), 1u);
  AppBundle e4 = BuildE4();
  EXPECT_EQ(e4.spec->catalog().IdsOfKind(RelationKind::kDatabase).size(),
            22u);
  EXPECT_EQ(e4.spec->catalog().IdsOfKind(RelationKind::kState).size(), 7u);
  int max_arity = 0;
  for (RelationId id :
       e4.spec->catalog().IdsOfKind(RelationKind::kDatabase)) {
    max_arity = std::max(max_arity, e4.spec->catalog().schema(id).arity);
  }
  EXPECT_EQ(max_arity, 14);
}

}  // namespace
}  // namespace wave
