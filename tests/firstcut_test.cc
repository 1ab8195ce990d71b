// Direct unit tests of the explicit first-cut baseline (ISSUE 5
// satellite): tiny specs whose verdicts are computed BY HAND below, so
// the differential oracle's reference axis is itself anchored to
// something human-checked, not just to "the two engines agree".
//
// Hand model (see src/baseline/firstcut.h): the bounded domain is the
// spec/property constants plus `extra_domain_values` fresh values; the
// baseline enumerates every database over that domain (2^candidates,
// candidates = relations × |dom| for unary relations) and model-checks
// each one explicitly. State relations start EMPTY in the initial
// configuration.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>

#include "apps/apps.h"
#include "baseline/firstcut.h"
#include "parser/parser.h"
#include "verifier/verifier.h"

namespace wave {
namespace {

// One unary database relation, no data constants anywhere: the bounded
// domain is exactly the 1 fresh value, so there are 2^1 = 2 databases
// ({} and {fresh}).
constexpr char kTinySpec[] = R"(app tiny
database r1(a)
state s0()
input pick(x)
home A
page A {
  input pick
  rule pick(x) <- r1(x)
  state +s0() <- exists x: pick(x)
}
)";

// Two unary relations and the constant "go": domain {go, fresh} (2
// values), 2 × 2 = 4 candidate tuples, 2^4 = 16 databases.
constexpr char kMarkedSpec[] = R"(app tiny
database r1(a)
database marked(a)
state s0()
input pick(x)
home A
page A {
  input pick
  rule pick(x) <- r1(x) & marked(x)
  state +s0() <- pick("go")
}
)";

FirstCutResult RunFirstCut(const std::string& text,
                           const FirstCutOptions& options = {}) {
  ParseResult parsed = ParseSpec(text);
  EXPECT_TRUE(parsed.ok()) << parsed.ErrorText();
  FirstCutVerifier baseline(parsed.spec.get());
  return baseline.Verify(parsed.properties[0].property, options);
}

Verdict RunWave(const std::string& text) {
  ParseResult parsed = ParseSpec(text);
  EXPECT_TRUE(parsed.ok()) << parsed.ErrorText();
  StatusOr<std::unique_ptr<Verifier>> verifier =
      Verifier::Create(parsed.spec.get());
  EXPECT_TRUE(verifier.ok());
  VerifyRequest request;
  request.property = &parsed.properties[0].property;
  StatusOr<VerifyResponse> response = (*verifier)->Run(request);
  EXPECT_TRUE(response.ok());
  return response->verdict;
}

TEST(FirstCutTest, TautologyHoldsOverBothDatabases) {
  // G(¬s0 ∨ s0) is true in every configuration of every run, whatever
  // the database contents.
  std::string text =
      std::string(kTinySpec) + "property p { G ((!([s0()])) | ([s0()])) }";
  FirstCutResult r = RunFirstCut(text);
  EXPECT_EQ(r.verdict, Verdict::kHolds);
  EXPECT_EQ(r.stats.domain_size, 1);           // no constants + 1 fresh
  EXPECT_EQ(r.stats.db_tuple_candidates, 1.0);  // 1 relation × 1 value
  EXPECT_EQ(r.stats.num_databases, 2);          // both of 2^1 explored
  EXPECT_EQ(RunWave(text), Verdict::kHolds);
}

TEST(FirstCutTest, GloballyS0FailsAtTheEmptyInitialState) {
  // State relations start empty, so s0 is false in the very first
  // configuration: G s0 is violated on every run — the search stops at
  // its first database.
  std::string text = std::string(kTinySpec) + "property p { G ([s0()]) }";
  FirstCutResult r = RunFirstCut(text);
  EXPECT_EQ(r.verdict, Verdict::kViolated);
  EXPECT_EQ(r.stats.num_databases, 1);  // early exit on the counterexample
  EXPECT_EQ(RunWave(text), Verdict::kViolated);
}

TEST(FirstCutTest, EventuallyS0FailsOnTheEmptyDatabase) {
  // With r1 = {}, no pick option is ever available, +s0() never fires,
  // and F s0 fails on that run. (With r1 = {fresh} the user may still
  // decline to pick — either way a violating run exists.)
  std::string text = std::string(kTinySpec) + "property p { F ([s0()]) }";
  FirstCutResult r = RunFirstCut(text);
  EXPECT_EQ(r.verdict, Verdict::kViolated);
  EXPECT_EQ(RunWave(text), Verdict::kViolated);
}

TEST(FirstCutTest, PickImpliesNextS0Holds) {
  // The rule `+s0() <- exists x: pick(x)` fires into the NEXT
  // configuration, which is exactly G(pick → X s0).
  std::string text =
      std::string(kTinySpec) +
      "property p { G (([exists x: pick(x)]) -> (X ([s0()]))) }";
  FirstCutResult r = RunFirstCut(text);
  EXPECT_EQ(r.verdict, Verdict::kHolds);
  EXPECT_EQ(r.stats.num_databases, 2);  // a holds verdict explores all
  EXPECT_EQ(RunWave(text), Verdict::kHolds);
}

TEST(FirstCutTest, ConstantGrowsTheDomainAndTheDatabaseSpace) {
  std::string text = std::string(kMarkedSpec) + "property p { F ([s0()]) }";
  FirstCutResult r = RunFirstCut(text);
  // Violated already on the first (empty) database: nothing is marked,
  // so pick never fires and s0 stays false forever.
  EXPECT_EQ(r.verdict, Verdict::kViolated);
  EXPECT_EQ(r.stats.domain_size, 2);            // "go" + 1 fresh
  EXPECT_EQ(r.stats.db_tuple_candidates, 4.0);  // 2 relations × 2 values
  EXPECT_EQ(RunWave(text), Verdict::kViolated);
}

TEST(FirstCutTest, ExtraDomainValuesWidenTheDomain) {
  FirstCutOptions options;
  options.extra_domain_values = 2;
  std::string text = std::string(kTinySpec) + "property p { G ([s0()]) }";
  FirstCutResult r = RunFirstCut(text, options);
  EXPECT_EQ(r.verdict, Verdict::kViolated);
  EXPECT_EQ(r.stats.domain_size, 2);  // 0 constants + 2 fresh
}

TEST(FirstCutTest, TupleBitBudgetDegradesToUnknownUpfront) {
  FirstCutOptions options;
  options.max_db_tuple_bits = 1;  // kMarkedSpec needs 4 bits
  std::string text = std::string(kMarkedSpec) + "property p { F ([s0()]) }";
  FirstCutResult r = RunFirstCut(text, options);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(r.stats.num_databases, 0);  // refused before exploring any
  EXPECT_NE(r.failure_reason.find("database space too large"),
            std::string::npos)
      << r.failure_reason;
}

TEST(FirstCutTest, TimeoutDegradesToUnknown) {
  FirstCutOptions options;
  options.timeout_seconds = 0;
  std::string text = std::string(kTinySpec) + "property p { G ([s0()]) }";
  FirstCutResult r = RunFirstCut(text, options);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_FALSE(r.failure_reason.empty());
}

TEST(FirstCutTest, TheTimeoutStopsTheBuchiTranslation) {
  // E1 with `G` nested 998 deep (the parser's limit): only the size caps
  // would end its translation, after seconds and hundreds of MB. The
  // translation polls the search's deadline, so 0.5 s answers unknown
  // with a timeout reason.
  const std::string e1 = E1SpecText();
  std::string text = e1.substr(0, e1.find("\nproperty ")) +
                     "\nproperty deep {\n";
  for (int i = 0; i < 998; ++i) text += "G ";
  text += "[at HP]\n}\n";
  FirstCutOptions options;
  options.timeout_seconds = 0.5;
  const auto start = std::chrono::steady_clock::now();
  FirstCutResult r = RunFirstCut(text, options);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(r.failure_reason.rfind("timeout after", 0), 0u)
      << r.failure_reason;
  EXPECT_LT(seconds, 2.0);
}

}  // namespace
}  // namespace wave
