// Integration tests: the four experimental applications of Section 5
// verify with the verdicts the paper's experiments report (the expected
// verdicts are asserted in the embedded suites).
#include <gtest/gtest.h>

#include "apps/apps.h"
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
  }
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
