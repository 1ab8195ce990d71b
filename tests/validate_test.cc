// Counterexample-validation tests (the incomplete-verifier mode of paper
// Section 7): every violation WAVE reports on the example apps must replay
// as a genuine run over a concrete database.
#include <gtest/gtest.h>

#include "apps/apps.h"
#include "parser/parser.h"
#include "verifier/validate.h"  // IWYU pragma: keep
#include "verifier/verifier.h"

#include "verify_helpers.h"

namespace wave {
namespace {

void ValidateAllViolations(AppBundle* bundle, const char* app) {
  Verifier verifier(bundle->spec.get());
  int violations = 0;
  for (const ParsedProperty& p : bundle->properties) {
    VerifyOptions options;
    options.timeout_seconds = 120;
    VerifyResult r = RunVerify(verifier, p.property, options);
    if (r.verdict != Verdict::kViolated) continue;
    ++violations;
    ValidationResult v =
        ValidateCounterexample(bundle->spec.get(), p.property, r);
    EXPECT_TRUE(v.genuine)
        << app << "/" << p.property.name << ": " << v.reason;
    EXPECT_GE(v.database.TupleCount(), 0);
  }
  EXPECT_GT(violations, 0) << app << " suite has no violated properties?";
}

TEST(ValidateTest, E1ViolationsAreGenuine) {
  AppBundle e1 = BuildE1();
  ValidateAllViolations(&e1, "E1");
}

TEST(ValidateTest, E2ViolationsAreGenuine) {
  AppBundle e2 = BuildE2();
  ValidateAllViolations(&e2, "E2");
}

TEST(ValidateTest, E3ViolationsAreGenuine) {
  AppBundle e3 = BuildE3();
  ValidateAllViolations(&e3, "E3");
}

TEST(ValidateTest, E4ViolationsAreGenuine) {
  AppBundle e4 = BuildE4();
  ValidateAllViolations(&e4, "E4");
}

TEST(ValidateTest, RejectsNonViolations) {
  AppBundle e1 = BuildE1();
  Verifier verifier(e1.spec.get());
  VerifyResult r = RunVerify(verifier, e1.properties[0].property);  // P1, holds
  ASSERT_EQ(r.verdict, Verdict::kHolds);
  ValidationResult v =
      ValidateCounterexample(e1.spec.get(), e1.properties[0].property, r);
  EXPECT_FALSE(v.genuine);
}

TEST(ValidateTest, WitnessBindingIsRecorded) {
  AppBundle e1 = BuildE1();
  Verifier verifier(e1.spec.get());
  const Property* p6 = FindProperty(e1, "P6");
  ASSERT_NE(p6, nullptr);
  VerifyResult r = RunVerify(verifier, *p6);
  ASSERT_EQ(r.verdict, Verdict::kViolated);
  // P6 quantifies over one variable (the registered-but-never-logged-in
  // user); its witness must be bound.
  EXPECT_EQ(r.witness_binding.size(), 1u);
  EXPECT_TRUE(r.witness_binding.count("n") > 0);
}

// The non-input-bounded promo site from examples/incomplete_mode.cpp.
constexpr char kPromoSite[] = R"(
app promo_site
database promo(code)
state unlocked()
input button(x)
home HP
page HP {
  input button
  rule button(x) <- x = "enter" | x = "reload"
  state +unlocked() <- (exists c: promo(c)) & button("enter")
  target VP <- (exists c: promo(c)) & button("enter")
  target HP <- button("reload")
}
page VP {
  input button
  rule button(x) <- x = "home"
  target HP <- button("home")
}
property opens expect false { F [at VP] }
property shut expect false { G [!(at VP)] }
)";

TEST(IncompleteModeTest, GenuineCandidatesAreAccepted) {
  ParseResult parsed = ParseSpec(kPromoSite);
  ASSERT_TRUE(parsed.ok()) << parsed.ErrorText();
  EXPECT_FALSE(parsed.spec->CheckInputBoundedness().empty());
  Verifier verifier(parsed.spec.get());
  VerifyResult r = VerifyValidated(&verifier, parsed.spec.get(),
                                   parsed.properties[0].property);
  EXPECT_EQ(r.verdict, Verdict::kViolated);
  EXPECT_EQ(r.stats.num_rejected_candidates, 0);
  ValidationResult v = ValidateCounterexample(
      parsed.spec.get(), parsed.properties[0].property, r);
  EXPECT_TRUE(v.genuine) << v.reason;
}

TEST(IncompleteModeTest, SpuriousCandidatesAreRejectedNotReported) {
  ParseResult parsed = ParseSpec(kPromoSite);
  ASSERT_TRUE(parsed.ok()) << parsed.ErrorText();
  Verifier verifier(parsed.spec.get());
  // Raw search: the first candidate mixes inconsistent promo assumptions.
  VerifyResult raw = RunVerify(verifier, parsed.properties[1].property);
  ASSERT_EQ(raw.verdict, Verdict::kViolated);
  ValidationResult v = ValidateCounterexample(
      parsed.spec.get(), parsed.properties[1].property, raw);
  EXPECT_FALSE(v.genuine);
  // The validated loop must not report that spurious candidate: either it
  // finds a genuine one, or it honestly returns kUnknown with a rejection
  // count — never a spurious kViolated.
  VerifyResult checked = VerifyValidated(&verifier, parsed.spec.get(),
                                         parsed.properties[1].property);
  if (checked.verdict == Verdict::kViolated) {
    ValidationResult confirm = ValidateCounterexample(
        parsed.spec.get(), parsed.properties[1].property, checked);
    EXPECT_TRUE(confirm.genuine) << confirm.reason;
  } else {
    EXPECT_EQ(checked.verdict, Verdict::kUnknown);
    EXPECT_GT(checked.stats.num_rejected_candidates, 0);
  }
}

TEST(IncompleteModeTest, CandidateFilterCanRejectEverything) {
  ParseResult parsed = ParseSpec(kPromoSite);
  ASSERT_TRUE(parsed.ok()) << parsed.ErrorText();
  Verifier verifier(parsed.spec.get());
  VerifyOptions options;
  int64_t seen = 0;
  options.candidate_filter = [&seen](const auto&, const auto&,
                                     const auto&) {
    ++seen;
    return false;  // reject all candidates
  };
  VerifyResult r =
      RunVerify(verifier, parsed.properties[0].property, options);
  EXPECT_EQ(r.verdict, Verdict::kHolds)
      << "with everything rejected the raw search reports no violation";
  EXPECT_GT(seen, 0);
  EXPECT_EQ(r.stats.num_rejected_candidates, seen);
}

}  // namespace
}  // namespace wave
