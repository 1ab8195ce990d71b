// Robustness tests (ISSUE 2): the structured-error channel, the resource
// governor and cooperative cancellation, the budget-escalation retry
// ladder, and a fuzz-ish corpus of truncated/corrupted spec files that
// must produce positioned parse errors — never a crash.
#include <gtest/gtest.h>

#include <pthread.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <limits>
#include <regex>
#include <string>
#include <vector>

#include "api/wire.h"
#include "apps/apps.h"
#include "common/check.h"
#include "common/fault.h"
#include "common/io.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "verifier/config_store.h"
#include "verifier/governor.h"
#include "verifier/session.h"
#include "verifier/validate.h"
#include "verifier/verifier.h"

#include "verify_helpers.h"

namespace wave {
namespace {

// --- Status / StatusOr ------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_TRUE(Status::Ok().ok());
}

TEST(StatusTest, FactoriesSetCodeMessageAndLocation) {
  Status s = Status::InvalidArgument("bad spec", WAVE_LOC);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad spec");
  EXPECT_GT(s.location().line, 0);
  std::string text = s.ToString();
  EXPECT_NE(text.find("INVALID_ARGUMENT"), std::string::npos);
  EXPECT_NE(text.find("bad spec"), std::string::npos);
  EXPECT_NE(text.find("robustness_test.cc"), std::string::npos);
}

TEST(StatusTest, EveryCodeHasAStableName) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "RESOURCE_EXHAUSTED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded),
               "DEADLINE_EXCEEDED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kCancelled), "CANCELLED");
}

TEST(StatusOrTest, HoldsValueOrError) {
  StatusOr<int> good = 42;
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  EXPECT_EQ(*good, 42);

  StatusOr<int> bad = Status::NotFound("no such thing");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

StatusOr<int> ParsePositive(int raw) {
  if (raw <= 0) return Status::InvalidArgument("not positive");
  return raw;
}

Status UsePositive(int raw, int* out) {
  WAVE_ASSIGN_OR_RETURN(int value, ParsePositive(raw));
  WAVE_RETURN_IF_ERROR(Status::Ok());
  *out = value;
  return Status::Ok();
}

TEST(StatusOrTest, MacrosPropagateErrorsAndUnwrapValues) {
  int out = 0;
  EXPECT_TRUE(UsePositive(7, &out).ok());
  EXPECT_EQ(out, 7);
  Status s = UsePositive(-1, &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

// --- file I/O ---------------------------------------------------------------

TEST(IoTest, ReadFileToStringReportsNotFound) {
  StatusOr<std::string> r =
      ReadFileToString(::testing::TempDir() + "/wave_no_such_file.spec");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(IoTest, AtomicWriteFileRoundTripsAndLeavesNoTempFile) {
  std::string path = ::testing::TempDir() + "/wave_atomic_io_test.json";
  ASSERT_TRUE(AtomicWriteFile(path, "{\"a\": 1}\n").ok());
  StatusOr<std::string> back = ReadFileToString(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "{\"a\": 1}\n");
  // The temp file must have been renamed away.
  EXPECT_FALSE(ReadFileToString(path + ".tmp").ok());
  // Overwriting replaces the whole content.
  ASSERT_TRUE(AtomicWriteFile(path, "{}").ok());
  back = ReadFileToString(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "{}");
  std::remove(path.c_str());
}

TEST(IoTest, AtomicWriteFileToMissingDirectoryFails) {
  Status s = AtomicWriteFile(
      ::testing::TempDir() + "/wave_no_such_dir/out.json", "x");
  EXPECT_FALSE(s.ok());
}

// --- spec-file loading ------------------------------------------------------

TEST(ParseSpecFileTest, MissingFileIsNotFound) {
  StatusOr<ParseResult> r = ParseSpecFile("/nonexistent/wave.spec");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ParseSpecFileTest, LoadsABundledSpec) {
  std::string path =
      std::string(WAVE_REPO_ROOT) + "/specs/e1_shopping.spec";
  StatusOr<ParseResult> r = ParseSpecFile(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->ok()) << r->ErrorText();
  EXPECT_TRUE(r->status().ok());
  EXPECT_GT(r->properties.size(), 0u);
}

// --- fuzz-ish parser corpus -------------------------------------------------
//
// Every truncation and corruption of the bundled spec files must come
// back as a ParseResult whose errors carry a "line:col:" position — the
// parser must never abort, hang, or crash on malformed input.

const std::regex& ErrorPositionRegex() {
  static const std::regex kRe("^[0-9]+:[0-9]+: .+");
  return kRe;
}

void ExpectErrorsArePositioned(const ParseResult& result,
                               const std::string& what) {
  for (const std::string& error : result.errors) {
    EXPECT_TRUE(std::regex_search(error, ErrorPositionRegex()))
        << what << ": unpositioned error: " << error;
  }
}

class SpecCorpusTest : public ::testing::TestWithParam<const char*> {
 protected:
  std::string Load() {
    std::string path =
        std::string(WAVE_REPO_ROOT) + "/specs/" + GetParam();
    StatusOr<std::string> text = ReadFileToString(path);
    EXPECT_TRUE(text.ok()) << text.status().ToString();
    return text.ok() ? *text : std::string();
  }
};

TEST_P(SpecCorpusTest, TruncationsNeverCrashAndErrorsArePositioned) {
  std::string text = Load();
  ASSERT_FALSE(text.empty());
  size_t step = std::max<size_t>(1, text.size() / 61);
  for (size_t cut = 0; cut < text.size(); cut += step) {
    std::string prefix = text.substr(0, cut);
    ParseResult r = ParseSpec(prefix);
    if (!r.ok()) {
      ExpectErrorsArePositioned(
          r, std::string(GetParam()) + " truncated at " +
                 std::to_string(cut));
    }
    // The structured view must agree with the error list.
    EXPECT_EQ(r.status().ok(), r.ok());
  }
}

TEST_P(SpecCorpusTest, CorruptionsNeverCrashAndErrorsArePositioned) {
  std::string text = Load();
  ASSERT_FALSE(text.empty());
  const char junk[] = {'\0', '}', '"', '\x7f'};
  size_t step = std::max<size_t>(1, text.size() / 37);
  for (size_t pos = 0; pos < text.size(); pos += step) {
    for (char c : junk) {
      std::string mutated = text;
      mutated[pos] = c;
      ParseResult r = ParseSpec(mutated);
      if (!r.ok()) {
        ExpectErrorsArePositioned(
            r, std::string(GetParam()) + " corrupted at " +
                   std::to_string(pos));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSpecs, SpecCorpusTest,
                         ::testing::Values("e1_shopping.spec",
                                           "e2_motogp.spec",
                                           "e3_airline.spec",
                                           "e4_bookstore.spec"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           std::string name = i.param;
                           return name.substr(0, name.find('.'));
                         });

// --- parser error quality ---------------------------------------------------

constexpr char kTinySpec[] = R"(
app tiny
database member(name)
state active()
input button(x)
home HP
page HP {
  input button
  rule button(x) <- x = "go" | x = "stay"
  state +active() <- button("go")
  target HP <- button("stay")
}
)";

TEST(ParserRobustnessTest, UnknownPageAtomInPropertyIsPositioned) {
  ParseResult spec = ParseSpec(kTinySpec);
  ASSERT_TRUE(spec.ok()) << spec.ErrorText();
  ParseResult r = ParseProperties(
      "property bad expect true { F [at NOWHERE] }", spec.spec.get());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.ErrorText().find("unknown page 'NOWHERE'"), std::string::npos)
      << r.ErrorText();
  ExpectErrorsArePositioned(r, "unknown page atom");
}

TEST(ParserRobustnessTest, PageDeclaredAfterReferenceIsAccepted) {
  // Page atoms resolve after the whole spec is read, so forward
  // references inside rules stay legal.
  std::string text = std::string(kTinySpec) +
                     "property fwd expect true { F [at HP] }\n";
  ParseResult r = ParseSpec(text);
  EXPECT_TRUE(r.ok()) << r.ErrorText();
}

TEST(ParserRobustnessTest, UnboundPropertyVariableIsReported) {
  ParseResult spec = ParseSpec(kTinySpec);
  ASSERT_TRUE(spec.ok()) << spec.ErrorText();
  ParseResult r = ParseProperties(
      "property loose expect true { F [member(n)] }", spec.spec.get());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.ErrorText().find("free variable 'n'"), std::string::npos)
      << r.ErrorText();
  ExpectErrorsArePositioned(r, "unbound property variable");
}

TEST(ParserRobustnessTest, ParseResultStatusCarriesEveryError) {
  ParseResult r = ParseSpec("app broken\npage P {\n");
  ASSERT_FALSE(r.ok());
  Status s = r.status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), r.ErrorText());
}

// --- property/spec validation (Status construction paths) -------------------

TEST(ValidateSpecTest, ValidateStatusIsOkOnAGoodSpec) {
  ParseResult r = ParseSpec(kTinySpec);
  ASSERT_TRUE(r.ok()) << r.ErrorText();
  EXPECT_TRUE(r.spec->ValidateStatus().ok());
}

TEST(ValidateSpecTest, VerifierCreateRejectsNullSpec) {
  StatusOr<std::unique_ptr<Verifier>> v = Verifier::Create(nullptr);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
}

TEST(ValidateSpecTest, VerifierCreateAcceptsAGoodSpec) {
  ParseResult r = ParseSpec(kTinySpec);
  ASSERT_TRUE(r.ok()) << r.ErrorText();
  StatusOr<std::unique_ptr<Verifier>> v = Verifier::Create(r.spec.get());
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_NE(v->get(), nullptr);
}

TEST(ValidatePropertyTest, RejectsPropertyWithNoBody) {
  ParseResult r = ParseSpec(kTinySpec);
  ASSERT_TRUE(r.ok()) << r.ErrorText();
  Property empty;
  empty.name = "empty";
  Status s = ValidatePropertyForSpec(*r.spec, empty);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("no body"), std::string::npos);
}

TEST(ValidatePropertyTest, RejectsPropertyAgainstForeignSpec) {
  // Parse properties against a spec where everything resolves, then
  // validate them against a spec missing the page and the relation —
  // the cross-spec misuse Run must catch instead of aborting.
  ParseResult home = ParseSpec(kTinySpec);
  ASSERT_TRUE(home.ok()) << home.ErrorText();
  ParseResult props = ParseProperties(
      "property page_ref expect true { F [at HP] }\n"
      "property rel_ref expect true { forall n: F [member(n)] }",
      home.spec.get());
  ASSERT_TRUE(props.ok()) << props.ErrorText();

  constexpr char kOtherSpec[] = R"(
app other
database member(a, b)
input button(x)
home Z
page Z {
  input button
  rule button(x) <- x = "z"
  target Z <- button("z")
}
)";
  ParseResult other = ParseSpec(kOtherSpec);
  ASSERT_TRUE(other.ok()) << other.ErrorText();

  Status page_status =
      ValidatePropertyForSpec(*other.spec, props.properties[0].property);
  ASSERT_FALSE(page_status.ok());
  EXPECT_NE(page_status.message().find("unknown page 'HP'"),
            std::string::npos)
      << page_status.ToString();

  // `member` exists in the other spec with arity 2, not 1.
  Status arity_status =
      ValidatePropertyForSpec(*other.spec, props.properties[1].property);
  ASSERT_FALSE(arity_status.ok());
  EXPECT_NE(arity_status.message().find("does not match declared arity"),
            std::string::npos)
      << arity_status.ToString();
}

TEST(ValidatePropertyTest, RejectsUndeclaredRelation) {
  // Built through the API: the parser rejects such an atom before any
  // property reaches validation.
  ParseResult home = ParseSpec(kTinySpec);
  ASSERT_TRUE(home.ok()) << home.ErrorText();
  Property ghost;
  ghost.name = "ghost_ref";
  ghost.body = LtlFormula::G(LtlFormula::Fo(Formula::Atom("ghost", {})));
  Status s = ValidatePropertyForSpec(*home.spec, ghost);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "property 'ghost_ref': undeclared relation 'ghost'");
}

TEST(ValidatePropertyTest, RejectsUnboundFreeVariable) {
  ParseResult home = ParseSpec(kTinySpec);
  ASSERT_TRUE(home.ok()) << home.ErrorText();
  ParseResult props = ParseProperties(
      "property bound expect true { forall n: F [member(n)] }",
      home.spec.get());
  ASSERT_TRUE(props.ok()) << props.ErrorText();
  Property loose = props.properties[0].property;
  loose.forall_vars.clear();
  Status s = ValidatePropertyForSpec(*home.spec, loose);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("free variable 'n'"), std::string::npos);
}

TEST(ValidatePropertyTest, RunReturnsStatusInsteadOfAborting) {
  ParseResult home = ParseSpec(kTinySpec);
  ASSERT_TRUE(home.ok()) << home.ErrorText();
  ParseResult props = ParseProperties(
      "property ok_prop expect true { F [at HP] }", home.spec.get());
  ASSERT_TRUE(props.ok()) << props.ErrorText();
  Verifier verifier(home.spec.get());

  VerifyRequest good_request;
  good_request.property = &props.properties[0].property;
  StatusOr<VerifyResponse> good = verifier.Run(good_request);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->verdict, Verdict::kHolds);

  Property bad = props.properties[0].property;
  bad.body = nullptr;
  VerifyRequest bad_request;
  bad_request.property = &bad;
  StatusOr<VerifyResponse> rejected = verifier.Run(bad_request);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

// --- governor units ---------------------------------------------------------
// The production ticker: a WorkerGovernor over a one-worker BudgetLedger,
// which is exactly what a jobs=1 search runs on.

TEST(GovernorTest, ZeroDeadlineTripsOnFirstTick) {
  GovernorLimits limits;
  limits.deadline_seconds = 0;
  BudgetLedger ledger(limits, 1);
  WorkerGovernor governor(&ledger, 0);
  EXPECT_EQ(governor.Tick(), UnknownReason::kTimeout);
  EXPECT_EQ(ledger.trip_reason(), UnknownReason::kTimeout);
  EXPECT_NE(ledger.trip_message().find("timeout"), std::string::npos);
  // Tripping latches: later ticks keep reporting the first reason.
  EXPECT_EQ(governor.Tick(), UnknownReason::kTimeout);
  EXPECT_TRUE(ledger.stop_requested());
}

TEST(GovernorTest, ExpansionBudgetChecksOnEveryTick) {
  GovernorLimits limits;
  limits.max_expansions = 5;
  BudgetLedger ledger(limits, 1);
  WorkerGovernor governor(&ledger, 0);
  int64_t expansions = 0;
  governor.WatchExpansions(&expansions);
  // Burn the first (polling) tick, then stay inside the budget off-stride.
  EXPECT_EQ(governor.Tick(), UnknownReason::kNone);
  for (expansions = 1; expansions < 5; ++expansions) {
    EXPECT_EQ(governor.Tick(), UnknownReason::kNone) << expansions;
  }
  static_assert(BudgetLedger::kPollStride > 5,
                "the trip below must land off-stride");
  // The budget check must not wait for a stride boundary, and with one
  // worker it is exact: the trip flushes all five expansions.
  EXPECT_EQ(governor.Tick(), UnknownReason::kExpansionBudget);
  EXPECT_EQ(ledger.expansions(), 5);
  EXPECT_NE(ledger.trip_message().find("budget"), std::string::npos);
}

TEST(GovernorTest, WorkTicksPollOnTheirOwnStrideAndSpendNoExpansions) {
  GovernorLimits limits;
  limits.max_expansions = 0;  // already spent
  limits.max_memory_bytes = 1000;
  BudgetLedger ledger(limits, 1);
  WorkerGovernor governor(&ledger, 0);
  int64_t expansions = 0;
  governor.WatchExpansions(&expansions);
  // Work between expansions never trips the expansion budget: ticks 0,
  // 16, 32 and 48 poll and find nothing over.
  for (int i = 0; i <= 3 * BudgetLedger::kPollStride; ++i) {
    EXPECT_EQ(governor.TickWork(), UnknownReason::kNone) << i;
  }
  EXPECT_EQ(ledger.readings().polls, 4);
  // The memory ceiling lands at the next stride boundary, tick 64.
  governor.ReportMemory(1500);
  for (int i = 1; i < BudgetLedger::kPollStride; ++i) {
    EXPECT_EQ(governor.TickWork(), UnknownReason::kNone) << i;
  }
  EXPECT_EQ(governor.TickWork(), UnknownReason::kMemoryLimit);
  EXPECT_EQ(ledger.readings().polls, 5);
}

TEST(GovernorTest, CancellationObservedWithinOneTick) {
  CancellationToken token;
  GovernorLimits limits;
  limits.cancellation = &token;
  BudgetLedger ledger(limits, 1);
  WorkerGovernor governor(&ledger, 0);
  EXPECT_EQ(governor.Tick(), UnknownReason::kNone);
  token.Cancel();
  EXPECT_EQ(governor.Tick(), UnknownReason::kCancelled);
  token.Reset();
  EXPECT_FALSE(token.cancelled());
  // Already tripped — reset does not un-trip the ledger.
  EXPECT_EQ(ledger.trip_reason(), UnknownReason::kCancelled);
  EXPECT_EQ(governor.Tick(), UnknownReason::kCancelled);
}

TEST(GovernorTest, MemoryCeilingTripsOnPoll) {
  GovernorLimits limits;
  limits.max_memory_bytes = 1000;
  BudgetLedger ledger(limits, 1);
  WorkerGovernor governor(&ledger, 0);
  // The worker's estimate reaches the ledger at its polls.
  governor.ReportMemory(500);
  EXPECT_EQ(governor.Poll(), UnknownReason::kNone);
  governor.ReportMemory(900);
  EXPECT_EQ(governor.Poll(), UnknownReason::kNone);
  governor.ReportMemory(700);
  EXPECT_EQ(governor.Poll(), UnknownReason::kNone)
      << "current estimate is below the ceiling";
  GovernorReadings readings = ledger.readings();
  EXPECT_EQ(readings.memory_bytes, 700);
  EXPECT_EQ(readings.peak_memory_bytes, 900)
      << "peak stays at the high-water mark";
  governor.ReportMemory(1500);
  EXPECT_EQ(governor.Poll(), UnknownReason::kMemoryLimit);
  readings = ledger.readings();
  EXPECT_EQ(readings.memory_bytes, 1500);
  EXPECT_EQ(readings.peak_memory_bytes, 1500);
  EXPECT_EQ(readings.polls, 4);
  EXPECT_NE(ledger.trip_message().find("memory"), std::string::npos);
}

TEST(GovernorTest, ReasonNamesAndStatusMapping) {
  EXPECT_STREQ(UnknownReasonName(UnknownReason::kNone), "none");
  EXPECT_STREQ(UnknownReasonName(UnknownReason::kTimeout), "timeout");
  EXPECT_STREQ(UnknownReasonName(UnknownReason::kMemoryLimit),
               "memory_limit");
  EXPECT_STREQ(UnknownReasonName(UnknownReason::kCandidateBudget),
               "candidate_budget");
  EXPECT_STREQ(UnknownReasonName(UnknownReason::kExpansionBudget),
               "expansion_budget");
  EXPECT_STREQ(UnknownReasonName(UnknownReason::kCancelled), "cancelled");
  EXPECT_STREQ(UnknownReasonName(UnknownReason::kRejectedCandidates),
               "rejected_candidates");

  EXPECT_TRUE(IsBudgetLimited(UnknownReason::kCandidateBudget));
  EXPECT_TRUE(IsBudgetLimited(UnknownReason::kExpansionBudget));
  EXPECT_FALSE(IsBudgetLimited(UnknownReason::kTimeout));
  EXPECT_FALSE(IsBudgetLimited(UnknownReason::kMemoryLimit));
  EXPECT_FALSE(IsBudgetLimited(UnknownReason::kCancelled));
  EXPECT_FALSE(IsBudgetLimited(UnknownReason::kNone));

  EXPECT_EQ(UnknownReasonToStatus(UnknownReason::kNone, "").code(),
            StatusCode::kOk);
  EXPECT_EQ(UnknownReasonToStatus(UnknownReason::kTimeout, "t").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(UnknownReasonToStatus(UnknownReason::kCancelled, "c").code(),
            StatusCode::kCancelled);
  EXPECT_EQ(
      UnknownReasonToStatus(UnknownReason::kCandidateBudget, "b").code(),
      StatusCode::kResourceExhausted);
}

// --- configuration-store memory accounting ---------------------------------

TEST(TrieMemoryTest, ApproxBytesGrowsWithInsertsAndResetsOnClear) {
  Catalog catalog;
  catalog.Declare({"R", 1, RelationKind::kDatabase, {}});
  ConfigStore store;
  store.Reset(&catalog, /*num_states=*/2, /*num_components=*/1);
  int64_t baseline = store.approx_bytes();
  EXPECT_GT(baseline, 0);
  int64_t previous = baseline;
  Configuration config;
  config.data = Instance(&catalog);
  config.previous = Instance(&catalog);
  ConfigWords words;
  for (SymbolId i = 0; i < 32; ++i) {  // 32 configurations: the table grows
    config.data.relation(0).Insert({i});
    words = store.Pack(config);  // one new tuple: the tuple table grows
    EXPECT_GT(store.approx_bytes(), previous);
    previous = store.approx_bytes();
    ConfigId id = store.Intern(words);
    EXPECT_GT(store.approx_bytes(), previous);
    previous = store.approx_bytes();
    store.Insert(0, 1, id);  // the bits came with the id: no growth
    EXPECT_EQ(store.approx_bytes(), previous);
  }
  store.Intern(store.Pack(config));  // already interned: no growth
  EXPECT_EQ(store.approx_bytes(), previous);
  // The skeleton table counts per new key, and the lists per id.
  SkeletonId s = store.InternSkeleton(/*prev_page=*/0, words);
  EXPECT_GT(store.approx_bytes(), previous);
  previous = store.approx_bytes();
  store.InternSkeleton(0, words);  // already interned: no growth
  EXPECT_EQ(store.approx_bytes(), previous);
  SuccessorRange range = store.SetSkeletonSuccessors(s, {1, 2, 3});
  EXPECT_EQ(store.approx_bytes(),
            previous + static_cast<int64_t>(3 * sizeof(ConfigId)));
  previous = store.approx_bytes();
  store.SetSuccessors(0, range);  // shares the skeleton's list: no growth
  EXPECT_EQ(store.approx_bytes(), previous);
  for (int prev_page = 1; prev_page <= 32; ++prev_page) {  // table grows
    store.InternSkeleton(prev_page, words);
    EXPECT_GT(store.approx_bytes(), previous);
    previous = store.approx_bytes();
  }
  store.Reset(&catalog, 2, 1);
  EXPECT_EQ(store.approx_bytes(), baseline);
}

// --- every UnknownReason, end to end ----------------------------------------

TEST(UnknownReasonE2eTest, DecidedResultsCarryNoReason) {
  AppBundle e1 = BuildE1();
  Verifier verifier(e1.spec.get());
  const Property* p1 = FindProperty(e1, "P1");
  ASSERT_NE(p1, nullptr);
  VerifyResult r = RunVerify(verifier, *p1);
  ASSERT_EQ(r.verdict, Verdict::kHolds) << r.failure_reason;
  EXPECT_EQ(r.unknown_reason, UnknownReason::kNone);
  EXPECT_GT(r.stats.peak_memory_bytes, 0);
  EXPECT_GT(r.stats.governor_polls, 0);
}

TEST(UnknownReasonE2eTest, TimeoutReason) {
  AppBundle e1 = BuildE1();
  Verifier verifier(e1.spec.get());
  VerifyOptions options;
  options.timeout_seconds = 0;
  VerifyResult r =
      RunVerify(verifier, e1.properties[0].property, options);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(r.unknown_reason, UnknownReason::kTimeout);
}

TEST(UnknownReasonE2eTest, DeadlineGranularityIsMilliseconds) {
  // A 50ms deadline on a property whose full (exhaustive) search runs for
  // tens of seconds must come back within a comfortable fraction of a
  // second: the strided governor poll may lag the deadline only by
  // kPollStride expansions.
  AppBundle e1 = BuildE1();
  Verifier verifier(e1.spec.get());
  const Property* p5 = FindProperty(e1, "P5");
  ASSERT_NE(p5, nullptr);
  VerifyOptions options;
  options.exhaustive_existential = true;
  options.timeout_seconds = 0.05;
  auto start = std::chrono::steady_clock::now();
  VerifyResult r = RunVerify(verifier, *p5, options);
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(r.unknown_reason, UnknownReason::kTimeout);
  EXPECT_LT(elapsed, 1.0) << "deadline overshot: " << elapsed << "s";
}

/// E1's spec with one property `deep`: `G` nested `depth` times around
/// [at HP], or a chain of `depth` `U` (the parser nests it to the left)
/// over [at CP] and [at HP]. 998 is the parser's depth limit.
std::string DeepTemporalSpec(const std::string& shape, int depth = 998) {
  StatusOr<std::string> e1 =
      ReadFileToString(std::string(WAVE_REPO_ROOT) + "/specs/e1_shopping.spec");
  WAVE_CHECK_MSG(e1.ok(), e1.status().ToString());
  std::string text = e1->substr(0, e1->find("\nproperty ")) +
                     "\nproperty deep {\n";
  if (shape == "G") {
    for (int i = 0; i < depth; ++i) text += "G ";
    text += "[at HP]";
  } else {
    text += "[at HP]";
    for (int i = 0; i < depth; ++i) text += " U [at CP]";
  }
  return text + "\n}\n";
}

TEST(UnknownReasonE2eTest, DeadlineStopsTheBuchiTranslation) {
  // Each of these formulas keeps GPVW busy for more than a minute; the
  // translation polls the attempt's deadline, so a one-second budget
  // answers unknown/timeout in about a second (within half a second of
  // the deadline: the stop frees a few flat arrays, not a node per
  // allocation), and the stopped translation is not memoized: a second,
  // shorter attempt stops the same way.
  for (const char* shape : {"G", "U"}) {
    SCOPED_TRACE(shape);
    ParseResult parsed = ParseSpec(DeepTemporalSpec(shape));
    ASSERT_TRUE(parsed.ok()) << parsed.ErrorText();
    ASSERT_EQ(parsed.properties.size(), 1u);
    Verifier verifier(parsed.spec.get());
    for (int attempt = 0; attempt < 2; ++attempt) {
      VerifyOptions options;
      options.timeout_seconds = attempt == 0 ? 1.0 : 0.2;
      auto start = std::chrono::steady_clock::now();
      VerifyResult r =
          RunVerify(verifier, parsed.properties[0].property, options);
      double elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
      EXPECT_EQ(r.verdict, Verdict::kUnknown);
      EXPECT_EQ(r.unknown_reason, UnknownReason::kTimeout)
          << r.failure_reason;
      EXPECT_LT(elapsed, options.timeout_seconds + 0.5)
          << "attempt " << attempt;
      const SessionStats& session = verifier.session().stats();
      EXPECT_EQ(session.plan_builds, attempt + 1)
          << "a stopped translation leaves no plan behind";
      EXPECT_EQ(session.gpvw_misses, attempt + 1);
      EXPECT_EQ(session.gpvw_hits, 0);
    }
  }
}

TEST(UnknownReasonE2eTest, MemoryCeilingStopsTheBuchiTranslation) {
  // The translation reports its arrays' bytes to the ledger: `G` nested
  // 998 deep grows its tableau past a 64 MiB ceiling within a fraction of
  // its 30 s deadline, and answers unknown/memory_limit; nothing is
  // memoized, so a second attempt translates again.
  ParseResult parsed = ParseSpec(DeepTemporalSpec("G"));
  ASSERT_TRUE(parsed.ok()) << parsed.ErrorText();
  Verifier verifier(parsed.spec.get());
  constexpr int64_t kCeiling = int64_t{64} << 20;
  for (int attempt = 0; attempt < 2; ++attempt) {
    VerifyOptions options;
    options.timeout_seconds = 30;
    options.max_memory_bytes = kCeiling;
    auto start = std::chrono::steady_clock::now();
    VerifyResult r =
        RunVerify(verifier, parsed.properties[0].property, options);
    double elapsed = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    EXPECT_EQ(r.verdict, Verdict::kUnknown);
    EXPECT_EQ(r.unknown_reason, UnknownReason::kMemoryLimit)
        << r.failure_reason;
    EXPECT_GT(r.stats.peak_memory_bytes, kCeiling);
    EXPECT_LT(elapsed, 10.0) << "attempt " << attempt;
    EXPECT_EQ(verifier.session().stats().gpvw_misses, attempt + 1);
    EXPECT_EQ(verifier.session().stats().gpvw_hits, 0);
  }
}

TEST(UnknownReasonE2eTest, TheSizeCapStopsTheBuchiTranslation) {
  // `G` nested 210 deep: its tableau completes in well under a second,
  // but degeneralized it would pass kMaxDegeneralizedStates, so with no
  // memory ceiling set the attempt answers unknown/memory_limit without
  // building it, and memoizes nothing.
  ParseResult parsed = ParseSpec(DeepTemporalSpec("G", 210));
  ASSERT_TRUE(parsed.ok()) << parsed.ErrorText();
  Verifier verifier(parsed.spec.get());
  for (int attempt = 0; attempt < 2; ++attempt) {
    VerifyResult r = RunVerify(verifier, parsed.properties[0].property, {});
    EXPECT_EQ(r.verdict, Verdict::kUnknown);
    EXPECT_EQ(r.unknown_reason, UnknownReason::kMemoryLimit);
    EXPECT_NE(r.failure_reason.find("too large"), std::string::npos)
        << r.failure_reason;
    EXPECT_EQ(r.stats.num_expansions, 0);
    EXPECT_EQ(verifier.session().stats().plan_builds, attempt + 1);
    EXPECT_EQ(verifier.session().stats().gpvw_misses, attempt + 1);
  }
}

TEST(UnknownReasonE2eTest, TheSizeCapLeavesTheRestOfABatchDecided) {
  // A property past the size cap is unknown on its own: the ledger the
  // batch shares stays untripped, so E1's properties, translated before
  // and after it, all get their expected verdicts.
  StatusOr<std::string> e1 =
      ReadFileToString(std::string(WAVE_REPO_ROOT) + "/specs/e1_shopping.spec");
  ASSERT_TRUE(e1.ok()) << e1.status().ToString();
  const std::string deep = DeepTemporalSpec("G", 210);
  ParseResult parsed =
      ParseSpec(*e1 + deep.substr(deep.find("\nproperty deep")));
  ASSERT_TRUE(parsed.ok()) << parsed.ErrorText();
  std::vector<Property> catalog;
  for (const ParsedProperty& p : parsed.properties) {
    catalog.push_back(p.property);
  }
  const int deep_index = static_cast<int>(catalog.size()) - 1;
  ASSERT_EQ(catalog[deep_index].name, "deep");
  BatchRequest request;
  request.properties = &catalog;
  for (int i = 0; i < deep_index; ++i) {
    if (i == deep_index / 2) request.property_indices.push_back(deep_index);
    request.property_indices.push_back(i);
  }
  Verifier verifier(parsed.spec.get());
  StatusOr<BatchResponse> batch = verifier.RunBatch(request);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->responses.size(), catalog.size());
  for (size_t k = 0; k < request.property_indices.size(); ++k) {
    const int i = request.property_indices[k];
    const VerifyResponse& r = batch->responses[k];
    SCOPED_TRACE(catalog[i].name);
    if (i == deep_index) {
      EXPECT_EQ(r.verdict, Verdict::kUnknown);
      EXPECT_EQ(r.unknown_reason, UnknownReason::kMemoryLimit);
      EXPECT_NE(r.failure_reason.find("too large"), std::string::npos)
          << r.failure_reason;
      continue;
    }
    ASSERT_TRUE(parsed.properties[i].has_expected);
    EXPECT_EQ(r.verdict, parsed.properties[i].expected ? Verdict::kHolds
                                                       : Verdict::kViolated)
        << r.failure_reason;
  }
}

TEST(UnknownReasonE2eTest, ExpansionBudgetReason) {
  AppBundle e1 = BuildE1();
  Verifier verifier(e1.spec.get());
  VerifyOptions options;
  options.max_expansions = 1;
  VerifyResult r =
      RunVerify(verifier, e1.properties[0].property, options);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(r.unknown_reason, UnknownReason::kExpansionBudget);
  EXPECT_NE(r.failure_reason.find("budget"), std::string::npos);
}

TEST(UnknownReasonE2eTest, CandidateBudgetReason) {
  AppBundle e1 = BuildE1();
  Verifier verifier(e1.spec.get());
  const Property* p1 = FindProperty(e1, "P1");
  ASSERT_NE(p1, nullptr);
  VerifyOptions options;
  // P1 needs one distinct candidate tuple at page HP (the ten
  // instantiations of its atoms coincide).
  options.max_candidates = 0;
  VerifyResult r = RunVerify(verifier, *p1, options);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(r.unknown_reason, UnknownReason::kCandidateBudget);
}

TEST(UnknownReasonE2eTest, MemoryLimitReason) {
  AppBundle e1 = BuildE1();
  Verifier verifier(e1.spec.get());
  const Property* p1 = FindProperty(e1, "P1");
  ASSERT_NE(p1, nullptr);
  VerifyOptions options;
  options.max_memory_bytes = 1024;  // below one search's visited-set size
  VerifyResult r = RunVerify(verifier, *p1, options);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(r.unknown_reason, UnknownReason::kMemoryLimit);
  EXPECT_NE(r.failure_reason.find("memory"), std::string::npos);
  EXPECT_GT(r.stats.peak_memory_bytes, 1024);
}

TEST(UnknownReasonE2eTest, PreCancelledTokenShortCircuits) {
  AppBundle e1 = BuildE1();
  Verifier verifier(e1.spec.get());
  CancellationToken token;
  token.Cancel();
  VerifyOptions options;
  options.cancellation = &token;
  VerifyResult r =
      RunVerify(verifier, e1.properties[0].property, options);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(r.unknown_reason, UnknownReason::kCancelled);
}

TEST(UnknownReasonE2eTest, MidSearchCancellationKeepsPartialStats) {
  // Cancel from inside the search (via the heartbeat callback, the same
  // vantage point a watchdog thread or signal handler has) and check the
  // result still carries the progress made so far.
  AppBundle e1 = BuildE1();
  Verifier verifier(e1.spec.get());
  const Property* p5 = FindProperty(e1, "P5");
  ASSERT_NE(p5, nullptr);
  CancellationToken token;
  VerifyOptions options;
  options.exhaustive_existential = true;  // P5's search then runs for tens
                                          // of seconds uncancelled
  options.cancellation = &token;
  options.heartbeat_interval_seconds = 0;  // fire on every budget check
  options.heartbeat = [&token](const HeartbeatSnapshot& hb) {
    if (hb.num_expansions >= 200) token.Cancel();
  };
  VerifyResult r = RunVerify(verifier, *p5, options);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(r.unknown_reason, UnknownReason::kCancelled);
  EXPECT_NE(r.failure_reason.find("cancelled"), std::string::npos);
  EXPECT_GE(r.stats.num_expansions, 200);
  EXPECT_GT(r.stats.peak_memory_bytes, 0);
}

// One page whose action rule reads 18 database relations at the value of
// its input constant: the extension has 18 candidate tuples, so completing
// the start skeleton interns 2^18 × 2 configurations (every extension,
// with and without the input) before the search expands any of them.
// Uncapped, that takes seconds and tens of megabytes.
constexpr int64_t kStartCompletions = int64_t{1} << 19;

std::string WideExtensionSpec(int relations = 18) {
  std::string declarations;
  std::string atoms;
  for (int i = 1; i <= relations; ++i) {
    declarations += "database d" + std::to_string(i) + "(a)\n";
    atoms += " & d" + std::to_string(i) + "(x)";
  }
  return "app wide\n" + declarations +
         "inputconst u\naction hit()\nhome A\npage A {\n  input u\n"
         "  action hit() <- exists x: u(x)" + atoms +
         "\n}\nproperty home { G [at A] }\n";
}

VerifyOptions WideExtensionOptions() {
  VerifyOptions options;
  options.max_candidates = 40;  // 18 distinct candidates
  return options;
}

TEST(UnknownReasonE2eTest, DeadlineLandsWhileASkeletonIsCompleted) {
  ParseResult parsed = ParseSpec(WideExtensionSpec());
  ASSERT_TRUE(parsed.ok()) << parsed.ErrorText();
  Verifier verifier(parsed.spec.get());
  for (int jobs : {1, 4}) {
    obs::MetricsRegistry metrics;
    VerifyOptions options = WideExtensionOptions();
    options.timeout_seconds = 0.05;
    options.metrics = &metrics;
    auto start = std::chrono::steady_clock::now();
    VerifyResult r =
        RunVerify(verifier, parsed.properties[0].property, options, jobs);
    double elapsed = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    EXPECT_EQ(r.verdict, Verdict::kUnknown) << "jobs=" << jobs;
    EXPECT_EQ(r.unknown_reason, UnknownReason::kTimeout) << "jobs=" << jobs;
    EXPECT_EQ(r.stats.num_expansions, 0) << "jobs=" << jobs;
    EXPECT_LT(metrics.counter("prepared.apply_input_calls")->value(),
              kStartCompletions)
        << "jobs=" << jobs;
    EXPECT_LT(elapsed, 1.0) << "jobs=" << jobs << ": deadline overshot by "
                            << elapsed << "s";
  }
}

TEST(UnknownReasonE2eTest, MemoryCeilingLandsWhileASkeletonIsCompleted) {
  ParseResult parsed = ParseSpec(WideExtensionSpec());
  ASSERT_TRUE(parsed.ok()) << parsed.ErrorText();
  Verifier verifier(parsed.spec.get());
  constexpr int64_t kCeiling = 64 << 10;
  obs::MetricsRegistry metrics;
  VerifyOptions options = WideExtensionOptions();
  options.max_memory_bytes = kCeiling;
  options.metrics = &metrics;
  VerifyResult r = RunVerify(verifier, parsed.properties[0].property, options);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(r.unknown_reason, UnknownReason::kMemoryLimit);
  EXPECT_EQ(r.stats.num_expansions, 0);
  EXPECT_LT(metrics.counter("prepared.apply_input_calls")->value(),
            kStartCompletions);
  // Polled every 16 completions, the estimate passes the ceiling by at
  // most one doubling of the key table.
  EXPECT_GT(r.stats.peak_memory_bytes, kCeiling);
  EXPECT_LT(r.stats.peak_memory_bytes, 4 * kCeiling);
}

TEST(UnknownReasonE2eTest, CancellationLandsWhileASkeletonIsCompleted) {
  ParseResult parsed = ParseSpec(WideExtensionSpec());
  ASSERT_TRUE(parsed.ok()) << parsed.ErrorText();
  Verifier verifier(parsed.spec.get());
  CancellationToken token;
  VerifyOptions options = WideExtensionOptions();
  options.cancellation = &token;
  options.heartbeat_interval_seconds = 0;  // fire on every budget check
  int64_t heartbeats = 0;
  options.heartbeat = [&](const HeartbeatSnapshot&) {
    if (++heartbeats == 100) token.Cancel();
  };
  VerifyResult r = RunVerify(verifier, parsed.properties[0].property, options);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(r.unknown_reason, UnknownReason::kCancelled);
  EXPECT_EQ(r.stats.num_expansions, 0);
  EXPECT_EQ(heartbeats, 100);
}

// --- deep searches and the candidate budget ---------------------------------

/// Runs `fn` on a fresh thread with a `stack_bytes` stack and waits for it.
void RunOnStack(size_t stack_bytes, const std::function<void()>& fn) {
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, stack_bytes), 0);
  pthread_t thread;
  auto trampoline = [](void* arg) -> void* {
    (*static_cast<const std::function<void()>*>(arg))();
    return nullptr;
  };
  ASSERT_EQ(pthread_create(&thread, &attr, trampoline,
                           const_cast<std::function<void()>*>(&fn)),
            0);
  pthread_join(thread, nullptr);
  pthread_attr_destroy(&attr);
}

/// tests/data/deep_chain.spec: 11 database relations read at one input
/// constant's value, so the search is a single chain of 2^12
/// configurations.
ParseResult DeepChainSpec() {
  StatusOr<ParseResult> parsed = ParseSpecFile(std::string(WAVE_REPO_ROOT) +
                                               "/tests/data/deep_chain.spec");
  WAVE_CHECK_MSG(parsed.ok(), parsed.status().ToString());
  WAVE_CHECK_MSG(parsed->ok(), parsed->ErrorText());
  return std::move(*parsed);
}

TEST(DeepSearchTest, LongChainHoldsOnASmallThreadStack) {
  // The NDFS keeps its frames on explicit stacks, so the pseudorun's
  // length does not grow the thread's stack: a recursive search died with
  // SIGSEGV here on a 256 KiB thread (it held up to depth 512).
  ParseResult parsed = DeepChainSpec();
  Verifier verifier(parsed.spec.get());
  VerifyResult r;
  RunOnStack(256 << 10, [&] {
    r = RunVerify(verifier, parsed.properties[0].property,
                  WideExtensionOptions());
  });
  EXPECT_EQ(r.verdict, Verdict::kHolds) << r.failure_reason;
  EXPECT_GE(r.stats.max_pseudorun_length, 4096);
}

TEST(DeepSearchTest, ElevenDistinctCandidatesFitTheDefaultBudget) {
  // The budget counts distinct tuples: each of the 11 atoms' fresh and
  // constant instantiations coincide, so 11 count, not 22, against the
  // default budget of 20.
  ParseResult parsed = DeepChainSpec();
  Verifier verifier(parsed.spec.get());
  VerifyResult r = RunVerify(verifier, parsed.properties[0].property);
  EXPECT_EQ(r.verdict, Verdict::kHolds) << r.failure_reason;
  EXPECT_EQ(r.stats.max_pseudorun_length, 4096);
}

TEST(DeepSearchTest, TwentyOneDistinctCandidatesStillOverflow) {
  ParseResult parsed = ParseSpec(WideExtensionSpec(21));
  ASSERT_TRUE(parsed.ok()) << parsed.ErrorText();
  Verifier verifier(parsed.spec.get());
  VerifyResult r = RunVerify(verifier, parsed.properties[0].property);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(r.unknown_reason, UnknownReason::kCandidateBudget);
  EXPECT_EQ(r.stats.num_expansions, 0);
}

// The non-input-bounded promo site (see tests/validate_test.cc): on
// `shut`, every candidate counterexample the deterministic search
// produces mixes inconsistent promo assumptions, so the validated loop
// rejects all of them and must downgrade its exhausted search honestly.
constexpr char kPromoSiteSpec[] = R"(
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
property shut expect false { G [!(at VP)] }
)";

TEST(UnknownReasonE2eTest, RejectedCandidatesReason) {
  ParseResult parsed = ParseSpec(kPromoSiteSpec);
  ASSERT_TRUE(parsed.ok()) << parsed.ErrorText();
  EXPECT_FALSE(parsed.spec->CheckInputBoundedness().empty())
      << "the spec must be non-input-bounded for spurious candidates";
  Verifier verifier(parsed.spec.get());
  VerifyResult r = VerifyValidated(&verifier, parsed.spec.get(),
                                   parsed.properties[0].property);
  ASSERT_EQ(r.verdict, Verdict::kUnknown) << r.failure_reason;
  EXPECT_EQ(r.unknown_reason, UnknownReason::kRejectedCandidates);
  EXPECT_GT(r.stats.num_rejected_candidates, 0);
}

// --- retry ladder -----------------------------------------------------------

TEST(RetryLadderTest, DefaultLadderEscalates) {
  VerifyOptions base;
  base.max_candidates = 20;
  std::vector<RetryRung> ladder = DefaultLadder(base);
  ASSERT_EQ(ladder.size(), 3u);
  EXPECT_EQ(ladder[0].name, "tight");
  EXPECT_EQ(ladder[1].name, "base");
  EXPECT_EQ(ladder[2].name, "exhaustive");
  EXPECT_LT(ladder[0].max_candidates, ladder[1].max_candidates);
  EXPECT_LT(ladder[1].max_candidates, ladder[2].max_candidates);
  EXPECT_GE(ladder[0].max_expansions, 0)
      << "the tight rung must cap expansions";
  EXPECT_EQ(ladder[2].max_expansions, -1);
  EXPECT_FALSE(ladder[0].exhaustive_existential);
  EXPECT_TRUE(ladder[2].exhaustive_existential);
}

TEST(RetryLadderTest, DefaultLadderStopsAtTheCandidateCap) {
  VerifyOptions base;
  base.max_candidates = 20;
  EXPECT_EQ(DefaultLadder(base).back().max_candidates, 40);
  // Doubling never passes the cap, nor overflows on a base past it.
  for (int budget : {31, 40, kMaxCandidatesLimit,
                     std::numeric_limits<int>::max()}) {
    base.max_candidates = budget;
    std::vector<RetryRung> ladder = DefaultLadder(base);
    ASSERT_EQ(ladder.back().name, "exhaustive") << budget;
    EXPECT_EQ(ladder.back().max_candidates, kMaxCandidatesLimit) << budget;
  }
}

TEST(CandidateBudgetTest, RunAndRunBatchRejectBudgetsOutsideTheCap) {
  AppBundle e1 = BuildE1();
  Verifier verifier(e1.spec.get());
  const std::vector<Property> catalog = CatalogOf(e1);
  VerifyRequest request;
  request.property = &catalog[0];
  for (int budget : {-1, kMaxCandidatesLimit + 1,
                     std::numeric_limits<int>::max()}) {
    request.options.max_candidates = budget;
    request.retry.enabled = true;
    StatusOr<VerifyResponse> response = verifier.Run(request);
    ASSERT_FALSE(response.ok()) << budget;
    EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
  }
  request.options.max_candidates = kMaxCandidatesLimit;
  EXPECT_TRUE(verifier.Run(request).ok());

  // One rung past the cap fails the whole batch before any search.
  BatchRequest batch;
  batch.properties = &catalog;
  batch.retry.enabled = true;
  RetryRung wide;
  wide.name = "wide";
  wide.max_candidates = kMaxCandidatesLimit + 1;
  batch.retry.ladder = {RetryRung{}, wide};
  StatusOr<BatchResponse> response = verifier.RunBatch(batch);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(response.status().message().find("'wide'"), std::string::npos)
      << response.status().message();
}

TEST(RetryLadderTest, FlipsACandidateBudgetUnknownToDecided) {
  // A property that is kUnknown under the base budgets must come back
  // decided through the ladder. With six relations the wide page has six
  // distinct extension candidates: the tight (4) and base (5) rungs
  // overflow the candidate budget, and the exhaustive rung doubles it.
  ParseResult parsed = ParseSpec(WideExtensionSpec(6));
  ASSERT_TRUE(parsed.ok()) << parsed.ErrorText();
  Verifier verifier(parsed.spec.get());
  const Property* p1 = &parsed.properties[0].property;
  VerifyOptions base;
  base.max_candidates = 5;

  VerifyResult plain = RunVerify(verifier, *p1, base);
  ASSERT_EQ(plain.verdict, Verdict::kUnknown);
  ASSERT_EQ(plain.unknown_reason, UnknownReason::kCandidateBudget);

  VerifyRequest request;
  request.property = p1;
  request.options = base;
  request.retry.enabled = true;
  StatusOr<VerifyResponse> response = verifier.Run(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const VerifyResponse& laddered = *response;
  EXPECT_EQ(laddered.verdict, Verdict::kHolds) << laddered.failure_reason;
  ASSERT_GE(laddered.decided_rung, 0);
  ASSERT_EQ(laddered.attempts.size(),
            static_cast<size_t>(laddered.decided_rung) + 1);
  // Every attempt before the deciding one failed for a budget-limited
  // reason — that is the only thing escalation is allowed to cure.
  for (int k = 0; k < laddered.decided_rung; ++k) {
    EXPECT_EQ(laddered.attempts[k].verdict, Verdict::kUnknown);
    EXPECT_TRUE(IsBudgetLimited(laddered.attempts[k].unknown_reason))
        << UnknownReasonName(laddered.attempts[k].unknown_reason);
  }
  const AttemptRecord& last = laddered.attempts.back();
  EXPECT_EQ(last.verdict, Verdict::kHolds);
  EXPECT_GT(last.budget_seconds, 0);
  // The attempt history serialises through the wire codec (what
  // --stats-json writes and the daemon sends) and reads back.
  obs::Json json = api::AttemptsToJson(laddered.attempts);
  ASSERT_EQ(json.size(), laddered.attempts.size());
  for (size_t k = 0; k < laddered.attempts.size(); ++k) {
    StatusOr<AttemptRecord> back = api::AttemptFromJson(json.items()[k]);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->rung_name, laddered.attempts[k].rung_name);
    EXPECT_EQ(back->verdict, laddered.attempts[k].verdict);
    EXPECT_EQ(back->stats.num_expansions,
              laddered.attempts[k].stats.num_expansions);
  }
}

TEST(RetryLadderTest, NonBudgetReasonsEndTheLadder) {
  AppBundle e1 = BuildE1();
  Verifier verifier(e1.spec.get());
  const Property* p5 = FindProperty(e1, "P5");
  ASSERT_NE(p5, nullptr);
  VerifyOptions base;
  base.exhaustive_existential = true;
  VerifyRequest request;
  request.property = p5;
  request.options = base;
  request.retry.enabled = true;
  request.retry.total_budget_seconds = 0.3;
  // The first rung's slice is a third of the budget, and only that rung
  // builds the property plan (later rungs reuse it). Stalling the build
  // past the slice times the first rung out however fast the search is,
  // and leaves budget for the rungs after it.
  fault::Rule stall;
  stall.site = "session.plan.build";
  stall.kind = fault::Kind::kDelay;
  stall.delay_seconds = 0.15;
  fault::Plan plan;
  plan.rules.push_back(stall);
  fault::ScopedPlan armed(std::move(plan));
  StatusOr<VerifyResponse> response = verifier.Run(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->verdict, Verdict::kUnknown);
  EXPECT_EQ(response->decided_rung, -1);
  ASSERT_FALSE(response->attempts.empty());
  EXPECT_EQ(response->attempts.back().unknown_reason, UnknownReason::kTimeout);
  EXPECT_LT(response->attempts.size(), 3u)
      << "a timeout must stop the ladder before the last rung";
}

// A pre-cancelled token must end the ladder after a single attempt —
// more candidate budget cannot cure cancellation.
TEST(RetryLadderTest, CancellationEndsTheLadder) {
  AppBundle e1 = BuildE1();
  Verifier verifier(e1.spec.get());
  CancellationToken token;
  token.Cancel();
  VerifyRequest request;
  request.property = &e1.properties[0].property;
  request.options.cancellation = &token;
  request.retry.enabled = true;
  StatusOr<VerifyResponse> response = verifier.Run(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->verdict, Verdict::kUnknown);
  EXPECT_EQ(response->unknown_reason, UnknownReason::kCancelled);
  EXPECT_EQ(response->attempts.size(), 1u);
}

}  // namespace
}  // namespace wave
