// Wire-schema tests (ISSUE 9): the api/wire.h JSON layer that
// wave_serve, wave_verify --request and future frontends all speak.
//
// What is pinned here:
//   * golden-file round-trips — the canonical serialized form of a
//     request / batch request / options / stats / response / batch
//     response document is frozen in
//     tests/golden/api_wire/*.json; serializing the in-process value
//     must reproduce the file BYTE FOR BYTE (regenerate deliberately
//     when the schema version is bumped, never by accident);
//   * the schema_version policy — absent reads as 1, [1, kSchemaVersion]
//     accepted, newer is a typed InvalidArgument;
//   * unknown-field tolerance everywhere (forward compatibility);
//   * malformed input surfaces as a typed Status, never a crash;
//   * parse∘serialize is the identity on canonical documents, and
//     serialize∘parse is the identity on values (byte-stability).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "api/wire.h"
#include "apps/apps.h"
#include "common/io.h"
#include "common/status.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "verifier/verifier.h"

#include "verify_helpers.h"

namespace wave {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(WAVE_REPO_ROOT) + "/tests/golden/api_wire/" + name;
}

std::string ReadGolden(const std::string& name) {
  StatusOr<std::string> text = ReadFileToString(GoldenPath(name));
  EXPECT_TRUE(text.ok()) << text.status().ToString();
  return text.ok() ? *text : std::string();
}

/// Rewrites the golden file when WAVE_REGOLD is set in the environment —
/// the deliberate way to move a frozen form after a schema bump. Returns
/// true when it regenerated (the comparison should then be skipped).
bool MaybeRegold(const std::string& name, const std::string& bytes) {
  if (std::getenv("WAVE_REGOLD") == nullptr) return false;
  Status written = AtomicWriteFile(GoldenPath(name), bytes);
  EXPECT_TRUE(written.ok()) << written.ToString();
  return true;
}

obs::Json MustParse(const std::string& text) {
  std::string error;
  std::optional<obs::Json> doc = obs::Json::Parse(text, &error);
  EXPECT_TRUE(doc.has_value()) << error;
  return doc.has_value() ? std::move(*doc) : obs::Json();
}

// --- schema_version policy --------------------------------------------------

TEST(WireSchemaTest, VersionIsOne) { EXPECT_EQ(api::kSchemaVersion, 1); }

TEST(WireSchemaTest, AbsentStampReadsAsVersionOne) {
  obs::Json doc = obs::Json::Object();
  EXPECT_TRUE(api::CheckSchemaVersion(doc).ok());
}

TEST(WireSchemaTest, CurrentStampAccepted) {
  obs::Json doc = obs::Json::Object();
  doc.Set("schema_version", obs::Json::Int(api::kSchemaVersion));
  EXPECT_TRUE(api::CheckSchemaVersion(doc).ok());
}

TEST(WireSchemaTest, NewerStampIsTypedInvalidArgument) {
  obs::Json doc = obs::Json::Object();
  doc.Set("schema_version", obs::Json::Int(api::kSchemaVersion + 1));
  Status s = api::CheckSchemaVersion(doc);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("schema_version"), std::string::npos);
}

TEST(WireSchemaTest, NonIntegerStampRejected) {
  obs::Json doc = obs::Json::Object();
  doc.Set("schema_version", obs::Json::Str("latest"));
  EXPECT_EQ(api::CheckSchemaVersion(doc).code(),
            StatusCode::kInvalidArgument);
}

// --- enum names -------------------------------------------------------------

TEST(WireEnumTest, VerdictNamesRoundTrip) {
  for (Verdict v : {Verdict::kHolds, Verdict::kViolated, Verdict::kUnknown}) {
    StatusOr<Verdict> back = api::ParseVerdict(api::VerdictName(v));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
  }
  EXPECT_EQ(api::ParseVerdict("maybe").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WireEnumTest, StatusCodeNamesRoundTrip) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kResourceExhausted, StatusCode::kShuttingDown}) {
    StatusOr<StatusCode> back = api::ParseStatusCode(StatusCodeName(c));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, c);
  }
  EXPECT_EQ(api::ParseStatusCode("EBADF").status().code(),
            StatusCode::kInvalidArgument);
}

// --- Status -----------------------------------------------------------------

TEST(WireStatusTest, RoundTripsCodeAndMessage) {
  Status original = Status::ShuttingDown("server draining");
  obs::Json j = api::StatusToJson(original);
  Status decoded;
  ASSERT_TRUE(api::StatusFromJson(j, &decoded).ok());
  EXPECT_EQ(decoded.code(), StatusCode::kShuttingDown);
  EXPECT_EQ(decoded.message(), "server draining");
}

TEST(WireStatusTest, MalformedIsTypedError) {
  Status decoded;
  EXPECT_EQ(api::StatusFromJson(obs::Json::Int(7), &decoded).code(),
            StatusCode::kInvalidArgument);
  obs::Json bad_code = obs::Json::Object();
  bad_code.Set("code", obs::Json::Str("NO_SUCH_CODE"));
  EXPECT_EQ(api::StatusFromJson(bad_code, &decoded).code(),
            StatusCode::kInvalidArgument);
  obs::Json wrong_type = obs::Json::Object();
  wrong_type.Set("code", obs::Json::Int(13));
  EXPECT_FALSE(api::StatusFromJson(wrong_type, &decoded).ok());
}

TEST(WireStatusTest, AbsentCodeReadsAsOk) {
  // A codeless status object is a valid wire form meaning OK.
  obs::Json no_code = obs::Json::Object();
  no_code.Set("message", obs::Json::Str(""));
  Status decoded = Status::NotFound("sentinel");
  ASSERT_TRUE(api::StatusFromJson(no_code, &decoded).ok());
  EXPECT_TRUE(decoded.ok());
}

// --- options / retry --------------------------------------------------------

VerifyOptions DistinctiveOptions() {
  VerifyOptions options;
  options.heuristic1 = false;
  options.exhaustive_existential = true;
  options.max_candidates = 7;
  options.timeout_seconds = 12.5;
  options.max_expansions = 4096;
  options.max_memory_bytes = 1 << 20;
  options.heartbeat_interval_seconds = 0.25;
  return options;
}

TEST(WireOptionsTest, SerializeParseIsIdentity) {
  VerifyOptions original = DistinctiveOptions();
  std::string wire = api::OptionsToJson(original).Dump();
  StatusOr<VerifyOptions> decoded = api::OptionsFromJson(MustParse(wire));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  // Byte-stability: the decoded value re-serializes to the same bytes.
  EXPECT_EQ(api::OptionsToJson(*decoded).Dump(), wire);
  EXPECT_EQ(decoded->heuristic1, false);
  EXPECT_EQ(decoded->exhaustive_existential, true);
  EXPECT_EQ(decoded->max_candidates, 7);
  EXPECT_DOUBLE_EQ(decoded->timeout_seconds, 12.5);
  EXPECT_EQ(decoded->max_expansions, 4096);
  EXPECT_EQ(decoded->max_memory_bytes, 1 << 20);
}

TEST(WireOptionsTest, UnknownFieldsIgnored) {
  obs::Json j = api::OptionsToJson(DistinctiveOptions());
  j.Set("from_the_future", obs::Json::Str("hello"));
  StatusOr<VerifyOptions> decoded = api::OptionsFromJson(j);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->max_candidates, 7);
}

TEST(WireOptionsTest, GoldenFormIsFrozen) {
  std::string bytes = api::OptionsToJson(DistinctiveOptions()).Dump() + "\n";
  if (MaybeRegold("options.json", bytes)) return;
  std::string golden = ReadGolden("options.json");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(bytes, golden);
  // And parsing the golden reproduces it: parse∘serialize is the identity
  // on canonical documents.
  StatusOr<VerifyOptions> decoded = api::OptionsFromJson(MustParse(golden));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(api::OptionsToJson(*decoded).Dump() + "\n", golden);
}

TEST(WireRetryTest, PolicyRoundTrips) {
  RetryPolicy retry;
  retry.enabled = true;
  retry.total_budget_seconds = 30.0;
  RetryRung rung;
  rung.name = "tight";
  rung.max_candidates = 5;
  rung.max_expansions = 1000;
  retry.ladder.push_back(rung);
  std::string wire = api::RetryPolicyToJson(retry).Dump();
  StatusOr<RetryPolicy> decoded = api::RetryPolicyFromJson(MustParse(wire));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->enabled);
  EXPECT_DOUBLE_EQ(decoded->total_budget_seconds, 30.0);
  ASSERT_EQ(decoded->ladder.size(), 1u);
  EXPECT_EQ(decoded->ladder[0].name, "tight");
  EXPECT_EQ(decoded->ladder[0].max_candidates, 5);
  EXPECT_EQ(api::RetryPolicyToJson(*decoded).Dump(), wire);
}

// --- histograms (lossless sparse buckets) -----------------------------------

TEST(WireHistogramTest, SparseEncodingIsLossless) {
  obs::HistogramData h;
  for (double v : {0.001, 0.25, 1.0, 1.5, 64.0, 64.0, 100000.0}) h.Record(v);
  StatusOr<obs::HistogramData> back =
      api::HistogramFromJson(api::HistogramToJson(h));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->count, h.count);
  EXPECT_DOUBLE_EQ(back->sum, h.sum);
  EXPECT_DOUBLE_EQ(back->min, h.min);
  EXPECT_DOUBLE_EQ(back->max, h.max);
  EXPECT_EQ(back->buckets, h.buckets);  // exact, not a summary
}

TEST(WireHistogramTest, EmptyHistogramIsCompact) {
  obs::HistogramData h;
  obs::Json j = api::HistogramToJson(h);
  StatusOr<obs::HistogramData> back = api::HistogramFromJson(j);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->count, 0);
  EXPECT_TRUE(back->empty());
}

// --- stats ------------------------------------------------------------------

VerifyStats DistinctiveStats() {
  VerifyStats stats;
  stats.seconds = 1.25;
  stats.max_pseudorun_length = 9;
  stats.max_trie_size = 333;
  stats.buchi_states = 4;
  stats.num_assignments = 17;
  stats.num_cores = 5;
  stats.num_expansions = 1200;
  stats.num_successors = 2400;
  stats.prepare_seconds = 0.125;
  stats.search_seconds = 1.0;
  stats.trie_hits = 700;
  stats.trie_misses = 500;
  stats.peak_memory_bytes = 1 << 16;
  stats.cache_hits = 1;
  stats.prepass_reuses = 2;
  stats.alloc_bytes = 65536;
  stats.alloc_count = 128;
  stats.search_depth.Record(3.0);
  stats.search_depth.Record(5.0);
  return stats;
}

TEST(WireStatsTest, RoundTripIsLosslessAndByteStable) {
  VerifyStats original = DistinctiveStats();
  std::string wire = api::StatsToJson(original).Dump();
  StatusOr<VerifyStats> decoded = api::StatsFromJson(MustParse(wire));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(api::StatsToJson(*decoded).Dump(), wire);
  EXPECT_EQ(decoded->num_expansions, 1200);
  EXPECT_EQ(decoded->cache_hits, 1);
  EXPECT_EQ(decoded->prepass_reuses, 2);
  EXPECT_EQ(decoded->search_depth.count, 2);
  EXPECT_EQ(decoded->search_depth.buckets, original.search_depth.buckets);
}

TEST(WireStatsTest, RetiredKeysStillDecode) {
  // A payload written before `frontier_size` was retired (it duplicated
  // `search_depth`): the key is ignored, everything else decodes.
  const std::string old_payload =
      R"({"seconds":1.25,"prepare_seconds":0.125,"dataflow_seconds":0.0,)"
      R"("search_seconds":1.0,"validate_seconds":0.0,)"
      R"("max_pseudorun_length":9,"max_trie_size":333,"buchi_states":4,)"
      R"("num_assignments":17,"num_cores":5,"num_expansions":1200,)"
      R"("num_successors":2400,"num_rejected_candidates":0,)"
      R"("trie_hits":700,"trie_misses":500,"heartbeats":0,)"
      R"("peak_memory_bytes":65536,"governor_polls":0,"cache_hits":1,)"
      R"("prepass_reuses":2,"frontier_size":{"count":1,"sum":11.0,)"
      R"("min":11.0,"max":11.0,"buckets":[[46,1]]},)"
      R"("search_depth":{"count":2,"sum":8.0,"min":3.0,"max":5.0,)"
      R"("buckets":[[39,1],[42,1]]},"trie_lookup_us":{"count":0},)"
      R"("shard_expansions":{"count":0},"shard_alloc_bytes":{"count":0},)"
      R"("alloc_bytes":65536,"alloc_count":128})";
  StatusOr<VerifyStats> decoded = api::StatsFromJson(MustParse(old_payload));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->num_expansions, 1200);
  EXPECT_EQ(decoded->search_depth.count, 2);
  EXPECT_EQ(api::StatsToJson(*decoded).Dump(),
            api::StatsToJson(DistinctiveStats()).Dump());
}

TEST(WireStatsTest, GoldenFormIsFrozen) {
  std::string bytes = api::StatsToJson(DistinctiveStats()).Dump() + "\n";
  if (MaybeRegold("stats.json", bytes)) return;
  std::string golden = ReadGolden("stats.json");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(bytes, golden);
}

// --- requests ---------------------------------------------------------------

TEST(WireRequestTest, SelectorTravelsByName) {
  AppBundle bundle = BuildE1();
  VerifyRequest request;
  request.property = &bundle.properties[0].property;
  request.jobs = 2;
  request.options = DistinctiveOptions();
  obs::Json j = api::RequestToJson(request);

  StatusOr<VerifyRequest> decoded = api::RequestFromJson(j);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  // Pointers never travel: the receiver binds its own catalog.
  EXPECT_EQ(decoded->property, nullptr);
  EXPECT_EQ(decoded->properties, nullptr);
  EXPECT_EQ(decoded->property_name, bundle.properties[0].property.name);
  EXPECT_EQ(decoded->jobs, 2);
  EXPECT_EQ(decoded->options.max_candidates, 7);
}

TEST(WireRequestTest, IndexSelectorRoundTrips) {
  VerifyRequest request;
  request.property_index = 3;
  std::string wire = api::RequestToJson(request).Dump();
  StatusOr<VerifyRequest> decoded = api::RequestFromJson(MustParse(wire));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->property_index, 3);
  EXPECT_EQ(api::RequestToJson(*decoded).Dump(), wire);
}

TEST(WireRequestTest, GoldenFormIsFrozen) {
  VerifyRequest request;
  request.property_name = "P1";
  request.jobs = 2;
  request.options = DistinctiveOptions();
  request.retry.enabled = true;
  request.retry.total_budget_seconds = 30.0;
  std::string bytes = api::RequestToJson(request).Dump() + "\n";
  if (MaybeRegold("request.json", bytes)) return;
  std::string golden = ReadGolden("request.json");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(bytes, golden);
  StatusOr<VerifyRequest> decoded = api::RequestFromJson(MustParse(golden));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(api::RequestToJson(*decoded).Dump() + "\n", golden);
}

TEST(WireRequestTest, UnknownFieldsIgnored) {
  obs::Json j = MustParse(ReadGolden("request.json"));
  j.Set("shiny_new_feature", obs::Json::Bool(true));
  StatusOr<VerifyRequest> decoded = api::RequestFromJson(j);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->property_name, "P1");
}

TEST(WireRequestTest, MalformedIsTypedError) {
  EXPECT_EQ(api::RequestFromJson(obs::Json::Array()).status().code(),
            StatusCode::kInvalidArgument);
  obs::Json bad_jobs = obs::Json::Object();
  bad_jobs.Set("jobs", obs::Json::Str("many"));
  EXPECT_FALSE(api::RequestFromJson(bad_jobs).ok());
  // Integer fields never truncate or wrap: 2^32 must not select property
  // 0, and 1e30 must not hit the undefined double-to-int64 cast.
  for (const char* text :
       {R"({"property_index": 4294967296})", R"({"property_index": 1.5})",
        R"({"property_index": -2147483649})", R"({"jobs": 1e30})",
        R"({"options": {"max_expansions": 1e30}})",
        R"({"options": {"max_candidates": 2.5}})",
        R"({"schema_version": 1e30})", R"({"retry": {"ladder": [
             {"max_candidates": 99999999999}]}})"}) {
    SCOPED_TRACE(text);
    EXPECT_EQ(api::RequestFromJson(MustParse(text)).status().code(),
              StatusCode::kInvalidArgument);
  }
  // An integral value written as a double is still that integer.
  StatusOr<VerifyRequest> integral =
      api::RequestFromJson(MustParse(R"({"property_index": 3.0})"));
  ASSERT_TRUE(integral.ok()) << integral.status().ToString();
  EXPECT_EQ(integral->property_index, 3);
}

// --- batch requests ---------------------------------------------------------

TEST(WireBatchTest, NamesResolveAgainstCatalog) {
  AppBundle bundle = BuildE1();
  std::vector<Property> catalog = CatalogOf(bundle);

  api::WireBatchRequest batch;
  batch.property_names = {catalog[1].name, catalog[0].name};
  std::string wire = api::BatchRequestToJson(batch).Dump();

  StatusOr<api::WireBatchRequest> decoded =
      api::BatchRequestFromJson(MustParse(wire));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(api::BatchRequestToJson(*decoded).Dump(), wire);

  ASSERT_TRUE(api::BindBatchRequest(&*decoded, catalog).ok());
  EXPECT_EQ(decoded->request.properties, &catalog);
  ASSERT_EQ(decoded->request.property_indices.size(), 2u);
  EXPECT_EQ(decoded->request.property_indices[0], 1);
  EXPECT_EQ(decoded->request.property_indices[1], 0);
}

TEST(WireBatchTest, MissingNameIsNotFound) {
  AppBundle bundle = BuildE1();
  std::vector<Property> catalog = CatalogOf(bundle);
  api::WireBatchRequest batch;
  batch.property_names = {"NoSuchProperty"};
  EXPECT_EQ(api::BindBatchRequest(&batch, catalog).code(),
            StatusCode::kNotFound);
}

TEST(WireBatchTest, MalformedIndicesAreTypedErrors) {
  for (const char* text :
       {R"({"property_indices": [0, 4294967296]})",
        R"({"property_indices": [0.5]})", R"({"property_indices": [1e30]})",
        R"({"property_indices": ["0"]})", R"({"jobs": 4294967297})"}) {
    SCOPED_TRACE(text);
    EXPECT_EQ(api::BatchRequestFromJson(MustParse(text)).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(WireBatchTest, GoldenFormIsFrozen) {
  api::WireBatchRequest batch;
  batch.property_names = {"P1", "P3"};
  batch.request.jobs = 4;
  batch.request.options = DistinctiveOptions();
  std::string bytes = api::BatchRequestToJson(batch).Dump() + "\n";
  if (MaybeRegold("batch_request.json", bytes)) return;
  std::string golden = ReadGolden("batch_request.json");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(bytes, golden);
  StatusOr<api::WireBatchRequest> decoded =
      api::BatchRequestFromJson(MustParse(golden));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(api::BatchRequestToJson(*decoded).Dump() + "\n", golden);
}

// --- responses (with a real counterexample) ---------------------------------

TEST(WireResponseTest, ViolatedResponseRoundTripsThroughSymbolNames) {
  AppBundle bundle = BuildE1();
  Verifier verifier(bundle.spec.get());

  // Find a property the suite expects to be VIOLATED so the response
  // carries a counterexample (the hard part of the encoding: symbols by
  // name, re-interned on decode).
  const ParsedProperty* violated = nullptr;
  for (const ParsedProperty& p : bundle.properties)
    if (p.has_expected && !p.expected) violated = &p;
  ASSERT_NE(violated, nullptr) << "E1 suite lost its violated property";

  VerifyRequest request;
  request.property = &violated->property;
  StatusOr<VerifyResponse> response = verifier.Run(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->verdict, Verdict::kViolated);
  ASSERT_FALSE(response->stick.empty() && response->candy.empty());

  std::string wire = api::ResponseToJson(*response, *bundle.spec).Dump();
  StatusOr<VerifyResponse> decoded =
      api::ResponseFromJson(MustParse(wire), bundle.spec.get());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->verdict, Verdict::kViolated);
  EXPECT_EQ(decoded->stick.size(), response->stick.size());
  EXPECT_EQ(decoded->candy.size(), response->candy.size());
  EXPECT_EQ(decoded->witness_binding.size(), response->witness_binding.size());
  // Byte-stability through a full decode/encode cycle.
  EXPECT_EQ(api::ResponseToJson(*decoded, *bundle.spec).Dump(), wire);
}

TEST(WireResponseTest, HoldsResponseRoundTrips) {
  AppBundle bundle = BuildE1();
  Verifier verifier(bundle.spec.get());
  const ParsedProperty* holds = nullptr;
  for (const ParsedProperty& p : bundle.properties)
    if (p.has_expected && p.expected) holds = &p;
  ASSERT_NE(holds, nullptr);

  VerifyRequest request;
  request.property = &holds->property;
  StatusOr<VerifyResponse> response = verifier.Run(request);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->verdict, Verdict::kHolds);

  std::string wire = api::ResponseToJson(*response, *bundle.spec).Dump();
  StatusOr<VerifyResponse> decoded =
      api::ResponseFromJson(MustParse(wire), bundle.spec.get());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->verdict, Verdict::kHolds);
  EXPECT_EQ(api::ResponseToJson(*decoded, *bundle.spec).Dump(), wire);
}

TEST(WireResponseTest, BatchResponseRoundTrips) {
  AppBundle bundle = BuildE1();
  Verifier verifier(bundle.spec.get());
  std::vector<Property> catalog = CatalogOf(bundle);

  BatchRequest request;
  request.properties = &catalog;
  request.property_indices = {0, 1};
  StatusOr<BatchResponse> batch = verifier.RunBatch(request);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();

  std::string wire = api::BatchResponseToJson(*batch, *bundle.spec).Dump();
  StatusOr<BatchResponse> decoded =
      api::BatchResponseFromJson(MustParse(wire), bundle.spec.get());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->responses.size(), batch->responses.size());
  for (size_t i = 0; i < decoded->responses.size(); ++i)
    EXPECT_EQ(decoded->responses[i].verdict, batch->responses[i].verdict);
  EXPECT_EQ(api::BatchResponseToJson(*decoded, *bundle.spec).Dump(), wire);
}

// --- response goldens (fixed values, no search) ----------------------------

/// A symbol name that exercises every escape class of the encoder: quote,
/// backslash, the short escapes, a \u00XX control byte and UTF-8 bytes.
constexpr char kEscapedSymbol[] = "say \"hi\"\\\b\f\n\r\t\x01\x1f caf\xc3\xa9";

/// One counterexample step on E1's `page` with `data` and `previous` given
/// as (relation, tuple of symbol names) rows.
CounterexampleStep Step(
    WebAppSpec* spec, int buchi_state, const std::string& page,
    const std::vector<std::pair<std::string, std::vector<std::string>>>& data,
    const std::vector<std::pair<std::string, std::vector<std::string>>>&
        previous) {
  auto fill = [&](Instance* instance, const auto& rows) {
    *instance = Instance(&spec->catalog());
    for (const auto& [relation, names] : rows) {
      Tuple t;
      for (const std::string& name : names) {
        t.push_back(spec->symbols().Intern(name));
      }
      instance->relation(relation).Insert(t);
    }
  };
  CounterexampleStep step;
  step.buchi_state = buchi_state;
  step.config.page = spec->PageIndex(page);
  EXPECT_GE(step.config.page, 0) << page;
  fill(&step.config.data, data);
  fill(&step.config.previous, previous);
  return step;
}

/// A violated E1 response: a two-step stick, a one-step candy, a witness
/// whose value needs escapes, one attempt record and `DistinctiveStats`.
VerifyResponse DistinctiveViolatedResponse(WebAppSpec* spec) {
  VerifyResponse response;
  response.verdict = Verdict::kViolated;
  response.witness_binding["u"] = spec->symbols().Intern(kEscapedSymbol);
  response.witness_binding["p"] = spec->symbols().Intern("p1");
  response.stick.push_back(
      Step(spec, 0, "HP", {{"user", {"alice", kEscapedSymbol}}},
           {{"uname", {"alice"}}}));
  response.stick.push_back(
      Step(spec, 1, "CP",
           {{"user", {"alice", kEscapedSymbol}},
            {"loggedin", {}},
            {"userid", {"alice"}},
            {"button", {"login"}}},
           {{"uname", {"alice"}}, {"upass", {kEscapedSymbol}}}));
  response.candy.push_back(
      Step(spec, 2, "CP", {{"cart", {"p1", "100"}}, {"pick", {"p1", "100"}}},
           {}));
  response.stats = DistinctiveStats();
  AttemptRecord attempt;
  attempt.rung = 0;
  attempt.rung_name = "base";
  attempt.budget_seconds = 7.5;
  attempt.elapsed_seconds = 0.1;
  attempt.verdict = Verdict::kViolated;
  attempt.stats = DistinctiveStats();
  response.attempts.push_back(attempt);
  response.decided_rung = 0;
  return response;
}

TEST(WireResponseTest, GoldenFormIsFrozen) {
  AppBundle bundle = BuildE1();
  VerifyResponse response = DistinctiveViolatedResponse(bundle.spec.get());
  std::string bytes =
      api::ResponseToJson(response, *bundle.spec).Dump() + "\n";
  if (MaybeRegold("response.json", bytes)) return;
  std::string golden = ReadGolden("response.json");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(bytes, golden);
  StatusOr<VerifyResponse> decoded =
      api::ResponseFromJson(MustParse(golden), bundle.spec.get());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->stick.size(), 2u);
  EXPECT_EQ(decoded->candy.size(), 1u);
  EXPECT_EQ(bundle.spec->symbols().Name(decoded->witness_binding.at("u")),
            kEscapedSymbol);
  EXPECT_EQ(api::ResponseToJson(*decoded, *bundle.spec).Dump() + "\n", golden);
}

TEST(WireBatchResponseTest, GoldenFormIsFrozen) {
  AppBundle bundle = BuildE1();
  BatchResponse batch;
  batch.responses.push_back(DistinctiveViolatedResponse(bundle.spec.get()));
  VerifyResponse holds;
  holds.verdict = Verdict::kHolds;
  holds.stats = DistinctiveStats();
  holds.stats.cache_hits = 0;
  batch.responses.push_back(holds);
  batch.merged = DistinctiveStats();
  batch.merged.seconds = 2.5;
  std::string bytes =
      api::BatchResponseToJson(batch, *bundle.spec).Dump() + "\n";
  if (MaybeRegold("batch_response.json", bytes)) return;
  std::string golden = ReadGolden("batch_response.json");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(bytes, golden);
  StatusOr<BatchResponse> decoded =
      api::BatchResponseFromJson(MustParse(golden), bundle.spec.get());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->responses.size(), 2u);
  EXPECT_EQ(decoded->responses[0].verdict, Verdict::kViolated);
  EXPECT_EQ(decoded->responses[1].verdict, Verdict::kHolds);
  EXPECT_EQ(api::BatchResponseToJson(*decoded, *bundle.spec).Dump() + "\n",
            golden);
}

TEST(WireResponseTest, MalformedIsTypedError) {
  AppBundle bundle = BuildE1();
  EXPECT_FALSE(
      api::ResponseFromJson(obs::Json::Str("nope"), bundle.spec.get()).ok());
  obs::Json bad_verdict = obs::Json::Object();
  bad_verdict.Set("verdict", obs::Json::Str("perhaps"));
  EXPECT_EQ(
      api::ResponseFromJson(bad_verdict, bundle.spec.get()).status().code(),
      StatusCode::kInvalidArgument);
  for (const char* text :
       {R"({"verdict": "holds", "stats": {"num_expansions": 1e30}})",
        R"({"verdict": "holds", "decided_rung": 4294967296})",
        R"({"verdict": "holds", "stats": {"search_depth": {"count": 1,
             "sum": 1, "min": 1, "max": 1, "buckets": [[1.5, 1]]}}})"}) {
    SCOPED_TRACE(text);
    EXPECT_EQ(api::ResponseFromJson(MustParse(text), bundle.spec.get())
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace wave
