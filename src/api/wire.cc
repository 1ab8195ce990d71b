#include "api/wire.h"

#include <limits>
#include <optional>
#include <type_traits>
#include <utility>

namespace wave::api {
namespace {

// --- tolerant-but-typed field readers ---------------------------------------
// Absent fields keep the caller's default (forward compatibility); a field
// that is present with the wrong JSON type is a hard InvalidArgument — a
// schema mismatch should fail loudly, not read as zero.

Status TypeError(std::string_view field, std::string_view want) {
  return Status::InvalidArgument(
      std::string(field) + ": expected " + std::string(want), WAVE_LOC);
}

Status ReadBool(const obs::Json& j, std::string_view key, bool* out) {
  const obs::Json* v = j.Find(key);
  if (v == nullptr) return Status::Ok();
  if (!v->is_bool()) return TypeError(key, "bool");
  *out = v->AsBool();
  return Status::Ok();
}

// Every integer field decodes through IntValue: a fraction, or a value the
// destination type cannot hold, is InvalidArgument — never truncated or
// wrapped into a different, valid-looking number.
Status IntValue(const obs::Json& v, std::string_view field, int64_t* out) {
  if (!v.is_number()) return TypeError(field, "number");
  std::optional<int64_t> exact = v.AsExactInt();
  if (!exact.has_value()) return TypeError(field, "integer within int64");
  *out = *exact;
  return Status::Ok();
}

Status IntValue(const obs::Json& v, std::string_view field, int* out) {
  int64_t wide = 0;
  WAVE_RETURN_IF_ERROR(IntValue(v, field, &wide));
  if (wide < std::numeric_limits<int>::min() ||
      wide > std::numeric_limits<int>::max()) {
    return TypeError(field, "integer within int");
  }
  *out = static_cast<int>(wide);
  return Status::Ok();
}

template <typename Int>
Status ReadInt(const obs::Json& j, std::string_view key, Int* out) {
  const obs::Json* v = j.Find(key);
  return v == nullptr ? Status::Ok() : IntValue(*v, key, out);
}

Status ReadDouble(const obs::Json& j, std::string_view key, double* out) {
  const obs::Json* v = j.Find(key);
  if (v == nullptr) return Status::Ok();
  if (!v->is_number()) return TypeError(key, "number");
  *out = v->AsDouble();
  return Status::Ok();
}

Status ReadHistogram(const obs::Json& j, std::string_view key,
                     obs::HistogramData* out) {
  const obs::Json* v = j.Find(key);
  if (v == nullptr) return Status::Ok();
  WAVE_ASSIGN_OR_RETURN(*out, HistogramFromJson(*v));
  return Status::Ok();
}

Status ReadString(const obs::Json& j, std::string_view key,
                  std::string* out) {
  const obs::Json* v = j.Find(key);
  if (v == nullptr) return Status::Ok();
  if (!v->is_string()) return TypeError(key, "string");
  *out = v->AsString();
  return Status::Ok();
}

Status RequireObject(const obs::Json& j, std::string_view what) {
  if (!j.is_object()) return TypeError(what, "object");
  return Status::Ok();
}

// --- counterexample steps (symbols by name) ---------------------------------

obs::Json InstanceToJson(const Instance& instance, const WebAppSpec& spec) {
  obs::Json j = obs::Json::Object();
  const Catalog& catalog = spec.catalog();
  for (RelationId id = 0; id < catalog.size(); ++id) {
    const Relation& r = instance.relation(id);
    if (r.tuples().empty()) continue;
    obs::Json tuples = obs::Json::Array();
    for (const Tuple& t : r.tuples()) {
      obs::Json tuple = obs::Json::Array();
      for (SymbolId v : t) {
        tuple.Append(obs::Json::Str(spec.symbols().Name(v)));
      }
      tuples.Append(std::move(tuple));
    }
    j.Set(catalog.schema(id).name, std::move(tuples));
  }
  return j;
}

Status InstanceFromJson(const obs::Json& j, WebAppSpec* spec,
                        Instance* out) {
  WAVE_RETURN_IF_ERROR(RequireObject(j, "instance"));
  *out = Instance(&spec->catalog());
  for (const auto& [name, tuples] : j.members()) {
    RelationId id = spec->catalog().Find(name);
    if (id == kInvalidRelation) {
      return Status::InvalidArgument("instance: unknown relation '" + name +
                                         "'",
                                     WAVE_LOC);
    }
    if (!tuples.is_array()) return TypeError("instance." + name, "array");
    int arity = spec->catalog().schema(id).arity;
    for (const obs::Json& tuple : tuples.items()) {
      if (!tuple.is_array() || static_cast<int>(tuple.size()) != arity) {
        return Status::InvalidArgument(
            "instance." + name + ": tuple arity mismatch", WAVE_LOC);
      }
      Tuple t;
      t.reserve(static_cast<size_t>(arity));
      for (const obs::Json& v : tuple.items()) {
        if (!v.is_string()) return TypeError("instance." + name, "string");
        t.push_back(spec->symbols().Intern(v.AsString()));
      }
      out->relation(id).Insert(t);
    }
  }
  return Status::Ok();
}

obs::Json StepsToJson(const std::vector<CounterexampleStep>& steps,
                      const WebAppSpec& spec) {
  obs::Json arr = obs::Json::Array();
  for (const CounterexampleStep& step : steps) {
    obs::Json j = obs::Json::Object();
    j.Set("buchi_state", obs::Json::Int(step.buchi_state));
    j.Set("page", obs::Json::Str(spec.page(step.config.page).name));
    j.Set("data", InstanceToJson(step.config.data, spec));
    j.Set("previous", InstanceToJson(step.config.previous, spec));
    arr.Append(std::move(j));
  }
  return arr;
}

Status StepsFromJson(const obs::Json& j, WebAppSpec* spec,
                     std::vector<CounterexampleStep>* out) {
  if (!j.is_array()) return TypeError("steps", "array");
  for (const obs::Json& step_json : j.items()) {
    WAVE_RETURN_IF_ERROR(RequireObject(step_json, "step"));
    CounterexampleStep step;
    WAVE_RETURN_IF_ERROR(ReadInt(step_json, "buchi_state", &step.buchi_state));
    std::string page;
    WAVE_RETURN_IF_ERROR(ReadString(step_json, "page", &page));
    step.config.page = spec->PageIndex(page);
    if (step.config.page < 0) {
      return Status::InvalidArgument("step: unknown page '" + page + "'",
                                     WAVE_LOC);
    }
    const obs::Json* data = step_json.Find("data");
    const obs::Json* previous = step_json.Find("previous");
    if (data == nullptr || previous == nullptr) {
      return Status::InvalidArgument("step: missing data/previous", WAVE_LOC);
    }
    WAVE_RETURN_IF_ERROR(InstanceFromJson(*data, spec, &step.config.data));
    WAVE_RETURN_IF_ERROR(
        InstanceFromJson(*previous, spec, &step.config.previous));
    out->push_back(std::move(step));
  }
  return Status::Ok();
}

obs::Json RungToJson(const RetryRung& rung) {
  obs::Json j = obs::Json::Object();
  j.Set("name", obs::Json::Str(rung.name));
  j.Set("max_candidates", obs::Json::Int(rung.max_candidates));
  j.Set("max_expansions", obs::Json::Int(rung.max_expansions));
  j.Set("exhaustive_existential",
        obs::Json::Bool(rung.exhaustive_existential));
  return j;
}

StatusOr<RetryRung> RungFromJson(const obs::Json& j) {
  WAVE_RETURN_IF_ERROR(RequireObject(j, "rung"));
  RetryRung rung;
  WAVE_RETURN_IF_ERROR(ReadString(j, "name", &rung.name));
  WAVE_RETURN_IF_ERROR(ReadInt(j, "max_candidates", &rung.max_candidates));
  WAVE_RETURN_IF_ERROR(ReadInt(j, "max_expansions", &rung.max_expansions));
  WAVE_RETURN_IF_ERROR(
      ReadBool(j, "exhaustive_existential", &rung.exhaustive_existential));
  return rung;
}

}  // namespace

Status CheckSchemaVersion(const obs::Json& doc) {
  WAVE_RETURN_IF_ERROR(RequireObject(doc, "document"));
  int64_t version = 1;  // unstamped documents read as version 1
  WAVE_RETURN_IF_ERROR(ReadInt(doc, "schema_version", &version));
  if (version < 1 || version > kSchemaVersion) {
    return Status::InvalidArgument(
        "schema_version " + std::to_string(version) +
            " not supported (this build speaks 1.." +
            std::to_string(kSchemaVersion) + ")",
        WAVE_LOC);
  }
  return Status::Ok();
}

const char* VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kHolds: return "holds";
    case Verdict::kViolated: return "violated";
    case Verdict::kUnknown: return "unknown";
  }
  return "?";
}

StatusOr<Verdict> ParseVerdict(const std::string& name) {
  if (name == "holds") return Verdict::kHolds;
  if (name == "violated") return Verdict::kViolated;
  if (name == "unknown") return Verdict::kUnknown;
  return Status::InvalidArgument("unknown verdict '" + name + "'", WAVE_LOC);
}

StatusOr<UnknownReason> ParseUnknownReason(const std::string& name) {
  static constexpr UnknownReason kAll[] = {
      UnknownReason::kNone,            UnknownReason::kTimeout,
      UnknownReason::kMemoryLimit,     UnknownReason::kCandidateBudget,
      UnknownReason::kExpansionBudget, UnknownReason::kCancelled,
      UnknownReason::kRejectedCandidates,
  };
  for (UnknownReason r : kAll) {
    if (name == UnknownReasonName(r)) return r;
  }
  return Status::InvalidArgument("unknown unknown_reason '" + name + "'",
                                 WAVE_LOC);
}

StatusOr<StatusCode> ParseStatusCode(const std::string& name) {
  static constexpr StatusCode kAll[] = {
      StatusCode::kOk,           StatusCode::kInvalidArgument,
      StatusCode::kNotFound,     StatusCode::kFailedPrecondition,
      StatusCode::kResourceExhausted, StatusCode::kCancelled,
      StatusCode::kDeadlineExceeded,  StatusCode::kUnavailable,
      StatusCode::kInternal,     StatusCode::kShuttingDown,
  };
  for (StatusCode c : kAll) {
    if (name == StatusCodeName(c)) return c;
  }
  return Status::InvalidArgument("unknown status code '" + name + "'",
                                 WAVE_LOC);
}

obs::Json StatusToJson(const Status& status) {
  obs::Json j = obs::Json::Object();
  j.Set("code", obs::Json::Str(StatusCodeName(status.code())));
  j.Set("message", obs::Json::Str(status.message()));
  return j;
}

Status StatusFromJson(const obs::Json& j, Status* out) {
  WAVE_RETURN_IF_ERROR(RequireObject(j, "status"));
  std::string code_name = "OK";
  std::string message;
  WAVE_RETURN_IF_ERROR(ReadString(j, "code", &code_name));
  WAVE_RETURN_IF_ERROR(ReadString(j, "message", &message));
  WAVE_ASSIGN_OR_RETURN(StatusCode code, ParseStatusCode(code_name));
  *out = Status(code, std::move(message));
  return Status::Ok();
}

obs::Json OptionsToJson(const VerifyOptions& options) {
  obs::Json j = obs::Json::Object();
  j.Set("heuristic1", obs::Json::Bool(options.heuristic1));
  j.Set("heuristic2", obs::Json::Bool(options.heuristic2));
  j.Set("exhaustive_existential",
        obs::Json::Bool(options.exhaustive_existential));
  j.Set("max_candidates", obs::Json::Int(options.max_candidates));
  j.Set("timeout_seconds", obs::Json::Number(options.timeout_seconds));
  j.Set("max_expansions", obs::Json::Int(options.max_expansions));
  j.Set("max_memory_bytes", obs::Json::Int(options.max_memory_bytes));
  j.Set("heartbeat_interval_seconds",
        obs::Json::Number(options.heartbeat_interval_seconds));
  return j;
}

StatusOr<VerifyOptions> OptionsFromJson(const obs::Json& j) {
  WAVE_RETURN_IF_ERROR(RequireObject(j, "options"));
  VerifyOptions options;
  WAVE_RETURN_IF_ERROR(ReadBool(j, "heuristic1", &options.heuristic1));
  WAVE_RETURN_IF_ERROR(ReadBool(j, "heuristic2", &options.heuristic2));
  WAVE_RETURN_IF_ERROR(ReadBool(j, "exhaustive_existential",
                                &options.exhaustive_existential));
  WAVE_RETURN_IF_ERROR(ReadInt(j, "max_candidates", &options.max_candidates));
  WAVE_RETURN_IF_ERROR(
      ReadDouble(j, "timeout_seconds", &options.timeout_seconds));
  WAVE_RETURN_IF_ERROR(ReadInt(j, "max_expansions", &options.max_expansions));
  WAVE_RETURN_IF_ERROR(
      ReadInt(j, "max_memory_bytes", &options.max_memory_bytes));
  WAVE_RETURN_IF_ERROR(ReadDouble(j, "heartbeat_interval_seconds",
                                  &options.heartbeat_interval_seconds));
  return options;
}

obs::Json RetryPolicyToJson(const RetryPolicy& retry) {
  obs::Json j = obs::Json::Object();
  j.Set("enabled", obs::Json::Bool(retry.enabled));
  j.Set("total_budget_seconds",
        obs::Json::Number(retry.total_budget_seconds));
  obs::Json ladder = obs::Json::Array();
  for (const RetryRung& rung : retry.ladder) ladder.Append(RungToJson(rung));
  j.Set("ladder", std::move(ladder));
  return j;
}

StatusOr<RetryPolicy> RetryPolicyFromJson(const obs::Json& j) {
  WAVE_RETURN_IF_ERROR(RequireObject(j, "retry"));
  RetryPolicy retry;
  WAVE_RETURN_IF_ERROR(ReadBool(j, "enabled", &retry.enabled));
  WAVE_RETURN_IF_ERROR(
      ReadDouble(j, "total_budget_seconds", &retry.total_budget_seconds));
  const obs::Json* ladder = j.Find("ladder");
  if (ladder != nullptr) {
    if (!ladder->is_array()) return TypeError("retry.ladder", "array");
    for (const obs::Json& rung_json : ladder->items()) {
      WAVE_ASSIGN_OR_RETURN(RetryRung rung, RungFromJson(rung_json));
      retry.ladder.push_back(std::move(rung));
    }
  }
  return retry;
}

obs::Json HistogramToJson(const obs::HistogramData& h) {
  obs::Json j = obs::Json::Object();
  j.Set("count", obs::Json::Int(h.count));
  if (h.count == 0) return j;
  j.Set("sum", obs::Json::Number(h.sum));
  j.Set("min", obs::Json::Number(h.min));
  j.Set("max", obs::Json::Number(h.max));
  obs::Json buckets = obs::Json::Array();
  for (int i = 0; i < obs::HistogramData::kNumBuckets; ++i) {
    if (h.buckets[i] == 0) continue;
    obs::Json pair = obs::Json::Array();
    pair.Append(obs::Json::Int(i));
    pair.Append(obs::Json::Int(h.buckets[i]));
    buckets.Append(std::move(pair));
  }
  j.Set("buckets", std::move(buckets));
  return j;
}

StatusOr<obs::HistogramData> HistogramFromJson(const obs::Json& j) {
  WAVE_RETURN_IF_ERROR(RequireObject(j, "histogram"));
  obs::HistogramData h;
  WAVE_RETURN_IF_ERROR(ReadInt(j, "count", &h.count));
  if (h.count == 0) return h;
  WAVE_RETURN_IF_ERROR(ReadDouble(j, "sum", &h.sum));
  WAVE_RETURN_IF_ERROR(ReadDouble(j, "min", &h.min));
  WAVE_RETURN_IF_ERROR(ReadDouble(j, "max", &h.max));
  const obs::Json* buckets = j.Find("buckets");
  if (buckets != nullptr) {
    if (!buckets->is_array()) return TypeError("histogram.buckets", "array");
    for (const obs::Json& pair : buckets->items()) {
      if (!pair.is_array() || pair.size() != 2) {
        return TypeError("histogram.buckets", "[index,count] pair");
      }
      int64_t index = 0;
      WAVE_RETURN_IF_ERROR(
          IntValue(pair.items()[0], "histogram.buckets", &index));
      if (index < 0 || index >= obs::HistogramData::kNumBuckets) {
        return Status::InvalidArgument(
            "histogram.buckets: index " + std::to_string(index) +
                " out of range",
            WAVE_LOC);
      }
      WAVE_RETURN_IF_ERROR(
          IntValue(pair.items()[1], "histogram.buckets", &h.buckets[index]));
    }
  }
  return h;
}

obs::Json StatsToJson(const VerifyStats& stats) {
  obs::Json j = obs::Json::Object();
  VerifyStats::ForEachField([&](const char* key, auto member, StatsMerge) {
    const auto& value = stats.*member;
    using T = std::decay_t<decltype(value)>;
    if constexpr (std::is_same_v<T, obs::HistogramData>) {
      j.Set(key, HistogramToJson(value));
    } else if constexpr (std::is_same_v<T, double>) {
      j.Set(key, obs::Json::Number(value));
    } else {
      j.Set(key, obs::Json::Int(value));
    }
  });
  return j;
}

StatusOr<VerifyStats> StatsFromJson(const obs::Json& j) {
  WAVE_RETURN_IF_ERROR(RequireObject(j, "stats"));
  VerifyStats s;
  Status status = Status::Ok();
  VerifyStats::ForEachField([&](const char* key, auto member, StatsMerge) {
    if (!status.ok()) return;
    auto& value = s.*member;
    using T = std::decay_t<decltype(value)>;
    if constexpr (std::is_same_v<T, obs::HistogramData>) {
      status = ReadHistogram(j, key, &value);
    } else if constexpr (std::is_same_v<T, double>) {
      status = ReadDouble(j, key, &value);
    } else {
      status = ReadInt(j, key, &value);
    }
  });
  WAVE_RETURN_IF_ERROR(status);
  return s;
}

obs::Json RequestToJson(const VerifyRequest& request) {
  obs::Json j = obs::Json::Object();
  j.Set("schema_version", obs::Json::Int(kSchemaVersion));
  if (request.property != nullptr) {
    j.Set("property", obs::Json::Str(request.property->name));
  } else if (!request.property_name.empty()) {
    j.Set("property", obs::Json::Str(request.property_name));
  } else if (request.property_index >= 0) {
    j.Set("property_index", obs::Json::Int(request.property_index));
  }
  j.Set("options", OptionsToJson(request.options));
  j.Set("retry", RetryPolicyToJson(request.retry));
  j.Set("jobs", obs::Json::Int(request.jobs));
  return j;
}

StatusOr<VerifyRequest> RequestFromJson(const obs::Json& j) {
  WAVE_RETURN_IF_ERROR(CheckSchemaVersion(j));
  VerifyRequest request;
  WAVE_RETURN_IF_ERROR(ReadString(j, "property", &request.property_name));
  WAVE_RETURN_IF_ERROR(
      ReadInt(j, "property_index", &request.property_index));
  const obs::Json* options = j.Find("options");
  if (options != nullptr) {
    WAVE_ASSIGN_OR_RETURN(request.options, OptionsFromJson(*options));
  }
  const obs::Json* retry = j.Find("retry");
  if (retry != nullptr) {
    WAVE_ASSIGN_OR_RETURN(request.retry, RetryPolicyFromJson(*retry));
  }
  WAVE_RETURN_IF_ERROR(ReadInt(j, "jobs", &request.jobs));
  return request;
}

obs::Json BatchRequestToJson(const WireBatchRequest& batch) {
  obs::Json j = obs::Json::Object();
  j.Set("schema_version", obs::Json::Int(kSchemaVersion));
  if (!batch.property_names.empty()) {
    obs::Json names = obs::Json::Array();
    for (const std::string& name : batch.property_names) {
      names.Append(obs::Json::Str(name));
    }
    j.Set("properties", std::move(names));
  } else if (!batch.request.property_indices.empty()) {
    obs::Json indices = obs::Json::Array();
    for (int index : batch.request.property_indices) {
      indices.Append(obs::Json::Int(index));
    }
    j.Set("property_indices", std::move(indices));
  }
  j.Set("options", OptionsToJson(batch.request.options));
  j.Set("retry", RetryPolicyToJson(batch.request.retry));
  j.Set("jobs", obs::Json::Int(batch.request.jobs));
  return j;
}

StatusOr<WireBatchRequest> BatchRequestFromJson(const obs::Json& j) {
  WAVE_RETURN_IF_ERROR(CheckSchemaVersion(j));
  WireBatchRequest batch;
  const obs::Json* names = j.Find("properties");
  if (names != nullptr) {
    if (!names->is_array()) return TypeError("properties", "array");
    for (const obs::Json& name : names->items()) {
      if (!name.is_string()) return TypeError("properties", "string");
      batch.property_names.push_back(name.AsString());
    }
  }
  const obs::Json* indices = j.Find("property_indices");
  if (indices != nullptr) {
    if (!indices->is_array()) return TypeError("property_indices", "array");
    for (const obs::Json& index : indices->items()) {
      int value = 0;
      WAVE_RETURN_IF_ERROR(IntValue(index, "property_indices", &value));
      batch.request.property_indices.push_back(value);
    }
  }
  const obs::Json* options = j.Find("options");
  if (options != nullptr) {
    WAVE_ASSIGN_OR_RETURN(batch.request.options, OptionsFromJson(*options));
  }
  const obs::Json* retry = j.Find("retry");
  if (retry != nullptr) {
    WAVE_ASSIGN_OR_RETURN(batch.request.retry, RetryPolicyFromJson(*retry));
  }
  WAVE_RETURN_IF_ERROR(ReadInt(j, "jobs", &batch.request.jobs));
  return batch;
}

Status BindBatchRequest(WireBatchRequest* batch,
                        const std::vector<Property>& properties) {
  batch->request.properties = &properties;
  if (batch->property_names.empty()) return Status::Ok();
  if (!batch->request.property_indices.empty()) {
    return Status::InvalidArgument(
        "batch selects both 'properties' (names) and 'property_indices'",
        WAVE_LOC);
  }
  for (const std::string& name : batch->property_names) {
    int found = -1;
    for (size_t i = 0; i < properties.size(); ++i) {
      if (properties[i].name == name) {
        found = static_cast<int>(i);
        break;
      }
    }
    if (found < 0) {
      return Status::NotFound("unknown property '" + name + "'", WAVE_LOC);
    }
    batch->request.property_indices.push_back(found);
  }
  return Status::Ok();
}

obs::Json AttemptToJson(const AttemptRecord& attempt) {
  obs::Json j = obs::Json::Object();
  j.Set("rung", obs::Json::Int(attempt.rung));
  j.Set("rung_name", obs::Json::Str(attempt.rung_name));
  j.Set("budget_seconds", obs::Json::Number(attempt.budget_seconds));
  j.Set("elapsed_seconds", obs::Json::Number(attempt.elapsed_seconds));
  j.Set("verdict", obs::Json::Str(VerdictName(attempt.verdict)));
  j.Set("unknown_reason",
        obs::Json::Str(UnknownReasonName(attempt.unknown_reason)));
  j.Set("failure_reason", obs::Json::Str(attempt.failure_reason));
  j.Set("stats", StatsToJson(attempt.stats));
  return j;
}

obs::Json AttemptsToJson(const std::vector<AttemptRecord>& attempts) {
  obs::Json j = obs::Json::Array();
  for (const AttemptRecord& attempt : attempts) j.Append(AttemptToJson(attempt));
  return j;
}

StatusOr<AttemptRecord> AttemptFromJson(const obs::Json& j) {
  WAVE_RETURN_IF_ERROR(RequireObject(j, "attempt"));
  AttemptRecord attempt;
  WAVE_RETURN_IF_ERROR(ReadInt(j, "rung", &attempt.rung));
  WAVE_RETURN_IF_ERROR(ReadString(j, "rung_name", &attempt.rung_name));
  WAVE_RETURN_IF_ERROR(
      ReadDouble(j, "budget_seconds", &attempt.budget_seconds));
  WAVE_RETURN_IF_ERROR(
      ReadDouble(j, "elapsed_seconds", &attempt.elapsed_seconds));
  std::string verdict = "unknown";
  WAVE_RETURN_IF_ERROR(ReadString(j, "verdict", &verdict));
  WAVE_ASSIGN_OR_RETURN(attempt.verdict, ParseVerdict(verdict));
  std::string reason = "none";
  WAVE_RETURN_IF_ERROR(ReadString(j, "unknown_reason", &reason));
  WAVE_ASSIGN_OR_RETURN(attempt.unknown_reason, ParseUnknownReason(reason));
  WAVE_RETURN_IF_ERROR(
      ReadString(j, "failure_reason", &attempt.failure_reason));
  const obs::Json* stats = j.Find("stats");
  if (stats != nullptr) {
    WAVE_ASSIGN_OR_RETURN(attempt.stats, StatsFromJson(*stats));
  }
  return attempt;
}

namespace {

/// Sets every member of `response`'s wire document except the schema
/// stamp on `*out`, in wire order.
void SetResponseMembers(const VerifyResponse& response, const WebAppSpec& spec,
                        obs::Json* out) {
  obs::Json& j = *out;
  j.Set("verdict", obs::Json::Str(VerdictName(response.verdict)));
  j.Set("unknown_reason",
        obs::Json::Str(UnknownReasonName(response.unknown_reason)));
  j.Set("failure_reason", obs::Json::Str(response.failure_reason));
  if (response.verdict == Verdict::kViolated) {
    obs::Json binding = obs::Json::Object();
    for (const auto& [var, value] : response.witness_binding) {
      binding.Set(var, obs::Json::Str(spec.symbols().Name(value)));
    }
    j.Set("witness_binding", std::move(binding));
    j.Set("stick", StepsToJson(response.stick, spec));
    j.Set("candy", StepsToJson(response.candy, spec));
  }
  j.Set("stats", StatsToJson(response.stats));
  if (!response.attempts.empty()) {
    j.Set("attempts", AttemptsToJson(response.attempts));
  }
  j.Set("decided_rung", obs::Json::Int(response.decided_rung));
}

}  // namespace

obs::Json ResponseToJson(const VerifyResponse& response,
                         const WebAppSpec& spec) {
  obs::Json j = obs::Json::Object();
  j.Set("schema_version", obs::Json::Int(kSchemaVersion));
  SetResponseMembers(response, spec, &j);
  return j;
}

StatusOr<VerifyResponse> ResponseFromJson(const obs::Json& j,
                                          WebAppSpec* spec) {
  WAVE_RETURN_IF_ERROR(CheckSchemaVersion(j));
  VerifyResponse response;
  std::string verdict = "unknown";
  WAVE_RETURN_IF_ERROR(ReadString(j, "verdict", &verdict));
  WAVE_ASSIGN_OR_RETURN(response.verdict, ParseVerdict(verdict));
  std::string reason = "none";
  WAVE_RETURN_IF_ERROR(ReadString(j, "unknown_reason", &reason));
  WAVE_ASSIGN_OR_RETURN(response.unknown_reason, ParseUnknownReason(reason));
  WAVE_RETURN_IF_ERROR(
      ReadString(j, "failure_reason", &response.failure_reason));
  const obs::Json* binding = j.Find("witness_binding");
  if (binding != nullptr) {
    WAVE_RETURN_IF_ERROR(RequireObject(*binding, "witness_binding"));
    for (const auto& [var, value] : binding->members()) {
      if (!value.is_string()) return TypeError("witness_binding", "string");
      response.witness_binding[var] = spec->symbols().Intern(value.AsString());
    }
  }
  const obs::Json* stick = j.Find("stick");
  if (stick != nullptr) {
    WAVE_RETURN_IF_ERROR(StepsFromJson(*stick, spec, &response.stick));
  }
  const obs::Json* candy = j.Find("candy");
  if (candy != nullptr) {
    WAVE_RETURN_IF_ERROR(StepsFromJson(*candy, spec, &response.candy));
  }
  const obs::Json* stats = j.Find("stats");
  if (stats != nullptr) {
    WAVE_ASSIGN_OR_RETURN(response.stats, StatsFromJson(*stats));
  }
  const obs::Json* attempts = j.Find("attempts");
  if (attempts != nullptr) {
    if (!attempts->is_array()) return TypeError("attempts", "array");
    for (const obs::Json& attempt_json : attempts->items()) {
      WAVE_ASSIGN_OR_RETURN(AttemptRecord attempt,
                            AttemptFromJson(attempt_json));
      response.attempts.push_back(std::move(attempt));
    }
  }
  WAVE_RETURN_IF_ERROR(ReadInt(j, "decided_rung", &response.decided_rung));
  return response;
}

obs::Json BatchResponseToJson(const BatchResponse& batch,
                              const WebAppSpec& spec) {
  obs::Json j = obs::Json::Object();
  j.Set("schema_version", obs::Json::Int(kSchemaVersion));
  obs::Json responses = obs::Json::Array();
  for (const VerifyResponse& response : batch.responses) {
    // Nested responses carry no stamp of their own: the envelope's governs.
    obs::Json r = obs::Json::Object();
    SetResponseMembers(response, spec, &r);
    responses.Append(std::move(r));
  }
  j.Set("responses", std::move(responses));
  j.Set("merged", StatsToJson(batch.merged));
  return j;
}

StatusOr<BatchResponse> BatchResponseFromJson(const obs::Json& j,
                                              WebAppSpec* spec) {
  WAVE_RETURN_IF_ERROR(CheckSchemaVersion(j));
  BatchResponse batch;
  const obs::Json* responses = j.Find("responses");
  if (responses != nullptr) {
    if (!responses->is_array()) return TypeError("responses", "array");
    for (const obs::Json& response_json : responses->items()) {
      WAVE_ASSIGN_OR_RETURN(VerifyResponse response,
                            ResponseFromJson(response_json, spec));
      batch.responses.push_back(std::move(response));
    }
  }
  const obs::Json* merged = j.Find("merged");
  if (merged != nullptr) {
    WAVE_ASSIGN_OR_RETURN(batch.merged, StatsFromJson(*merged));
  }
  return batch;
}

}  // namespace wave::api
