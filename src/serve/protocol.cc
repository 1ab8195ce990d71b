#include "serve/protocol.h"

#include <utility>

namespace wave::serve {

const char* VerbName(Verb verb) {
  switch (verb) {
    case Verb::kVerify: return "verify";
    case Verb::kBatch: return "batch";
    case Verb::kMetrics: return "metrics";
    case Verb::kPing: return "ping";
  }
  return "?";
}

StatusOr<Verb> ParseVerb(const std::string& name) {
  if (name == "verify") return Verb::kVerify;
  if (name == "batch") return Verb::kBatch;
  if (name == "metrics") return Verb::kMetrics;
  if (name == "ping") return Verb::kPing;
  return Status::InvalidArgument("unknown verb '" + name + "'", WAVE_LOC);
}

StatusOr<RequestEnvelope> ParseRequestLine(const std::string& line) {
  std::string error;
  std::optional<obs::Json> doc = obs::Json::Parse(line, &error);
  if (!doc.has_value()) {
    return Status::InvalidArgument("malformed request line: " + error,
                                   WAVE_LOC);
  }
  WAVE_RETURN_IF_ERROR(api::CheckSchemaVersion(*doc));

  RequestEnvelope envelope;
  const obs::Json* id = doc->Find("id");
  if (id != nullptr) {
    if (!id->is_string()) {
      return Status::InvalidArgument("id: expected string", WAVE_LOC);
    }
    envelope.id = id->AsString();
  }
  const obs::Json* verb = doc->Find("verb");
  if (verb == nullptr || !verb->is_string()) {
    return Status::InvalidArgument("missing verb", WAVE_LOC);
  }
  WAVE_ASSIGN_OR_RETURN(envelope.verb, ParseVerb(verb->AsString()));

  const obs::Json* spec = doc->Find("spec");
  if (spec != nullptr) {
    if (!spec->is_string()) {
      return Status::InvalidArgument("spec: expected string", WAVE_LOC);
    }
    envelope.spec_text = spec->AsString();
  }
  const obs::Json* spec_path = doc->Find("spec_path");
  if (spec_path != nullptr) {
    if (!spec_path->is_string()) {
      return Status::InvalidArgument("spec_path: expected string", WAVE_LOC);
    }
    envelope.spec_path = spec_path->AsString();
  }
  if (envelope.verb == Verb::kVerify || envelope.verb == Verb::kBatch) {
    bool has_text = !envelope.spec_text.empty();
    bool has_path = !envelope.spec_path.empty();
    if (has_text == has_path) {
      return Status::InvalidArgument(
          std::string(VerbName(envelope.verb)) +
              " needs exactly one of 'spec' and 'spec_path'",
          WAVE_LOC);
    }
    obs::Json* request = doc->Find("request");
    if (request == nullptr || !request->is_object()) {
      return Status::InvalidArgument("missing request object", WAVE_LOC);
    }
    envelope.request = std::move(*request);
  }
  return envelope;
}

obs::Json RequestEnvelopeToJson(const RequestEnvelope& envelope) {
  obs::Json j = obs::Json::Object();
  j.Set("schema_version", obs::Json::Int(api::kSchemaVersion));
  j.Set("id", obs::Json::Str(envelope.id));
  j.Set("verb", obs::Json::Str(VerbName(envelope.verb)));
  if (!envelope.spec_text.empty()) {
    j.Set("spec", obs::Json::Str(envelope.spec_text));
  }
  if (!envelope.spec_path.empty()) {
    j.Set("spec_path", obs::Json::Str(envelope.spec_path));
  }
  if (envelope.verb == Verb::kVerify || envelope.verb == Verb::kBatch) {
    j.Set("request", envelope.request);
  }
  return j;
}

obs::Json OkEnvelope(const std::string& id, obs::Json response) {
  obs::Json j = obs::Json::Object();
  j.Set("schema_version", obs::Json::Int(api::kSchemaVersion));
  j.Set("id", obs::Json::Str(id));
  j.Set("ok", obs::Json::Bool(true));
  j.Set("response", std::move(response));
  return j;
}

obs::Json ErrorEnvelope(const std::string& id, const Status& status) {
  obs::Json j = obs::Json::Object();
  j.Set("schema_version", obs::Json::Int(api::kSchemaVersion));
  j.Set("id", obs::Json::Str(id));
  j.Set("ok", obs::Json::Bool(false));
  j.Set("status", api::StatusToJson(status));
  return j;
}

StatusOr<ResponseEnvelope> ParseResponseLine(const std::string& line) {
  std::string error;
  std::optional<obs::Json> doc = obs::Json::Parse(line, &error);
  if (!doc.has_value()) {
    return Status::InvalidArgument("malformed response line: " + error,
                                   WAVE_LOC);
  }
  WAVE_RETURN_IF_ERROR(api::CheckSchemaVersion(*doc));

  ResponseEnvelope envelope;
  const obs::Json* id = doc->Find("id");
  if (id != nullptr && id->is_string()) envelope.id = id->AsString();
  const obs::Json* ok = doc->Find("ok");
  if (ok == nullptr || !ok->is_bool()) {
    return Status::InvalidArgument("missing ok flag", WAVE_LOC);
  }
  envelope.ok = ok->AsBool();
  if (envelope.ok) {
    obs::Json* response = doc->Find("response");
    if (response == nullptr) {
      return Status::InvalidArgument("ok envelope missing response",
                                     WAVE_LOC);
    }
    envelope.response = std::move(*response);
  } else {
    const obs::Json* status = doc->Find("status");
    if (status == nullptr) {
      return Status::InvalidArgument("error envelope missing status",
                                     WAVE_LOC);
    }
    WAVE_RETURN_IF_ERROR(api::StatusFromJson(*status, &envelope.status));
  }
  return envelope;
}

std::string FrameLine(const obs::Json& doc) {
  std::string frame = doc.Dump();
  frame.push_back('\n');
  return frame;
}

}  // namespace wave::serve
