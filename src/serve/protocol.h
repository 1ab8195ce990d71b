// Wire protocol of the `wave_serve` daemon (ISSUE 9): line-delimited JSON
// over a TCP or Unix-domain socket.
//
// Each request is ONE line — a JSON envelope around an api/wire.h
// document:
//
//   {"schema_version":1, "id":"r1", "verb":"verify",
//    "spec":"<inline spec text>",            // or "spec_path":"E1.wave"
//    "request":{...api::RequestToJson...}}
//
// Verbs: "verify" (api VerifyRequest), "batch" (api WireBatchRequest),
// "metrics" (dumps the server's MetricsRegistry), "ping" (liveness).
// Each response is one line back, matched to the request by `id`:
//
//   {"schema_version":1, "id":"r1", "ok":true,  "response":{...}}
//   {"schema_version":1, "id":"r1", "ok":false, "status":{"code":...}}
//
// A malformed line yields an `ok:false` envelope (id "" when the line did
// not parse far enough to recover one) and the connection stays open —
// clients pipeline requests, one bad frame must not poison the rest. A
// request line longer than `kMaxRequestLine` gets one INVALID_ARGUMENT
// envelope (id "") naming the cap, and then its connection closes.
// Version policy is the api/wire.h one: unstamped envelopes read as
// version 1; newer stamps are rejected with INVALID_ARGUMENT.
#ifndef WAVE_SERVE_PROTOCOL_H_
#define WAVE_SERVE_PROTOCOL_H_

#include <cstddef>
#include <string>

#include "api/wire.h"
#include "common/status.h"
#include "obs/json.h"

namespace wave::serve {

/// Longest request line the daemon frames, not counting its '\n'.
inline constexpr size_t kMaxRequestLine = size_t{4} << 20;  // 4 MiB

enum class Verb {
  kVerify = 0,
  kBatch,
  kMetrics,
  kPing,
};

/// "verify" / "batch" / "metrics" / "ping".
const char* VerbName(Verb verb);
/// Inverse of `VerbName`; InvalidArgument on an unknown verb.
StatusOr<Verb> ParseVerb(const std::string& name);

/// One parsed request line.
struct RequestEnvelope {
  std::string id;         // client-chosen correlation token (echoed back)
  Verb verb = Verb::kPing;
  std::string spec_text;  // inline spec source ("spec")
  std::string spec_path;  // server-side spec file ("spec_path")
  obs::Json request;      // verb-specific payload (null for metrics/ping)
};

/// Parses one request line. Typed InvalidArgument on malformed JSON, an
/// unknown verb, an unsupported schema_version, or a verify/batch envelope
/// with neither/both of spec and spec_path.
StatusOr<RequestEnvelope> ParseRequestLine(const std::string& line);

/// Serializes a request envelope (the client side of `ParseRequestLine`).
obs::Json RequestEnvelopeToJson(const RequestEnvelope& envelope);

/// Success / failure response envelopes.
obs::Json OkEnvelope(const std::string& id, obs::Json response);
obs::Json ErrorEnvelope(const std::string& id, const Status& status);

/// One parsed response line (the client side).
struct ResponseEnvelope {
  std::string id;
  bool ok = false;
  obs::Json response;  // set when ok
  Status status;       // set when !ok
};
StatusOr<ResponseEnvelope> ParseResponseLine(const std::string& line);

/// The protocol frame: `doc` serialized compactly plus the terminating
/// newline. Compact form contains no raw newlines (obs::Json escapes
/// them inside strings), so one frame is exactly one line.
std::string FrameLine(const obs::Json& doc);

}  // namespace wave::serve

#endif  // WAVE_SERVE_PROTOCOL_H_
