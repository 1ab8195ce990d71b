// Versioned wire schema for the verifier API (ISSUE 9).
//
// `Verifier::Run`/`RunBatch` consume in-process structs full of borrowed
// pointers; a daemon, CLI clients and future frontends need the same
// types as *values on a wire*. This layer defines the JSON encoding:
//
//   * every top-level document is stamped `"schema_version": 1`
//     (`kSchemaVersion`). A missing stamp is read as version 1; a stamp
//     newer than this build understands is a typed InvalidArgument, so
//     old servers fail loudly instead of guessing;
//   * unknown fields are ignored everywhere (forward compatibility: a
//     newer client may send fields this build does not know);
//   * symbols travel by *name* (witness bindings, counterexample tuples,
//     page names) — SymbolIds are process-local interning artifacts;
//   * options round-trip exactly: every serializable `VerifyOptions`
//     field is always emitted, so parse→serialize is canonical and
//     byte-stable. Process-local members (callbacks, tracer/metrics
//     pointers, cancellation tokens, cache handles) are NOT serialized;
//     the receiving side wires its own;
//   * histograms use a lossless sparse-bucket encoding (`HistogramData`
//     merges are exact, and so is the wire form), unlike the summary
//     shape `VerifyStats::ToJson` emits for human-facing stats files.
//
// This is the only JSON codec for these types. The on-disk `ResultCache`
// record (verifier/cache.cc) is a `ResponseToJson` document plus the
// cache's own `format`/`key` members, read back with `ResponseFromJson`,
// so a schema change here must keep reading the records already on disk:
// tests/golden/cache_v2/ holds entries written before the cache used this
// codec. `VerifyStats::ToJson` stays the human-facing percentile summary
// behind `--stats-json`.
#ifndef WAVE_API_WIRE_H_
#define WAVE_API_WIRE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "verifier/verifier.h"

namespace wave::api {

/// The wire schema version this build reads and writes.
inline constexpr int kSchemaVersion = 1;

/// Verifies a document's `schema_version` stamp: absent reads as 1,
/// anything in [1, kSchemaVersion] is accepted, newer is InvalidArgument.
Status CheckSchemaVersion(const obs::Json& doc);

// --- enum <-> stable wire names ---------------------------------------------

// `VerdictName` / `ParseVerdict`: declared beside `Verdict` (verifier.h).

/// Inverse of `UnknownReasonName` (governor.h); InvalidArgument on an
/// unknown name.
StatusOr<UnknownReason> ParseUnknownReason(const std::string& name);

/// Inverse of `StatusCodeName` (common/status.h); InvalidArgument on an
/// unknown name.
StatusOr<StatusCode> ParseStatusCode(const std::string& name);

// --- Status -----------------------------------------------------------------

/// {"code": "INVALID_ARGUMENT", "message": "..."} — the source location is
/// process-local and does not travel.
obs::Json StatusToJson(const Status& status);
/// Out-parameter form (a `StatusOr<Status>` would be ambiguous): `*out`
/// receives the decoded status, the return value reports decode failure.
Status StatusFromJson(const obs::Json& j, Status* out);

// --- options / retry --------------------------------------------------------

/// Every serializable field, always emitted (canonical form).
obs::Json OptionsToJson(const VerifyOptions& options);
StatusOr<VerifyOptions> OptionsFromJson(const obs::Json& j);

obs::Json RetryPolicyToJson(const RetryPolicy& retry);
StatusOr<RetryPolicy> RetryPolicyFromJson(const obs::Json& j);

// --- stats (lossless, incl. histograms) -------------------------------------

/// Sparse-bucket lossless encoding: {"count":N,"sum":S,"min":m,"max":M,
/// "buckets":[[index,count],...]}; an empty histogram is {"count":0}.
obs::Json HistogramToJson(const obs::HistogramData& h);
StatusOr<obs::HistogramData> HistogramFromJson(const obs::Json& j);

obs::Json StatsToJson(const VerifyStats& stats);
StatusOr<VerifyStats> StatsFromJson(const obs::Json& j);

// --- requests ---------------------------------------------------------------

/// Serializes the property selector by NAME: a `property` pointer renders
/// as its name, `property_name` as itself, `property_index` as the index.
/// `properties`/`cache` pointers do not travel — the receiver binds its
/// own catalog and cache.
obs::Json RequestToJson(const VerifyRequest& request);

/// Parses a request; the property selector comes back as
/// `property_name`/`property_index` for the caller to bind (set
/// `request.properties` to a catalog before `Verifier::Run`).
StatusOr<VerifyRequest> RequestFromJson(const obs::Json& j);

/// A `BatchRequest` plus the wire-only by-name selector (the in-process
/// struct selects by index only; the wire also accepts names, which the
/// server resolves against its catalog).
struct WireBatchRequest {
  BatchRequest request;
  std::vector<std::string> property_names;
};

obs::Json BatchRequestToJson(const WireBatchRequest& batch);
StatusOr<WireBatchRequest> BatchRequestFromJson(const obs::Json& j);

/// Resolves `property_names` (if any) against `properties` into
/// `request.property_indices` and binds the catalog pointer.
/// NotFound for a name missing from the catalog.
Status BindBatchRequest(WireBatchRequest* batch,
                        const std::vector<Property>& properties);

// --- responses --------------------------------------------------------------

obs::Json AttemptToJson(const AttemptRecord& attempt);
StatusOr<AttemptRecord> AttemptFromJson(const obs::Json& j);
/// The `attempts` array of a response, also what `wave_verify
/// --stats-json` writes under each run's `attempts`.
obs::Json AttemptsToJson(const std::vector<AttemptRecord>& attempts);

/// Counterexample steps/bindings render symbols by name via `spec`.
obs::Json ResponseToJson(const VerifyResponse& response,
                         const WebAppSpec& spec);
/// Re-interns symbol names into `spec`'s symbol table.
StatusOr<VerifyResponse> ResponseFromJson(const obs::Json& j,
                                          WebAppSpec* spec);

obs::Json BatchResponseToJson(const BatchResponse& batch,
                              const WebAppSpec& spec);
StatusOr<BatchResponse> BatchResponseFromJson(const obs::Json& j,
                                              WebAppSpec* spec);

}  // namespace wave::api

#endif  // WAVE_API_WIRE_H_
