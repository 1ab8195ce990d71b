// Umbrella header for the WAVE verifier's stable embedding surface.
//
// Applications that embed WAVE as a library should include this header and
// nothing else; it pulls in exactly the pieces needed to load or build a
// spec, issue a VerifyRequest, and interpret the VerifyResponse:
//
//   #include "wave.h"
//
//   wave::WebAppSpec spec = ...;                 // parser/ or apps/
//   auto verifier = wave::Verifier::Create(&spec);
//   wave::VerifyRequest request;
//   request.property_name = "no_double_booking";
//   request.jobs = 4;
//   wave::StatusOr<wave::VerifyResponse> response =
//       (*verifier)->Run(request);
//
// Stable (re-exported here):
//   common/status.h       — Status / StatusOr error model
//   spec/web_app.h        — WebAppSpec, Property, schemas
//   parser/parser.h       — the .wave spec language front end
//   ltl/patterns.h        — LTL-FO property construction helpers
//   verifier/verifier.h   — Verifier, VerifyRequest/VerifyResponse,
//                           BatchRequest/BatchResponse, VerifyOptions,
//                           VerifyResult, RetryPolicy
//   verifier/cache.h      — ResultCache, the persistent cross-run result
//                           cache keyed by spec+property+options fingerprint
//   verifier/session.h    — VerifierSession, the per-spec memo of pre-pass
//                           artifacts behind Run/RunBatch (advanced use)
//   verifier/validate.h   — counterexample validation (Section 7 mode)
//   verifier/governor.h   — GovernorLimits, UnknownReason, CancellationToken
//   api/wire.h            — the versioned JSON wire schema for
//                           requests/responses (what wave_serve speaks)
//   obs/metrics.h, obs/tracer.h — observability hooks for VerifyOptions
//
// Everything else under src/ (analysis/, buchi/, fo/, relational/,
// verifier/{config_store,encode,shard,worker_pool}.h, ...) is internal: those
// headers may change layout or disappear between versions without notice.
// See README.md "Stable vs internal headers".
#ifndef WAVE_WAVE_H_
#define WAVE_WAVE_H_

#include "api/wire.h"
#include "common/status.h"
#include "ltl/patterns.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "parser/parser.h"
#include "spec/web_app.h"
#include "verifier/cache.h"
#include "verifier/governor.h"
#include "verifier/session.h"
#include "verifier/validate.h"
#include "verifier/verifier.h"

#endif  // WAVE_WAVE_H_
