// wave_verify — command-line front end for the verifier with the full
// observability surface of src/obs (ISSUE 1) and the resilient runtime of
// ISSUE 2 wired up:
//
//   wave_verify specs/e1_shopping.spec --property=P1
//       --trace=out.json --stats-json=stats.json
//
// emits a Chrome trace-event file (open in chrome://tracing or
// https://ui.perfetto.dev) with nested prepare/search/validate spans, and
// a machine-readable stats file carrying every VerifyStats field plus the
// verify.*/trie.*/gpvw.*/prepared.* metrics. `--heartbeat=SECONDS` prints
// periodic progress lines so long verifications are never silent.
//
// Robustness (ISSUE 2): output files are written atomically (temp +
// rename), SIGINT cancels the running search cooperatively and still
// emits the partial stats JSON, `--keep-going` isolates per-property
// failures, and `--retry-ladder` climbs the budget-escalation ladder of
// verifier/verifier.h (`DefaultLadder`) instead of a single fixed-budget
// attempt.
//
// Parallel search (ISSUE 3): `--jobs=N` fans the (assignment, core) shard
// space out over N worker threads via the unified VerifyRequest API; the
// verdict is bit-identical to --jobs=1 (see docs/PARALLELISM.md).
//
// Sessions and caching (ISSUE 4): `--all-properties` verifies the whole
// catalog as ONE `Verifier::RunBatch` call — the spec pre-pass runs once
// and every property's shards share the worker pool — and `--cache-dir=P`
// persists decided verdicts across runs keyed by a fingerprint of
// spec + property + semantics-affecting options, so a re-run with an
// unchanged spec skips the search entirely (see docs/API.md).
#include <csignal>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "api/wire.h"
#include "common/fault.h"
#include "common/io.h"
#include "common/status.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "parser/parser.h"
#include "verifier/cache.h"
#include "verifier/governor.h"
#include "verifier/validate.h"
#include "verifier/verifier.h"

#include "flags.h"

namespace wave {
namespace {

constexpr char kUsage[] = R"(usage: wave_verify <spec-file> [options]

Verifies LTL-FO properties of a Web application spec (see docs/DSL.md).
Without --property, every property block of the file is verified.

options:
  --property=NAME       verify only this property (repeatable)
  --all-properties      verify the whole catalog as one batch call: the
                        spec pre-pass runs once and all properties share
                        the worker pool (cannot combine with --property
                        or --validated; see docs/API.md)
  --cache-dir=PATH      persist decided verdicts under PATH, keyed by
                        spec+property+options fingerprint; later runs with
                        an unchanged spec report them as cache hits and
                        skip the search (created if missing)
  --request=FILE.json   run a wire-schema request fixture (api/wire.h,
                        docs/SERVING.md) against the spec's catalog —
                        exactly what the wave_serve daemon would run
  --response-json=PATH  with --request: write the wire-schema response
                        JSON (atomic; the daemon's over-the-wire bytes)
  --audit-cache         read-only integrity audit of --cache-dir (no spec
                        needed): prints the AuditCacheDir report as JSON,
                        exits 0 iff the directory is safe to serve reads
  --list                list the file's properties and exit
  --trace=PATH          write a Chrome trace-event JSON file (chrome://tracing, Perfetto)
  --stats-json=PATH     write verdicts + VerifyStats + metrics as JSON (atomic)
  --summary             print the aggregated phase-time table after each run
  --heartbeat=SECONDS   print progress lines every SECONDS (default off)
  --jobs=N              search (assignment, core) shards on N worker threads
                        (default 1; 0 = one per hardware thread; at most
                        1024; verdicts are identical at any N — see
                        docs/PARALLELISM.md)
  --timeout=SECONDS     wall-clock budget per property (default 120)
  --max-expansions=N    expansion budget per property (default -1,
                        unlimited)
  --max-candidates=N    candidate-tuple budget, 0..62 (default 20)
  --max-memory-mb=N     approximate memory ceiling for trie+stacks
                        (default -1, unlimited)
  --keep-going          verify remaining properties after an undecided or
                        missing one (default: stop at the first failure)
  --retry-ladder        escalate budgets on budget-limited unknowns
                        (tight -> base -> exhaustive; see docs/ROBUSTNESS.md)
  --validated           replay candidate counterexamples as genuine runs
                        (the Section 7 incomplete-verifier loop)
  --no-heuristic1       disable core pruning
  --no-heuristic2       disable extension pruning
  --exhaustive          enumerate equality patterns among fresh C-exists values
numeric values must be whole numbers (seconds may have a fraction) within
the stated ranges; anything else is a usage error.
exit status: 0 all verdicts decided, 1 usage/load error, 2 some verdict
unknown, 130 interrupted (SIGINT; partial stats JSON is still written)
)";

struct CliOptions {
  std::string spec_path;
  std::vector<std::string> properties;
  bool all_properties = false;
  std::string cache_dir;
  std::string request_path;
  std::string response_json_path;
  bool audit_cache = false;
  bool list = false;
  std::string trace_path;
  std::string stats_path;
  bool summary = false;
  double heartbeat_seconds = 0;
  bool validated = false;
  bool keep_going = false;
  bool retry_ladder = false;
  int jobs = 1;
  VerifyOptions verify;
};

bool ParseArgs(int argc, char** argv, CliOptions* out, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* v = nullptr;
    bool parsed = true;
    if (arg[0] != '-') {
      if (!out->spec_path.empty()) {
        *error = "multiple spec files given";
        return false;
      }
      out->spec_path = arg;
    } else if ((v = FlagValue(arg, "--property")) != nullptr) {
      out->properties.push_back(v);
    } else if (std::strcmp(arg, "--all-properties") == 0) {
      out->all_properties = true;
    } else if ((v = FlagValue(arg, "--cache-dir")) != nullptr) {
      out->cache_dir = v;
    } else if ((v = FlagValue(arg, "--request")) != nullptr) {
      out->request_path = v;
    } else if ((v = FlagValue(arg, "--response-json")) != nullptr) {
      out->response_json_path = v;
    } else if (std::strcmp(arg, "--audit-cache") == 0) {
      out->audit_cache = true;
    } else if (std::strcmp(arg, "--list") == 0) {
      out->list = true;
    } else if ((v = FlagValue(arg, "--trace")) != nullptr) {
      out->trace_path = v;
    } else if ((v = FlagValue(arg, "--stats-json")) != nullptr) {
      out->stats_path = v;
    } else if (std::strcmp(arg, "--summary") == 0) {
      out->summary = true;
    } else if ((v = FlagValue(arg, "--heartbeat")) != nullptr) {
      parsed = ParseNumberFlag(arg, v, 0, kMaxSeconds,
                               &out->heartbeat_seconds, error);
    } else if ((v = FlagValue(arg, "--jobs")) != nullptr) {
      parsed = ParseThreadsFlag(arg, v, 0, &out->jobs, error);
    } else if ((v = FlagValue(arg, "--timeout")) != nullptr) {
      parsed = ParseNumberFlag(arg, v, 0, kMaxSeconds,
                               &out->verify.timeout_seconds, error);
    } else if ((v = FlagValue(arg, "--max-expansions")) != nullptr) {
      parsed = ParseIntFlag(arg, v, -1, kMaxInt64,
                            &out->verify.max_expansions, error);
    } else if ((v = FlagValue(arg, "--max-candidates")) != nullptr) {
      parsed = ParseIntFlag(arg, v, 0, kMaxCandidatesLimit,
                            &out->verify.max_candidates, error);
    } else if ((v = FlagValue(arg, "--max-memory-mb")) != nullptr) {
      int64_t mb = 0;
      parsed = ParseIntFlag(arg, v, -1, kMaxInt64 >> 20, &mb, error);
      out->verify.max_memory_bytes = mb < 0 ? -1 : mb << 20;
    } else if (std::strcmp(arg, "--keep-going") == 0) {
      out->keep_going = true;
    } else if (std::strcmp(arg, "--retry-ladder") == 0) {
      out->retry_ladder = true;
    } else if (std::strcmp(arg, "--validated") == 0) {
      out->validated = true;
    } else if (std::strcmp(arg, "--no-heuristic1") == 0) {
      out->verify.heuristic1 = false;
    } else if (std::strcmp(arg, "--no-heuristic2") == 0) {
      out->verify.heuristic2 = false;
    } else if (std::strcmp(arg, "--exhaustive") == 0) {
      out->verify.exhaustive_existential = true;
    } else {
      *error = std::string("unknown option: ") + arg;
      return false;
    }
    if (!parsed) return false;
  }
  if (out->audit_cache) {
    if (out->cache_dir.empty()) {
      *error = "--audit-cache needs --cache-dir";
      return false;
    }
    return true;  // no spec file involved
  }
  if (out->spec_path.empty()) {
    *error = "no spec file given";
    return false;
  }
  if (!out->request_path.empty() &&
      (out->all_properties || out->validated || out->retry_ladder ||
       !out->properties.empty())) {
    *error = "--request carries its own selection and policy; drop "
             "--property/--all-properties/--validated/--retry-ladder";
    return false;
  }
  if (!out->response_json_path.empty() && out->request_path.empty()) {
    *error = "--response-json needs --request";
    return false;
  }
  if (out->retry_ladder && out->validated) {
    *error = "--retry-ladder and --validated cannot be combined";
    return false;
  }
  if (out->all_properties && out->validated) {
    *error = "--all-properties and --validated cannot be combined";
    return false;
  }
  if (out->all_properties && !out->properties.empty()) {
    *error = "--all-properties verifies the whole catalog; drop --property";
    return false;
  }
  return true;
}

/// SIGINT lands here: a single lock-free atomic store the search observes
/// at its next governor poll. The handler itself does no I/O.
CancellationToken g_interrupt;

extern "C" void HandleSigint(int) { g_interrupt.Cancel(); }

/// --audit-cache: the read-only integrity report, no locks taken, nothing
/// healed. Exit 0 iff the directory is safe to serve reads from as-is.
int RunAuditCache(const std::string& dir) {
  CacheAudit audit = AuditCacheDir(dir);
  obs::Json doc = obs::Json::Object();
  doc.Set("dir", obs::Json::Str(dir));
  doc.Set("entries", obs::Json::Int(audit.entries));
  doc.Set("torn_entries", obs::Json::Int(audit.torn_entries));
  doc.Set("misnamed_entries", obs::Json::Int(audit.misnamed_entries));
  doc.Set("tmp_files", obs::Json::Int(audit.tmp_files));
  doc.Set("quarantined_files", obs::Json::Int(audit.quarantined_files));
  doc.Set("consistent", obs::Json::Bool(audit.consistent()));
  obs::Json problems = obs::Json::Array();
  for (const std::string& p : audit.problems) {
    problems.Append(obs::Json::Str(p));
  }
  doc.Set("problems", std::move(problems));
  std::printf("%s\n", doc.Dump(2).c_str());
  return audit.consistent() ? 0 : 2;
}

/// --request=FILE.json: run one wire-schema request fixture against the
/// spec's catalog — byte-for-byte what wave_serve executes, minus the
/// socket — and optionally write the wire-schema response.
int RunWireRequest(const CliOptions& cli, const ParseResult& parsed,
                   Verifier& verifier, ResultCache* cache) {
  StatusOr<std::string> text = ReadFileToString(cli.request_path);
  if (!text.ok()) {
    std::fprintf(stderr, "wave_verify: %s\n", text.status().ToString().c_str());
    return 1;
  }
  std::string parse_error;
  std::optional<obs::Json> doc = obs::Json::Parse(*text, &parse_error);
  if (!doc.has_value()) {
    std::fprintf(stderr, "wave_verify: %s: %s\n", cli.request_path.c_str(),
                 parse_error.c_str());
    return 1;
  }

  std::vector<Property> catalog;
  catalog.reserve(parsed.properties.size());
  for (const ParsedProperty& p : parsed.properties) {
    catalog.push_back(p.property);
  }

  auto fail = [](const Status& status) {
    std::fprintf(stderr, "wave_verify: %s\n", status.ToString().c_str());
    return 1;
  };

  obs::Json response_json;
  int undecided = 0;
  const bool is_batch = doc->Find("properties") != nullptr ||
                        doc->Find("property_indices") != nullptr;
  if (is_batch) {
    StatusOr<api::WireBatchRequest> request = api::BatchRequestFromJson(*doc);
    if (!request.ok()) return fail(request.status());
    Status bound = api::BindBatchRequest(&*request, catalog);
    if (!bound.ok()) return fail(bound);
    request->request.cache = cache;
    request->request.options.cancellation = &g_interrupt;
    StatusOr<BatchResponse> response = verifier.RunBatch(request->request);
    if (!response.ok()) return fail(response.status());
    const std::vector<int>& indices = request->request.property_indices;
    for (size_t i = 0; i < response->responses.size(); ++i) {
      const VerifyResponse& r = response->responses[i];
      if (r.verdict == Verdict::kUnknown) ++undecided;
      size_t catalog_index = indices.empty() ? i
                                             : static_cast<size_t>(indices[i]);
      std::printf("%-8s %-9s %8.3fs  expansions=%lld%s\n",
                  catalog[catalog_index].name.c_str(), api::VerdictName(r.verdict),
                  r.stats.seconds,
                  static_cast<long long>(r.stats.num_expansions),
                  r.stats.cache_hits > 0 ? "  (cached)" : "");
    }
    response_json = api::BatchResponseToJson(*response, *parsed.spec);
  } else {
    StatusOr<VerifyRequest> request = api::RequestFromJson(*doc);
    if (!request.ok()) return fail(request.status());
    request->properties = &catalog;
    request->cache = cache;
    request->options.cancellation = &g_interrupt;
    StatusOr<VerifyResponse> response = verifier.Run(*request);
    if (!response.ok()) return fail(response.status());
    if (response->verdict == Verdict::kUnknown) ++undecided;
    std::printf("%-8s %-9s %8.3fs  expansions=%lld%s\n",
                request->property_name.empty() ? "request"
                                               : request->property_name.c_str(),
                api::VerdictName(response->verdict), response->stats.seconds,
                static_cast<long long>(response->stats.num_expansions),
                response->stats.cache_hits > 0 ? "  (cached)" : "");
    response_json = api::ResponseToJson(*response, *parsed.spec);
  }

  if (!cli.response_json_path.empty()) {
    Status written = AtomicWriteFile(cli.response_json_path,
                                     response_json.Dump(2) + "\n");
    if (!written.ok()) return fail(written);
    std::fprintf(stderr, "response written to %s\n",
                 cli.response_json_path.c_str());
  }
  return undecided > 0 ? 2 : 0;
}

int Main(int argc, char** argv) {
  CliOptions cli;
  std::string error;
  if (!ParseArgs(argc, argv, &cli, &error)) {
    std::fprintf(stderr, "wave_verify: %s\n%s", error.c_str(), kUsage);
    return 1;
  }

  // Deterministic fault injection (ISSUE 7): WAVE_FAULT_SPEC in the
  // environment arms a scenario for this whole process — how
  // tools/wave_crash drives its kill-points through us.
  if (Status armed = fault::ArmFromEnv(); !armed.ok()) {
    std::fprintf(stderr, "wave_verify: WAVE_FAULT_SPEC: %s\n",
                 armed.ToString().c_str());
    return 1;
  }

  if (cli.audit_cache) return RunAuditCache(cli.cache_dir);

  StatusOr<ParseResult> loaded = ParseSpecFile(cli.spec_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "wave_verify: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  ParseResult parsed = std::move(loaded).value();
  if (!parsed.ok()) {
    std::fprintf(stderr, "wave_verify: %s does not parse:\n%s\n",
                 cli.spec_path.c_str(), parsed.ErrorText().c_str());
    return 1;
  }

  if (cli.list) {
    for (const ParsedProperty& p : parsed.properties) {
      std::printf("%-8s %-5s expect %s\n", p.property.name.c_str(),
                  p.property.type_code.c_str(),
                  !p.has_expected ? "?" : p.expected ? "true" : "false");
    }
    return 0;
  }

  std::vector<const ParsedProperty*> selected;
  bool load_failures = false;
  if (cli.properties.empty()) {
    for (const ParsedProperty& p : parsed.properties) selected.push_back(&p);
    if (selected.empty()) {
      std::fprintf(stderr, "wave_verify: %s declares no properties\n",
                   cli.spec_path.c_str());
      return 1;
    }
  } else {
    for (const std::string& name : cli.properties) {
      const ParsedProperty* found = nullptr;
      for (const ParsedProperty& p : parsed.properties) {
        if (p.property.name == name) found = &p;
      }
      if (found == nullptr) {
        std::fprintf(stderr,
                     "wave_verify: no property '%s' in %s (try --list)\n",
                     name.c_str(), cli.spec_path.c_str());
        if (!cli.keep_going) return 1;
        load_failures = true;
        continue;
      }
      selected.push_back(found);
    }
    if (selected.empty()) return 1;
  }

  std::optional<obs::Tracer> tracer;
  if (!cli.trace_path.empty() || cli.summary) tracer.emplace();
  obs::MetricsRegistry metrics;

  VerifyOptions options = cli.verify;
  options.tracer = tracer ? &*tracer : nullptr;
  options.metrics = &metrics;
  options.cancellation = &g_interrupt;
  if (cli.heartbeat_seconds > 0) {
    options.heartbeat_interval_seconds = cli.heartbeat_seconds;
    options.heartbeat = [](const HeartbeatSnapshot& hb) {
      std::fprintf(stderr,
                   "  [%7.1fs] expansions=%lld successors=%lld cores=%lld "
                   "assignments=%lld trie=%d\n",
                   hb.elapsed_seconds,
                   static_cast<long long>(hb.num_expansions),
                   static_cast<long long>(hb.num_successors),
                   static_cast<long long>(hb.num_cores),
                   static_cast<long long>(hb.num_assignments), hb.trie_size);
    };
  }

  std::signal(SIGINT, HandleSigint);

  StatusOr<std::unique_ptr<Verifier>> verifier_or =
      Verifier::Create(parsed.spec.get());
  if (!verifier_or.ok()) {
    std::fprintf(stderr, "wave_verify: %s\n",
                 verifier_or.status().ToString().c_str());
    return 1;
  }
  Verifier& verifier = **verifier_or;

  std::unique_ptr<ResultCache> cache;
  if (!cli.cache_dir.empty()) {
    StatusOr<std::unique_ptr<ResultCache>> opened =
        ResultCache::Open(cli.cache_dir);
    if (!opened.ok()) {
      std::fprintf(stderr, "wave_verify: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    cache = std::move(*opened);
  }

  if (!cli.request_path.empty()) {
    return RunWireRequest(cli, parsed, verifier, cache.get());
  }

  // --all-properties: one RunBatch call over the whole catalog. The spec
  // pre-pass runs once, every property's shards share the worker pool,
  // and the responses come back in catalog order for the shared printing
  // loop below.
  std::optional<BatchResponse> batch;
  std::vector<Property> catalog;  // must outlive RunBatch
  if (cli.all_properties) {
    catalog.reserve(parsed.properties.size());
    for (const ParsedProperty& p : parsed.properties) {
      catalog.push_back(p.property);
    }
    BatchRequest request;
    request.properties = &catalog;
    request.options = options;
    request.retry.enabled = cli.retry_ladder;
    request.jobs = cli.jobs;
    request.cache = cache.get();
    StatusOr<BatchResponse> response = verifier.RunBatch(request);
    if (!response.ok()) {
      std::fprintf(stderr, "wave_verify: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
    batch = std::move(*response);
  }

  obs::Json runs = obs::Json::Array();
  int undecided = 0;
  bool interrupted = false;
  for (size_t index = 0; index < selected.size(); ++index) {
    const ParsedProperty* p = selected[index];
    if (!batch.has_value() && g_interrupt.cancelled()) {
      // Remaining properties are skipped: the user asked us to stop. (A
      // batch already holds a response for every property — cancelled
      // ones report kUnknown/kCancelled — so printing continues.)
      interrupted = true;
      break;
    }
    VerifyResult r;
    obs::Json attempts;
    if (batch.has_value()) {
      VerifyResponse& response = batch->responses[index];
      if (cli.retry_ladder) attempts = api::AttemptsToJson(response.attempts);
      r = std::move(static_cast<VerifyResult&>(response));
    } else if (cli.validated) {
      // The Section 7 loop installs its own candidate filter, so it keeps
      // its dedicated entry point (which routes through Run internally).
      r = VerifyValidated(&verifier, parsed.spec.get(), p->property, options,
                          cli.jobs);
    } else {
      VerifyRequest request;
      request.property = &p->property;
      request.options = options;
      request.retry.enabled = cli.retry_ladder;
      request.jobs = cli.jobs;
      request.cache = cache.get();
      StatusOr<VerifyResponse> response = verifier.Run(request);
      if (!response.ok()) {
        std::fprintf(stderr, "wave_verify: %s: %s\n", p->property.name.c_str(),
                     response.status().ToString().c_str());
        if (!cli.keep_going) return 1;
        load_failures = true;
        continue;
      }
      if (cli.retry_ladder) attempts = api::AttemptsToJson(response->attempts);
      r = std::move(static_cast<VerifyResult&>(*response));
    }
    if (r.unknown_reason == UnknownReason::kCancelled) interrupted = true;
    if (r.verdict == Verdict::kUnknown) ++undecided;
    std::printf("%-8s %-9s %8.3fs  expansions=%lld trie=%d buchi=%d%s%s%s\n",
                p->property.name.c_str(), api::VerdictName(r.verdict),
                r.stats.seconds, static_cast<long long>(r.stats.num_expansions),
                r.stats.max_trie_size, r.stats.buchi_states,
                r.stats.cache_hits > 0 ? "  (cached)" : "",
                r.failure_reason.empty() ? "" : "  — ",
                r.failure_reason.c_str());
    if (r.verdict == Verdict::kViolated) {
      std::printf("%s", r.CounterexampleString(*parsed.spec).c_str());
    }

    obs::Json run = obs::Json::Object();
    run.Set("property", obs::Json::Str(p->property.name));
    run.Set("type", obs::Json::Str(p->property.type_code));
    run.Set("verdict", obs::Json::Str(api::VerdictName(r.verdict)));
    if (p->has_expected) run.Set("expected_holds", obs::Json::Bool(p->expected));
    if (!r.failure_reason.empty()) {
      run.Set("failure_reason", obs::Json::Str(r.failure_reason));
    }
    if (r.verdict == Verdict::kUnknown) {
      run.Set("unknown_reason",
              obs::Json::Str(UnknownReasonName(r.unknown_reason)));
    }
    if (cli.retry_ladder) run.Set("attempts", std::move(attempts));
    run.Set("stats", r.stats.ToJson());
    runs.Append(std::move(run));

    // Per-property fault isolation: without --keep-going an undecided
    // property stops the run (its partial results are still reported and
    // written). Cancellation stops the loop regardless. A batch already
    // paid for every verdict, so all of them are reported.
    if (batch.has_value()) continue;
    if (interrupted) break;
    if (r.verdict == Verdict::kUnknown && !cli.keep_going) break;
  }

  if (batch.has_value()) {
    const VerifyStats& m = batch->merged;
    std::printf("batch    %zu properties %8.3fs  cache_hits=%lld "
                "prepass_reuses=%lld\n",
                batch->responses.size(), m.seconds,
                static_cast<long long>(m.cache_hits),
                static_cast<long long>(m.prepass_reuses));
  }

  // Silent-corruption fix (ISSUE 7 satellite): a cache that quarantined
  // or merely detected corrupt entries says so out loud — the records
  // are preserved under <cache>/quarantine/ for postmortem, and the
  // counts ride in the verify.cache.* metrics of the stats JSON.
  if (cache != nullptr && cache->health().corrupt > 0) {
    std::fprintf(stderr,
                 "wave_verify: warning: %lld corrupt cache entr%s detected "
                 "(%lld moved to %s/quarantine); re-verified from scratch\n",
                 static_cast<long long>(cache->health().corrupt),
                 cache->health().corrupt == 1 ? "y" : "ies",
                 static_cast<long long>(cache->health().quarantined),
                 cache->dir().c_str());
  }

  if (cli.summary && tracer) {
    std::printf("\n%s", tracer->PhaseSummary().c_str());
    std::printf("\n%s", metrics.Summary().c_str());
  }

  // Output files are written even after SIGINT — a cancelled run's partial
  // stats are exactly what a user who interrupted a hung property wants.
  // AtomicWriteFile stages to `<path>.tmp` + rename, so a reader (or a
  // second interrupt mid-write) never sees a truncated file.
  int exit_code = undecided > 0 ? 2 : 0;
  if (load_failures) exit_code = 1;
  if (interrupted) exit_code = 130;  // 128 + SIGINT

  if (!cli.trace_path.empty()) {
    Status written = AtomicWriteFile(cli.trace_path,
                                     tracer->ToChromeTraceJson());
    if (!written.ok()) {
      std::fprintf(stderr, "wave_verify: %s\n", written.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "trace written to %s (%zu events)\n",
                 cli.trace_path.c_str(), tracer->events().size());
  }

  if (!cli.stats_path.empty()) {
    // Armed fault tallies ride in the stats JSON (fault.hits.* /
    // fault.injected.*), so harnesses can assert a site actually fired.
    fault::ExportMetrics(&metrics);
    obs::Json doc = obs::Json::Object();
    doc.Set("spec", obs::Json::Str(cli.spec_path));
    doc.Set("app", obs::Json::Str(parsed.spec->name));
    doc.Set("interrupted", obs::Json::Bool(interrupted));
    if (batch.has_value()) doc.Set("batch", batch->merged.ToJson());
    doc.Set("runs", std::move(runs));
    doc.Set("metrics", metrics.ToJson());
    Status written = AtomicWriteFile(cli.stats_path, doc.Dump(2) + "\n");
    if (!written.ok()) {
      std::fprintf(stderr, "wave_verify: %s\n", written.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "stats written to %s\n", cli.stats_path.c_str());
  }

  return exit_code;
}

}  // namespace
}  // namespace wave

int main(int argc, char** argv) { return wave::Main(argc, argv); }
