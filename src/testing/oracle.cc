#include "testing/oracle.h"

#include <map>
#include <memory>
#include <utility>

#include "common/fault.h"
#include "common/stopwatch.h"
#include "parser/parser.h"
#include "verifier/cache.h"

namespace wave::testing {

const char* OracleAxisName(OracleAxis axis) {
  switch (axis) {
    case OracleAxis::kBaseline: return "baseline";
    case OracleAxis::kJobs: return "jobs";
    case OracleAxis::kBatch: return "batch";
    case OracleAxis::kCache: return "cache";
    case OracleAxis::kRename: return "rename";
    case OracleAxis::kReorder: return "reorder";
  }
  return "?";
}

namespace {

bool Decided(Verdict v) { return v != Verdict::kUnknown; }

/// A parsed-and-vetted case: the validity contract the generator promises
/// (parse, structural validation, input-boundedness), plus a ready
/// verifier. Any failure is a generator (or metamorphic-transform) bug.
struct ParsedCase {
  ParseResult parsed;
  std::unique_ptr<Verifier> verifier;
  std::string error;
  bool ok = false;

  const Property& property() const { return parsed.properties[0].property; }
};

ParsedCase ParseAndValidate(const std::string& text) {
  ParsedCase out;
  out.parsed = ParseSpec(text);
  if (!out.parsed.ok()) {
    out.error = "parse: " + out.parsed.ErrorText();
    return out;
  }
  if (out.parsed.properties.empty()) {
    out.error = "no property block";
    return out;
  }
  std::vector<std::string> issues = out.parsed.spec->Validate();
  if (!issues.empty()) {
    out.error = "validate: " + issues[0];
    return out;
  }
  issues = out.parsed.spec->CheckInputBoundedness();
  if (!issues.empty()) {
    out.error = "input-boundedness: " + issues[0];
    return out;
  }
  StatusOr<std::unique_ptr<Verifier>> verifier =
      Verifier::Create(out.parsed.spec.get());
  if (!verifier.ok()) {
    out.error = "Verifier::Create: " + verifier.status().ToString();
    return out;
  }
  out.verifier = std::move(*verifier);
  out.ok = true;
  return out;
}

/// One engine run through the unified request API. A Status error (which
/// a valid generated case should never produce) comes back via `error`.
VerifyResult RunOnce(Verifier* verifier, const Property& property,
                     const VerifyOptions& options, int jobs,
                     ResultCache* cache, std::string* error) {
  VerifyRequest request;
  request.property = &property;
  request.options = options;
  request.jobs = jobs;
  request.cache = cache;
  StatusOr<VerifyResponse> response = verifier->Run(request);
  if (!response.ok()) {
    *error = response.status().ToString();
    return {};
  }
  return std::move(static_cast<VerifyResult&>(*response));
}

/// Fills the comparison fields of `check` given the reference verdict and
/// the axis-side result. Only decided-vs-decided pairs compare; an
/// undecided side records why and skips (budget-limited cases are
/// expected, not failures).
void CompareVerdicts(AxisCheck* check, Verdict reference,
                     UnknownReason reference_reason, const VerifyResult& side) {
  check->ran = true;
  check->expected = reference;
  check->actual = side.verdict;
  if (!Decided(reference)) {
    check->detail = std::string("skipped: reference undecided (") +
                    UnknownReasonName(reference_reason) + ")";
    return;
  }
  if (!Decided(side.verdict)) {
    check->detail = std::string("skipped: axis undecided (") +
                    UnknownReasonName(side.unknown_reason) + ": " +
                    side.failure_reason + ")";
    return;
  }
  check->compared = true;
  check->agreed = side.verdict == reference;
  if (!check->agreed) {
    check->detail = std::string("verdict mismatch: reference ") +
                    api::VerdictName(reference) + " vs " +
                    api::VerdictName(side.verdict);
  }
}

void FailAxis(AxisCheck* check, std::string detail) {
  check->ran = true;
  check->agreed = false;
  check->detail = std::move(detail);
}

/// Runs one metamorphic variant (rename / reorder): the variant must
/// still satisfy the validity contract and, when both sides decide, must
/// return the reference verdict.
AxisCheck CheckVariant(OracleAxis axis, const FuzzCase& variant,
                       Verdict reference, UnknownReason reference_reason,
                       const VerifyOptions& options) {
  AxisCheck check;
  check.axis = axis;
  Stopwatch watch;
  ParsedCase parsed = ParseAndValidate(variant.Text());
  if (!parsed.ok) {
    FailAxis(&check, std::string(OracleAxisName(axis)) +
                         " variant invalid: " + parsed.error);
    check.seconds = watch.ElapsedSeconds();
    return check;
  }
  std::string error;
  VerifyResult result = RunOnce(parsed.verifier.get(), parsed.property(),
                                options, /*jobs=*/1, nullptr, &error);
  if (!error.empty()) {
    FailAxis(&check, "Run failed: " + error);
    check.seconds = watch.ElapsedSeconds();
    return check;
  }
  CompareVerdicts(&check, reference, reference_reason, result);
  check.seconds = watch.ElapsedSeconds();
  return check;
}

}  // namespace

bool OracleReport::disagreed() const {
  for (const AxisCheck& check : axes) {
    if (!check.agreed) return true;
  }
  return false;
}

const AxisCheck* OracleReport::FindAxis(OracleAxis axis) const {
  for (const AxisCheck& check : axes) {
    if (check.axis == axis) return &check;
  }
  return nullptr;
}

std::string OracleReport::Summary() const {
  std::string out = "seed " + std::to_string(seed);
  if (!valid) return out + " INVALID: " + invalid_reason;
  out += std::string(" ref=") + api::VerdictName(reference);
  if (flip_injected) out += " (flip injected)";
  for (const AxisCheck& check : axes) {
    out += std::string(" ") + OracleAxisName(check.axis) + "=";
    if (!check.ran) {
      out += "-";
    } else if (!check.agreed) {
      out += std::string("DISAGREE(") + api::VerdictName(check.actual) + ")";
    } else if (!check.compared) {
      out += "skip";
    } else {
      out += api::VerdictName(check.actual);
    }
  }
  return out;
}

obs::Json OracleReport::ToJson() const {
  obs::Json doc = obs::Json::Object();
  doc.Set("seed", obs::Json::Int(static_cast<int64_t>(seed)));
  doc.Set("valid", obs::Json::Bool(valid));
  if (!valid) doc.Set("invalid_reason", obs::Json::Str(invalid_reason));
  doc.Set("reference", obs::Json::Str(api::VerdictName(reference)));
  if (reference == Verdict::kUnknown) {
    doc.Set("reference_reason",
            obs::Json::Str(UnknownReasonName(reference_reason)));
  }
  if (flip_injected) doc.Set("flip_injected", obs::Json::Bool(true));
  doc.Set("reference_seconds", obs::Json::Number(reference_seconds));
  doc.Set("disagreed", obs::Json::Bool(disagreed()));
  obs::Json axes_json = obs::Json::Array();
  for (const AxisCheck& check : axes) {
    obs::Json a = obs::Json::Object();
    a.Set("axis", obs::Json::Str(OracleAxisName(check.axis)));
    a.Set("ran", obs::Json::Bool(check.ran));
    a.Set("compared", obs::Json::Bool(check.compared));
    a.Set("agreed", obs::Json::Bool(check.agreed));
    a.Set("expected", obs::Json::Str(api::VerdictName(check.expected)));
    a.Set("actual", obs::Json::Str(api::VerdictName(check.actual)));
    a.Set("seconds", obs::Json::Number(check.seconds));
    if (!check.detail.empty()) a.Set("detail", obs::Json::Str(check.detail));
    axes_json.Append(std::move(a));
  }
  doc.Set("axes", std::move(axes_json));
  return doc;
}

OracleReport CheckCase(const FuzzCase& c, const OracleOptions& options) {
  OracleReport report;
  report.seed = c.seed;

  ParsedCase parsed = ParseAndValidate(c.Text());
  if (!parsed.ok) {
    report.invalid_reason = parsed.error;
    return report;
  }
  report.valid = true;
  const Property& property = parsed.property();

  // The reference verdict every axis compares against: WAVE itself,
  // jobs=1, base options — with a local metrics registry attached so the
  // reference runs telemetry-ON while every axis runs telemetry-off.
  // Each campaign case thereby differentially confirms the search
  // histograms / allocation profiling (ISSUE 6) do not perturb verdicts.
  std::string error;
  obs::MetricsRegistry reference_metrics;
  VerifyOptions reference_options = options.verify;
  reference_options.metrics = &reference_metrics;
  Stopwatch reference_watch;
  VerifyResult reference = RunOnce(parsed.verifier.get(), property,
                                   reference_options, /*jobs=*/1, nullptr,
                                   &error);
  report.reference_seconds = reference_watch.ElapsedSeconds();
  if (!error.empty()) {
    report.valid = false;
    report.invalid_reason = "reference Run failed: " + error;
    return report;
  }
  report.reference = reference.verdict;
  report.reference_reason = reference.unknown_reason;
  // ISSUE-7 self-test hook: an armed `oracle.flip_verdict` flip fault
  // corrupts the reference verdict so the disagreement-detection and
  // shrink machinery can prove they would catch a real engine bug.
  if (Decided(report.reference)) {
    if (fault::Action a = WAVE_FAULT("oracle.flip_verdict");
        a.fire && a.kind == fault::Kind::kFlip) {
      report.reference = report.reference == Verdict::kHolds
                             ? Verdict::kViolated
                             : Verdict::kHolds;
      report.flip_injected = true;
    }
  }

  // Axis 1: the explicit first-cut enumeration. Sound AND complete up to
  // its bounded domain; with one extra fresh value beyond the constants
  // the generated grammar is decidable either way, so a decided-decided
  // mismatch is a verdict bug in one of the two engines.
  if (options.run_baseline) {
    AxisCheck check;
    check.axis = OracleAxis::kBaseline;
    Stopwatch watch;
    FirstCutVerifier baseline(parsed.parsed.spec.get());
    FirstCutResult result = baseline.Verify(property, options.baseline);
    VerifyResult as_verify;
    as_verify.verdict = result.verdict;
    as_verify.failure_reason = result.failure_reason;
    CompareVerdicts(&check, report.reference, report.reference_reason,
                    as_verify);
    check.seconds = watch.ElapsedSeconds();
    report.axes.push_back(std::move(check));
  }

  // Axis 2: the PR-3 determinism contract — verdicts are jobs-invariant.
  if (options.run_jobs) {
    AxisCheck check;
    check.axis = OracleAxis::kJobs;
    Stopwatch watch;
    VerifyResult result = RunOnce(parsed.verifier.get(), property,
                                  options.verify, options.jobs, nullptr,
                                  &error);
    if (!error.empty()) {
      FailAxis(&check, "Run(jobs) failed: " + error);
    } else {
      CompareVerdicts(&check, report.reference, report.reference_reason,
                      result);
    }
    check.seconds = watch.ElapsedSeconds();
    report.axes.push_back(std::move(check));
  }

  // Axis 3: RunBatch over a one-property catalog must equal Run.
  if (options.run_batch) {
    AxisCheck check;
    check.axis = OracleAxis::kBatch;
    Stopwatch watch;
    std::vector<Property> catalog = {property};
    BatchRequest request;
    request.properties = &catalog;
    request.options = options.verify;
    StatusOr<BatchResponse> response =
        parsed.verifier->RunBatch(request);
    if (!response.ok()) {
      FailAxis(&check, "RunBatch failed: " + response.status().ToString());
    } else {
      CompareVerdicts(&check, report.reference, report.reference_reason,
                      response->responses[0]);
    }
    check.seconds = watch.ElapsedSeconds();
    report.axes.push_back(std::move(check));
  }

  // Axis 4: cold vs warm persistent result cache. The cold run stores
  // (or, when an identical case was stored earlier in the campaign,
  // already hits); the warm run MUST hit when the verdict is decided,
  // and both must return the reference verdict.
  if (!options.cache_dir.empty()) {
    AxisCheck check;
    check.axis = OracleAxis::kCache;
    Stopwatch watch;
    StatusOr<std::unique_ptr<ResultCache>> cache =
        ResultCache::Open(options.cache_dir);
    if (!cache.ok()) {
      FailAxis(&check, "ResultCache::Open: " + cache.status().ToString());
    } else {
      VerifyResult cold = RunOnce(parsed.verifier.get(), property,
                                  options.verify, /*jobs=*/1, cache->get(),
                                  &error);
      if (!error.empty()) {
        FailAxis(&check, "cold cached Run failed: " + error);
      } else {
        VerifyResult warm = RunOnce(parsed.verifier.get(), property,
                                    options.verify, /*jobs=*/1, cache->get(),
                                    &error);
        if (!error.empty()) {
          FailAxis(&check, "warm cached Run failed: " + error);
        } else if (Decided(cold.verdict) && warm.stats.cache_hits != 1) {
          FailAxis(&check,
                   "warm run missed the cache after a decided cold run");
        } else if (Decided(cold.verdict) && Decided(warm.verdict) &&
                   cold.verdict != warm.verdict) {
          FailAxis(&check, std::string("cold/warm mismatch: ") +
                               api::VerdictName(cold.verdict) + " vs " +
                               api::VerdictName(warm.verdict));
        } else {
          CompareVerdicts(&check, report.reference, report.reference_reason,
                          warm);
        }
      }
    }
    check.seconds = watch.ElapsedSeconds();
    report.axes.push_back(std::move(check));
  }

  // Axes 5–6: metamorphic invariances (rename, reorder).
  if (options.run_metamorphic) {
    report.axes.push_back(CheckVariant(OracleAxis::kRename, RenameCase(c),
                                       report.reference,
                                       report.reference_reason,
                                       options.verify));
    report.axes.push_back(
        CheckVariant(OracleAxis::kReorder,
                     ReorderCase(c, options.reorder_salt), report.reference,
                     report.reference_reason, options.verify));
  }
  return report;
}

std::vector<ReasonProbe> ProbeUnknownReasons(const GeneratorConfig& config,
                                             uint64_t seed_start,
                                             int max_seeds) {
  static const UnknownReason kReasons[] = {
      UnknownReason::kTimeout,         UnknownReason::kMemoryLimit,
      UnknownReason::kCandidateBudget, UnknownReason::kExpansionBudget,
      UnknownReason::kCancelled,       UnknownReason::kRejectedCandidates,
  };
  std::vector<ReasonProbe> probes;
  for (UnknownReason target : kReasons) {
    ReasonProbe probe;
    probe.reason = target;
    for (int i = 0; i < max_seeds && !probe.covered; ++i) {
      uint64_t seed = seed_start + static_cast<uint64_t>(i);
      FuzzCase c = GenerateCase(seed, config);
      ParsedCase parsed = ParseAndValidate(c.Text());
      if (!parsed.ok) continue;
      const Property& property = parsed.property();

      VerifyOptions options;
      options.timeout_seconds = 30;
      CancellationToken cancelled;
      std::string error;
      if (target == UnknownReason::kRejectedCandidates) {
        // Needs a violated case: reject every candidate counterexample
        // and the exhausted search is exactly the situation
        // verifier/validate.cc downgrades to kRejectedCandidates.
        VerifyResult base = RunOnce(parsed.verifier.get(), property, options,
                                    1, nullptr, &error);
        if (!error.empty() || base.verdict != Verdict::kViolated) continue;
        options.candidate_filter =
            [](const std::vector<CounterexampleStep>&,
               const std::vector<CounterexampleStep>&,
               const std::map<std::string, SymbolId>&) { return false; };
        VerifyResult rejected = RunOnce(parsed.verifier.get(), property,
                                        options, 1, nullptr, &error);
        if (error.empty() && rejected.stats.num_rejected_candidates > 0) {
          probe.covered = true;
          probe.seed = seed;
          probe.detail = "rejected " +
                         std::to_string(rejected.stats.num_rejected_candidates) +
                         " candidate(s); exhausted search is the "
                         "kRejectedCandidates downgrade";
        }
        continue;
      }
      switch (target) {
        case UnknownReason::kTimeout: options.timeout_seconds = 0; break;
        case UnknownReason::kMemoryLimit: options.max_memory_bytes = 1; break;
        case UnknownReason::kCandidateBudget: options.max_candidates = 0; break;
        case UnknownReason::kExpansionBudget: options.max_expansions = 1; break;
        case UnknownReason::kCancelled:
          cancelled.Cancel();
          options.cancellation = &cancelled;
          break;
        default: break;
      }
      VerifyResult result = RunOnce(parsed.verifier.get(), property, options,
                                    1, nullptr, &error);
      if (error.empty() && result.verdict == Verdict::kUnknown &&
          result.unknown_reason == target) {
        probe.covered = true;
        probe.seed = seed;
        probe.detail = result.failure_reason;
      }
    }
    if (!probe.covered && probe.detail.empty()) {
      probe.detail = "no generated case tripped this reason within " +
                     std::to_string(max_seeds) + " seeds";
    }
    probes.push_back(std::move(probe));
  }
  return probes;
}

}  // namespace wave::testing
