#!/usr/bin/env sh
# Build + test under a sanitizer (ISSUE 1 satellite), plus a budget
# stress mode (ISSUE 2 satellite) and a ThreadSanitizer mode for the
# parallel search engine (ISSUE 3 satellite).
#
# Usage:
#   scripts/check.sh                     # address sanitizer (default)
#   scripts/check.sh undefined           # UBSan
#   scripts/check.sh ""                  # plain build, no sanitizer
#   scripts/check.sh --tsan              # TSan build, parallel suite only
#   scripts/check.sh --stress            # tiny-budget stress run (ASan)
#   scripts/check.sh --stress undefined  # stress under UBSan
#   scripts/check.sh --install           # install + out-of-tree find_package smoke
#   scripts/check.sh --fuzz              # 60s differential fuzz campaign (ASan)
#   scripts/check.sh --fuzz=300          # longer campaign
#   scripts/check.sh --fuzz undefined    # campaign under UBSan
#   scripts/check.sh --bench             # wave_bench verify suite vs committed baseline
#   scripts/check.sh --faults            # fault-injection battery + 200-kill crash campaign
#   scripts/check.sh --faults=30         # shorter crash campaign (~3 kills/sec)
#   scripts/check.sh --faults undefined  # fault battery under UBSan
#   scripts/check.sh --serve             # daemon suite + wave_load smoke (8 clients)
#   scripts/check.sh --serve=30          # longer load run (~5 requests/client/sec)
#
# Stress mode drives wave_verify over every bundled spec with
# deliberately tiny budgets (sub-second deadlines, 2-tuple candidate
# budget, 1 MB memory ceiling, retry ladder on) and sweeps --jobs over
# {1, 2, 8} so budget trips race worker shutdown. One more row runs
# tests/data/deep_chain.spec, whose search is a single chain of 4,096
# configurations, at the same job counts, and tests/data/
# nested_implications.spec (64 nested implications) must decide within a
# minute, and a property of G nested 998 deep must answer unknown/timeout
# under a one-second deadline and unknown/memory_limit under a 64 MiB
# ceiling, as must G nested 210 deep, whose automaton would pass the
# translation's state cap. Resource exhaustion
# must surface as a verdict, never a crash: any exit status other than
# 0 (decided) or 2 (some unknown), and any sanitizer report in the
# output, fails the check. A few rows first feed wave_verify and the other
# tools malformed or out-of-range numeric flags, or a property nested in
# 30,000 parentheses, which must be a usage error (exit 1) with no
# sanitizer report.
#
# TSan mode builds with WAVE_SANITIZE=thread and runs the determinism
# suite (tests/parallel_test.cc), the batch-equivalence suite
# (tests/session_test.cc) and the product-sharing suite
# (tests/verifier_test.cc, whose E1 batch at jobs 4 has every worker read
# the verifier's one compiled spec) — the tests that actually spin up
# worker fleets — rather than the whole battery, since TSan slows
# execution ~10x and the sequential tests exercise no cross-thread
# interleavings.
#
# Fuzz mode (ISSUE 5) runs a tools/wave_fuzz differential campaign —
# random input-bounded specs cross-checked against the explicit
# first-cut baseline, jobs=N, RunBatch, the persistent result cache and
# two metamorphic transforms (docs/FUZZING.md) — under the chosen
# sanitizer for the given wall-clock budget (default 60s), with every
# UnknownReason probed at the end. Any disagreement exits non-zero and
# leaves minimized reproducers in the printed artifact directory; rerun
# any logged seed with `wave_fuzz --seed-start=SEED --seed-count=1`.
# A short campaign also rides along in --stress.
#
# Faults mode (ISSUE 7) proves the robustness layer end to end: the
# `faults`-labelled ctest suites (the per-site fault sweep, the crash-safe
# cache format/lock/concurrency battery and a wave_crash smoke), a
# WAVE_FAULT_SPEC environment-arming round trip through wave_verify, and
# the long tools/wave_crash campaign — SIGKILLing child verifier runs at
# randomized armed crash-points until the kill target (default 200, the
# acceptance budget; --faults=SECONDS scales it at ~3 kills/sec) and
# proving the shared cache directory recovers to a consistent state with
# warm-equals-cold verdicts every time. See docs/ROBUSTNESS.md.
#
# Install mode (ISSUE 4 satellite) builds a plain tree, `cmake
# --install`s it into a throwaway prefix, then configures and runs the
# out-of-tree consumer in scripts/install_smoke/ against that prefix via
# `find_package(wave CONFIG REQUIRED)` — proving the exported package
# carries the headers, the library closure, and the Threads dependency
# without any reference to this source tree.
#
# Uses a separate build tree per sanitizer so the regular build/ stays
# untouched.
set -eu

MODE=test
FUZZ_BUDGET=60
case "${1-}" in
  --stress)
    MODE=stress
    shift
    ;;
  --tsan)
    MODE=tsan
    shift
    ;;
  --install)
    MODE=install
    shift
    ;;
  --fuzz)
    MODE=fuzz
    shift
    ;;
  --fuzz=*)
    MODE=fuzz
    FUZZ_BUDGET="${1#--fuzz=}"
    shift
    ;;
  --bench)
    MODE=bench
    shift
    ;;
  --faults)
    MODE=faults
    shift
    ;;
  --faults=*)
    MODE=faults
    FAULT_KILLS=$(( ${1#--faults=} * 3 ))
    shift
    ;;
  --serve)
    MODE=serve
    shift
    ;;
  --serve=*)
    MODE=serve
    SERVE_REQUESTS=$(( ${1#--serve=} * 5 ))
    shift
    ;;
esac
FAULT_KILLS="${FAULT_KILLS-200}"
SERVE_REQUESTS="${SERVE_REQUESTS-40}"

if [ "$MODE" = "tsan" ]; then
  SANITIZER="${1-thread}"
elif [ "$MODE" = "install" ] || [ "$MODE" = "bench" ] || [ "$MODE" = "serve" ]; then
  # Benchmarks measure wall time; sanitizer instrumentation would skew
  # every record, so the bench gate always runs on a plain build. The
  # serve load run records latency percentiles, so it gets the same
  # treatment (the serve ctest suite still runs under `scripts/check.sh
  # address` via the plain battery).
  SANITIZER=""
else
  SANITIZER="${1-address}"
fi
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

if [ "$MODE" = "install" ]; then
  BUILD_DIR="$ROOT/build-install"
  PREFIX="$(mktemp -d)"
  SMOKE_DIR="$(mktemp -d)"
  trap 'rm -rf "$PREFIX" "$SMOKE_DIR"' EXIT

  echo "== configure (plain) -> $BUILD_DIR"
  cmake -B "$BUILD_DIR" -S "$ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  echo "== build"
  cmake --build "$BUILD_DIR" -j "$(nproc 2>/dev/null || echo 4)"
  echo "== install -> $PREFIX"
  cmake --install "$BUILD_DIR" --prefix "$PREFIX" > /dev/null

  echo "== out-of-tree find_package(wave) smoke"
  cmake -B "$SMOKE_DIR" -S "$ROOT/scripts/install_smoke" \
        -DCMAKE_PREFIX_PATH="$PREFIX" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$SMOKE_DIR" -j "$(nproc 2>/dev/null || echo 4)"
  "$SMOKE_DIR/smoke"

  echo "== installed wave_verify --all-properties round trip"
  CACHE_DIR="$PREFIX/cache"
  "$PREFIX/bin/wave_verify" "$ROOT/specs/e1_shopping.spec" \
      --all-properties --cache-dir="$CACHE_DIR" > /dev/null
  "$PREFIX/bin/wave_verify" "$ROOT/specs/e1_shopping.spec" \
      --all-properties --cache-dir="$CACHE_DIR" | grep -q "cache_hits=17" \
      || { echo "FAIL: warm cache run did not hit for every property"; exit 1; }
  echo "== INSTALL OK"
  exit 0
fi

if [ -n "$SANITIZER" ]; then
  BUILD_DIR="$ROOT/build-$SANITIZER"
else
  BUILD_DIR="$ROOT/build-plain"
fi

echo "== configure (WAVE_SANITIZE='$SANITIZER') -> $BUILD_DIR"
cmake -B "$BUILD_DIR" -S "$ROOT" -DWAVE_SANITIZE="$SANITIZER" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo

echo "== build"
cmake --build "$BUILD_DIR" -j "$(nproc 2>/dev/null || echo 4)"

if [ "$MODE" = "tsan" ]; then
  echo "== parallel determinism suite under ThreadSanitizer"
  ctest --test-dir "$BUILD_DIR" --output-on-failure \
        -j "$(nproc 2>/dev/null || echo 4)" \
        -R "Determinism|ParallelCancellation|ShardQueue|BudgetLedger|WorkerPool|VerifyRequest|BatchEquivalence|ProductSharing"
  echo "== TSAN OK"
  exit 0
fi

if [ "$MODE" = "test" ]; then
  echo "== test"
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc 2>/dev/null || echo 4)"
  echo "== OK (sanitizer: ${SANITIZER:-none})"
  exit 0
fi

# Bench mode (ISSUE 6): the `bench`-labelled ctest suite (hermetic gate
# semantics) plus the real thing — wave_bench's whole verify suite (all
# 56 E1-E4 properties, well under a second) compared against the
# committed baseline. The time threshold is widened to +150% because the
# committed baseline was measured on one particular host; the
# deterministic search counters of every record still compare exactly,
# so an algorithmic regression gates regardless of hardware. Then
# bench_property_automata must keep E1/P4's automaton within the 30
# states of the paper's ltl2ba automaton. Last, bench_parser prints the
# front end's throughput, ungated.
if [ "$MODE" = "bench" ]; then
  echo "== bench-labelled tests"
  ctest --test-dir "$BUILD_DIR" -L bench --output-on-failure
  echo "== wave_bench verify suite vs committed baseline"
  "$BUILD_DIR/tools/wave_bench" --suite verify --quiet \
      --out "$BUILD_DIR/BENCH_verify.json" \
      --compare "$ROOT/bench/baselines/BENCH_verify.json" \
      --threshold-time 1.5
  echo "== property automata: E1/P4 within 30 states"
  P4_STATES="$("$BUILD_DIR/bench/bench_property_automata" | awk '
      /^---- / { in_e1 = ($2 == "E1") }
      in_e1 && $1 == "P4" { print $4 }')"
  if [ -z "$P4_STATES" ] || [ "$P4_STATES" -gt 30 ]; then
    echo "FAIL: E1/P4 automaton has '${P4_STATES}' states (want <= 30)"
    exit 1
  fi
  echo "ok   E1/P4 automaton: $P4_STATES states"
  # Printed, not gated: the host is shared, so a time bound would flake.
  echo "== front end: ParseSpec throughput and Verifier::Create"
  "$BUILD_DIR/bench/bench_parser"
  echo "== BENCH OK"
  exit 0
fi

# Serve mode (ISSUE 9): the `serve`-labelled ctest suite (loopback
# daemon: concurrency, fairness, drain, socket-surface fault sites) plus
# the real thing — wave_load forking a wave_serve daemon and driving the
# four bundled specs from 8 concurrent connections through cold, warm
# and batch phases. wave_load itself fails the run on any wrong or
# dropped response, a warm phase that never hit the session/cache
# layers, or an unclean SIGTERM drain; the latency-percentile record
# lands in BENCH_serve.json (wave_bench --compare format).
if [ "$MODE" = "serve" ]; then
  echo "== serve-labelled tests"
  ctest --test-dir "$BUILD_DIR" -L serve --output-on-failure
  echo "== wave_load smoke (8 clients x $SERVE_REQUESTS requests)"
  "$BUILD_DIR/tools/wave_load" --spawn --clients=8       --requests="$SERVE_REQUESTS" --out="$BUILD_DIR/BENCH_serve.json"
  echo "== record -> $BUILD_DIR/BENCH_serve.json"
  echo "== SERVE OK"
  exit 0
fi

if [ "$MODE" = "faults" ]; then
  echo "== faults-labelled tests (sanitizer: ${SANITIZER:-none})"
  ctest --test-dir "$BUILD_DIR" -L faults --output-on-failure

  echo "== WAVE_FAULT_SPEC environment arming round trip"
  FAULT_STATS="$(mktemp)"
  FAULT_CACHE="$(mktemp -d)"
  trap 'rm -f "$FAULT_STATS"; rm -rf "$FAULT_CACHE"' EXIT
  # Inject a transient EIO on the first cache-entry write: the run must
  # still decide everything (exit 0), and the armed site must show up in
  # the exported fault.injected.* metrics.
  WAVE_FAULT_SPEC="io.write.data=eio@1" \
      "$BUILD_DIR/tools/wave_verify" "$ROOT/specs/e1_shopping.spec" \
      --cache-dir="$FAULT_CACHE" --keep-going \
      --stats-json="$FAULT_STATS" > /dev/null
  grep -q "fault.injected.io.write.data" "$FAULT_STATS" \
      || { echo "FAIL: armed fault not visible in stats metrics"; exit 1; }
  # A malformed spec must be rejected up front, not ignored.
  if WAVE_FAULT_SPEC="not a spec" \
      "$BUILD_DIR/tools/wave_verify" "$ROOT/specs/e1_shopping.spec" \
      > /dev/null 2>&1; then
    echo "FAIL: malformed WAVE_FAULT_SPEC was not rejected"; exit 1
  fi

  echo "== wave_crash kill-point campaign (target: $FAULT_KILLS kills)"
  "$BUILD_DIR/tools/wave_crash" --kills="$FAULT_KILLS" \
      --max-rounds=$(( FAULT_KILLS * 8 )) --seed=1 \
      --work-dir="$BUILD_DIR/wave_crash.work"
  echo "== FAULTS OK (sanitizer: ${SANITIZER:-none})"
  exit 0
fi

if [ "$MODE" = "fuzz" ]; then
  ARTIFACTS="$ROOT/fuzz-artifacts"
  FUZZ_LOG="$(mktemp)"
  trap 'rm -f "$FUZZ_LOG"' EXIT
  echo "== fuzz campaign (${FUZZ_BUDGET}s, sanitizer: ${SANITIZER:-none})"
  echo "== artifacts -> $ARTIFACTS"
  rc=0
  "$BUILD_DIR/tools/wave_fuzz" --time-budget="$FUZZ_BUDGET" \
      --out-dir="$ARTIFACTS" --probe-reasons --quiet \
      > "$FUZZ_LOG" 2>&1 || rc=$?
  tail -n 20 "$FUZZ_LOG"
  if [ "$rc" -ne 0 ]; then
    echo "== FUZZ FAILED (exit $rc): minimized reproducers in $ARTIFACTS"
    exit 1
  fi
  if grep -q -e "Sanitizer" -e "runtime error:" "$FUZZ_LOG"; then
    echo "== FUZZ FAILED: sanitizer report"
    exit 1
  fi
  echo "== FUZZ OK (sanitizer: ${SANITIZER:-none})"
  exit 0
fi

echo "== stress (tiny budgets, sanitizer: ${SANITIZER:-none})"
VERIFY="$BUILD_DIR/tools/wave_verify"
LOG="$(mktemp)"
STATS="$(mktemp)"
BATCH_CACHE="$(mktemp -d)"
trap 'rm -f "$LOG" "$STATS" "$STATS.tmp"; rm -rf "$BATCH_CACHE"' EXIT
FAILED=0

# Each row: a label and the flag set to run every spec in $SPECS under;
# every row is swept across --jobs=1/2/8 so shard hand-off, work
# stealing, and mid-trip worker shutdown all get exercised under the tiny
# budgets.
SPECS="$ROOT/specs/*.spec"
run_stress() {
  label="$1"; shift
  for jobs in 1 2 8; do
    for spec in $SPECS; do
      name="$(basename "$spec")"
      rc=0
      "$VERIFY" "$spec" --jobs="$jobs" "$@" >"$LOG" 2>&1 || rc=$?
      if [ "$rc" -ne 0 ] && [ "$rc" -ne 2 ]; then
        echo "FAIL [$label -j$jobs] $name: exit $rc (want 0 or 2)"
        cat "$LOG"
        FAILED=1
      elif grep -q -e "Sanitizer" -e "runtime error:" "$LOG"; then
        echo "FAIL [$label -j$jobs] $name: sanitizer report"
        cat "$LOG"
        FAILED=1
      else
        echo "ok   [$label -j$jobs] $name (exit $rc)"
      fi
    done
  done
}

# Malformed or out-of-range numeric flags: a usage error (exit 1) before
# any work, never a silent 0 or an overflowed budget. Each row: a label,
# then the binary and its arguments. `timeout` stops (and its exit code
# fails) a tool that would run or listen instead.
run_usage_error() {
  label="$1"; shift
  rc=0
  timeout 20 "$@" >"$LOG" 2>&1 || rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "FAIL [$label]: exit $rc (want 1)"
    cat "$LOG"
    FAILED=1
  elif grep -q -e "Sanitizer" -e "runtime error:" "$LOG"; then
    echo "FAIL [$label]: sanitizer report"
    cat "$LOG"
    FAILED=1
  else
    echo "ok   [$label] (exit 1)"
  fi
}

E1="$ROOT/specs/e1_shopping.spec"
TOOLS="$BUILD_DIR/tools"
# A property nested in 30,000 parentheses is a parse error (the parser
# caps formula depth), not a stack overflow.
DEEP_SPEC="$BATCH_CACHE/deep_formula.spec"
{
  sed '/^property /,$d' "$E1"
  printf 'property deep {\n'
  awk 'BEGIN { for (i = 0; i < 30000; ++i) printf "(" }'
  printf 'F [at HP]'
  awk 'BEGIN { for (i = 0; i < 30000; ++i) printf ")" }'
  printf '\n}\n'
} > "$DEEP_SPEC"
run_usage_error "deep-formula" "$VERIFY" "$DEEP_SPEC"
run_usage_error "bad-candidates" "$VERIFY" "$E1" --max-candidates=abc
run_usage_error "bad-timeout" "$VERIFY" "$E1" --timeout=abc
run_usage_error "huge-memory" "$VERIFY" "$E1" --max-memory-mb=99999999999999
run_usage_error "huge-candidates-ladder" "$VERIFY" "$E1" --property=P8 \
    --max-candidates=2147483647 --retry-ladder
run_usage_error "bench-timeout" "$TOOLS/wave_bench" --suite e2 --timeout=abc
run_usage_error "crash-kills" "$TOOLS/wave_crash" --kills=abc
run_usage_error "fuzz-jobs" "$TOOLS/wave_fuzz" --jobs=abc
run_usage_error "load-clients" "$TOOLS/wave_load" --clients=abc --spawn
run_usage_error "serve-port" "$TOOLS/wave_serve" --port=abc

run_stress "deadline-50ms" --keep-going --timeout=0.05
run_stress "candidates-2" --keep-going --max-candidates=2 --timeout=5
run_stress "expansions-100" --keep-going --max-expansions=100 --timeout=5
run_stress "memory-1mb" --keep-going --max-memory-mb=1 --timeout=5
run_stress "ladder-tiny" --keep-going --retry-ladder --max-candidates=2 \
    --timeout=1
run_stress "stats-json" --keep-going --timeout=0.05 --stats-json="$STATS"
# Batch mode under tiny budgets, twice over the same cache dir: budget
# trips must stay verdicts (never crashes) and a partly-warm cache must
# not change exit-code semantics. Undecided verdicts are never stored,
# so the second sweep mixes hits with live re-verification.
run_stress "batch-tiny" --all-properties --cache-dir="$BATCH_CACHE" \
    --max-candidates=2 --timeout=1
run_stress "batch-warm" --all-properties --cache-dir="$BATCH_CACHE" \
    --max-candidates=2 --timeout=1
if [ ! -s "$STATS" ]; then
  echo "FAIL [stats-json]: no stats file written"
  FAILED=1
fi
# A search that is one chain of 4,096 configurations (2^11 extensions,
# with and without the input): the pseudorun's length must not grow the
# thread's stack, whose frames are larger under a sanitizer.
SPECS="$ROOT/tests/data/deep_chain.spec"
run_stress "deep-chain" --max-candidates=40 --timeout=120
# 64 implications, each nested in the left operand of the next: the
# negation normal form must stay linear in the depth (it once doubled
# with every two levels), so the property decides well within a minute.
rc=0
timeout 60 "$VERIFY" "$ROOT/tests/data/nested_implications.spec" \
    >"$LOG" 2>&1 || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "FAIL [nested-implications]: exit $rc (want 0)"
  cat "$LOG"
  FAILED=1
elif grep -q -e "Sanitizer" -e "runtime error:" "$LOG"; then
  echo "FAIL [nested-implications]: sanitizer report"
  cat "$LOG"
  FAILED=1
else
  echo "ok   [nested-implications] (exit 0)"
fi
# G nested 998 deep (within the parser's depth limit) keeps the LTL ->
# Büchi translation busy for minutes; the translation polls the attempt's
# deadline, so a one-second budget answers unknown/timeout (exit 2).
DEEP_G_SPEC="$BATCH_CACHE/deep_g_chain.spec"
{
  sed '/^property /,$d' "$E1"
  printf 'property deep {\n'
  awk 'BEGIN { for (i = 0; i < 998; ++i) printf "G " }'
  printf '[at HP]\n}\n'
} > "$DEEP_G_SPEC"
rc=0
timeout 60 "$VERIFY" "$DEEP_G_SPEC" --timeout=1 >"$LOG" 2>&1 || rc=$?
if [ "$rc" -ne 2 ] || ! grep -q "timeout" "$LOG"; then
  echo "FAIL [deep-g-chain]: exit $rc (want 2, unknown/timeout)"
  cat "$LOG"
  FAILED=1
elif grep -q -e "Sanitizer" -e "runtime error:" "$LOG"; then
  echo "FAIL [deep-g-chain]: sanitizer report"
  cat "$LOG"
  FAILED=1
else
  echo "ok   [deep-g-chain] (exit 2)"
fi
# The translation's memory counts against the attempt's ceiling, and its
# degeneralized automaton is capped (buchi/gpvw.h): each row must answer
# unknown/memory_limit (exit 2) within a minute. Each row: a label, the
# spec, then wave_verify's flags.
DEEP_STATS="$BATCH_CACHE/deep_stats.json"
run_memory_limit() {
  label="$1"; spec="$2"; shift 2
  rc=0
  rm -f "$DEEP_STATS"
  timeout 60 "$VERIFY" "$spec" --stats-json="$DEEP_STATS" "$@" \
      >"$LOG" 2>&1 || rc=$?
  if [ "$rc" -ne 2 ] || ! grep -q '"memory_limit"' "$DEEP_STATS"; then
    echo "FAIL [$label]: exit $rc (want 2, unknown/memory_limit)"
    cat "$LOG"
    FAILED=1
  elif grep -q -e "Sanitizer" -e "runtime error:" "$LOG"; then
    echo "FAIL [$label]: sanitizer report"
    cat "$LOG"
    FAILED=1
  else
    echo "ok   [$label] (exit 2)"
  fi
}
# G nested 998 deep under a 64 MiB ceiling: its tableau passes the
# ceiling long before its 30 s deadline.
run_memory_limit "deep-g-chain-64mb" "$DEEP_G_SPEC" --timeout=30 \
    --max-memory-mb=64
# G nested 210 deep: its tableau completes in well under a second, but it
# would degeneralize past the state cap; no ceiling is set.
CAP_G_SPEC="$BATCH_CACHE/cap_g_chain.spec"
{
  sed '/^property /,$d' "$E1"
  printf 'property deep {\n'
  awk 'BEGIN { for (i = 0; i < 210; ++i) printf "G " }'
  printf '[at HP]\n}\n'
} > "$CAP_G_SPEC"
run_memory_limit "g-chain-past-cap" "$CAP_G_SPEC"

# Short differential fuzz campaign (ISSUE 5): 100 seeded cases across
# every oracle axis. Any disagreement (exit 3) or sanitizer report fails
# the stress run; `scripts/check.sh --fuzz` runs the long version.
FUZZ_DIR="$(mktemp -d)"
rc=0
"$BUILD_DIR/tools/wave_fuzz" --seed-start=1 --seed-count=100 \
    --time-budget=0 --out-dir="$FUZZ_DIR" --quiet >"$LOG" 2>&1 || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "FAIL [fuzz-100]: exit $rc"
  tail -n 20 "$LOG"
  FAILED=1
elif grep -q -e "Sanitizer" -e "runtime error:" "$LOG"; then
  echo "FAIL [fuzz-100]: sanitizer report"
  cat "$LOG"
  FAILED=1
else
  echo "ok   [fuzz-100] differential campaign clean"
fi
rm -rf "$FUZZ_DIR"

if [ "$FAILED" -ne 0 ]; then
  echo "== STRESS FAILED"
  exit 1
fi
echo "== STRESS OK (sanitizer: ${SANITIZER:-none})"
