#!/usr/bin/env python3
"""The WAVE benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload paper|generated|serve \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. It configures and builds
perfbench/ (the WAVE libraries, wave_serve and the harness, Release) into
$CARGO_TARGET_DIR or .bench_build, runs the harness, and passes its output
through: human-readable lines, then one JSON object as the last line of
standard output. See perfbench/README.md for the workloads and metrics.
Exits non-zero without a result when the source tree or the build is
missing, and non-zero after the result when any verdict was wrong.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench_harness",
         "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench_harness")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper", "generated", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no WAVE source tree at {ROOT}")
        return 2
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    # Compiler and run temporaries stay inside the build directory too.
    os.environ["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    try:
        harness = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2

    work_dir = os.path.join(build_dir, "run")
    os.makedirs(work_dir, exist_ok=True)
    command = [harness, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--root={ROOT}", f"--work-dir={work_dir}"]
    # Own process group, so a timeout also stops the daemon it spawned.
    child = subprocess.Popen(command, start_new_session=True)
    try:
        return child.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        log(f"harness exceeded {HARNESS_TIMEOUT_S} s")
        return 2
    except KeyboardInterrupt:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
