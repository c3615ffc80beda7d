#!/usr/bin/env python3
"""Build and run the gapsp pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the library from
src/) into $CARGO_TARGET_DIR, or .bench_build when that is unset; later calls
only rebuild what changed. The run's scratch files live under the build
directory and are removed afterwards; a traced run's Chrome trace and
per-layer self-time summary are kept in <build dir>/perfbench-out/.

The last line of stdout is the benchmark's JSON result. Exit status is
non-zero, with no result line, when the build or the run fails.
"""
import argparse
import glob
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base)


def build(target):
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", target])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, target)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="build and run the benchmark's own tests")
    a = p.parse_args()

    if a.selftest:
        sys.exit(subprocess.run([build("perfbench_selftest")]).returncode)
    if a.workload is None or a.seed is None or a.seconds is None:
        p.error("--workload, --seed and --seconds are required")

    exe = build("perfbench_pipeline")
    work = os.path.join(build_dir(), "perfbench-work",
                        "%s-%d-%d" % (a.workload, a.seed, os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        proc = subprocess.run(
            [exe, "--workload", a.workload, "--seed", str(a.seed),
             "--seconds", str(a.seconds), "--trace", str(a.trace),
             "--workdir", work],
            stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        keep = os.path.join(build_dir(), "perfbench-out")
        for f in glob.glob(os.path.join(work, "*.trace.json")) + \
                glob.glob(os.path.join(work, "*.self_time.txt")):
            os.makedirs(keep, exist_ok=True)
            dest = os.path.join(keep, os.path.basename(f))
            shutil.move(f, dest)
            print("perfbench: kept " + dest, file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)  # the binary prints no result on failure
        sys.exit("perfbench: run failed with exit code %d" % proc.returncode)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
