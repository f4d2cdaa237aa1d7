#!/usr/bin/env python3
"""Paper-flow benchmark: build, then run one workload.

    python3 perfbench/run.py --workload adder4_flow --seed 1 --seconds 30 --trace 0

Run from the repository root.  Builds perfbench/ (and the toolkit
sources it compiles) in Release into .bench_build/perfbench, computes the
scalar-path reference answer once per build (and per seed, for the seeded
workload), then runs flow_bench, whose last stdout line is the result
JSON.  Exits non-zero without a result when the build, the reference or
the run fails.  See perfbench/README.md for workloads and metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
# One run must end within 180 s; the flow itself stops measuring at --seconds.
RUN_TIMEOUT_S = 170
REFERENCE_TIMEOUT_S = 600
# The only workload whose inputs depend on the seed.
SEEDED = {"adder3_spice_signoff"}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Run cmd with its output on stderr, so stdout ends with the result."""
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, check=True,
                   timeout=timeout)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    run_quiet(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "flow_bench"],
              timeout=900)
    return BUILD / "flow_bench"


def reference(exe, workload, seed):
    """Path of the scalar-path answer for this binary, workload and seed."""
    build_id = hashlib.sha256(exe.read_bytes()).hexdigest()[:16]
    family = workload if workload in SEEDED else "adder4_flow"
    name = f"{family}-seed{seed}" if workload in SEEDED else family
    path = BUILD / "reference" / f"{name}-{build_id}.txt"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        log(f"computing the scalar-path reference for {name} (once per build)")
        run_quiet([str(exe), "--workload", family, "--seed", str(seed),
                   "--write-reference", str(tmp), "--work-dir", str(BUILD / "work")],
                  timeout=REFERENCE_TIMEOUT_S)
        tmp.replace(path)
    return path


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        exe = build()
        ref = reference(exe, args.workload, args.seed)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        log(f"perfbench: {e}")
        return 1

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", str(ref), "--work-dir", str(BUILD / "work" / args.workload)]
    if args.trace:
        spans = BUILD / "spans" / f"{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
