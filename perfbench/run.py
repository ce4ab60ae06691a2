#!/usr/bin/env python3
"""Run one molbench workload from the root of a checkout.

    python3 perfbench/run.py --workload <sim_fig5|sim_table2|svc_hot|svc_churn>
                             --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (a CMake package that compiles the
molcache sources in ../src) as Release into $CARGO_TARGET_DIR, default
.bench_build, then runs the molbench binary.  Build output goes to
stderr; stdout carries molbench's '#' lines and, as its last line, the
result JSON.  Exits non-zero without a result when the build or the run
fails.  Extra arguments (--tiny, --perturb-fingerprint,
--record-fingerprints) are passed through to molbench.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(bdir):
    """Configure once, then an incremental build (a no-op when fresh)."""
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def argument(args, flag):
    return args[args.index(flag) + 1] if flag in args else ""


def main():
    args = sys.argv[1:]
    bdir = build_dir()
    if not build(bdir):
        print("run.py: build failed", file=sys.stderr)
        return 1
    command = [os.path.join(bdir, "molbench"), *args,
               "--fingerprints", os.path.join(HERE, "fingerprints.txt")]
    if argument(args, "--trace") == "1":
        spans = os.path.join(bdir, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans-out", os.path.join(
            spans, f"{argument(args, '--workload')}-seed"
                   f"{argument(args, '--seed')}.csv")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: molbench timed out", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    if "--record-fingerprints" in args:
        sys.stdout.write(run.stdout)
        return run.returncode
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if run.returncode != 0 or not isinstance(result, dict):
        sys.stderr.write(run.stdout)
        print(f"run.py: molbench failed (exit {run.returncode})",
              file=sys.stderr)
        return run.returncode or 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
