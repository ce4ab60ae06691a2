#!/usr/bin/env python3
"""Self-test of the molbench benchmark; run from the root of a checkout.

    python3 perfbench/selftest.py

1. A tiny untraced and traced run of every workload in BENCHMARK.json
   and of the ungated svc_hot: each must succeed, be correct with no
   failed operation, and print exactly the end-to-end (untraced) or
   per-layer (traced) metrics named in BENCHMARK.json, each with its
   unit.
2. A perturbed recorded fingerprint must count as a failed operation.
3. A directory holding only BENCHMARK.json and perfbench/ must make the
   runner exit non-zero without printing a result.

Exits 0 when every check passes.  Everything it writes stays under the
build directory (.bench_build, or $CARGO_TARGET_DIR).
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def run(args, cwd=ROOT):
    proc = subprocess.run(RUN + args, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, result, proc


def check_metrics(result, expected, label):
    errors = []
    got = result["metrics"]
    for metric in expected:
        entry = got.get(metric["name"])
        if entry is None:
            errors.append(f"{label}: missing {metric['name']}")
        elif entry.get("unit") != metric["unit"]:
            errors.append(f"{label}: {metric['name']} unit "
                          f"{entry.get('unit')!r} != {metric['unit']!r}")
        elif not isinstance(entry.get("value"), (int, float)):
            errors.append(f"{label}: {metric['name']} has no numeric value")
    extra = set(got) - {m["name"] for m in expected}
    if extra:
        errors.append(f"{label}: unexpected metrics {sorted(extra)}")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []

    # svc_hot is runnable but not gated (README.md); run it too so it
    # cannot rot.
    workloads = [w["name"] for w in bench["workloads"]] + ["svc_hot"]
    for workload in workloads:
        for trace, expected in (("0", bench["end_to_end"]),
                                ("1", bench["per_layer"])):
            label = f"{workload} --trace {trace}"
            rc, result, proc = run(["--workload", workload, "--seed", "1",
                                    "--seconds", "1", "--trace", trace,
                                    "--tiny"])
            if rc != 0 or result is None:
                errors.append(f"{label}: exit {rc}, no result\n"
                              f"{proc.stderr[-2000:]}")
                continue
            if not result["correct"] or result["failed"] != 0:
                errors.append(f"{label}: correct={result['correct']} "
                              f"failed={result['failed']}")
            if result["attempted"] < 1:
                errors.append(f"{label}: attempted < 1")
            errors += check_metrics(result, expected, label)
            print(f"ok   {label}: {result['attempted']} operations")

    rc, result, _ = run(["--workload", "sim_fig5", "--seed", "1",
                         "--seconds", "1", "--trace", "0", "--tiny",
                         "--perturb-fingerprint"])
    if rc != 0 or result is None or result["failed"] < 1 or result["correct"]:
        errors.append("perturbed fingerprint was not counted as a failure")
    else:
        print(f"ok   perturbed fingerprint: {result['failed']} of "
              f"{result['attempted']} operations failed")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bare = os.path.join(ROOT, target, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc = subprocess.run(
        [sys.executable, os.path.join(bare, "perfbench", "run.py"),
         "--workload", "sim_fig5", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        errors.append("a checkout without the sources still printed a result")
    else:
        print(f"ok   sources missing: exit {proc.returncode}, no result")

    for error in errors:
        print("FAIL", error)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
