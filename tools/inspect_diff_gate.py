#!/usr/bin/env python3
"""End-to-end gate for the lotus_inspect diff contract.

Runs the fleet serving smoke twice (same seed, LOTUS_BENCH_FAST honoured
from the environment), then asserts:

  0. `lotus_inspect summary A` and `lotus_inspect top A --by miss_rate
     --limit 5` exit 0 and print their tables -- the read-only queries work
     on a real telemetry tree;
  1. `lotus_inspect diff A B` on the two identical telemetry trees exits 0
     and reports zero regressions and zero improvements -- the determinism
     contract a regression gate relies on;
  2. after perturbing one health.json counter in a copy of tree B, the diff
     exits non-zero and reports the regression -- the gate actually bites.

Usage:
    inspect_diff_gate.py --serve PATH/TO/lotus_serve --inspect PATH/TO/lotus_inspect
        [--scenario serve_fleet_saturation] [--workdir DIR]

Exit 0 when both properties hold, 1 otherwise, 2 on setup failure.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile


def run(cmd, **kwargs):
    proc = subprocess.run(cmd, capture_output=True, text=True, **kwargs)
    return proc


def serve_tree(serve, scenario, out_dir):
    proc = run([serve, "--scenario", scenario, "--format", "json", "--telemetry", out_dir])
    if proc.returncode != 0:
        print(f"inspect_diff_gate: {serve} failed:\n{proc.stderr}", file=sys.stderr)
        sys.exit(2)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--serve", required=True)
    ap.add_argument("--inspect", required=True)
    ap.add_argument("--scenario", default="serve_fleet_saturation")
    ap.add_argument("--workdir")
    args = ap.parse_args()

    workdir = args.workdir or tempfile.mkdtemp(prefix="inspect_diff_gate_")
    tree_a = os.path.join(workdir, "run_a")
    tree_b = os.path.join(workdir, "run_b")
    for tree in (tree_a, tree_b):
        shutil.rmtree(tree, ignore_errors=True)
        serve_tree(args.serve, args.scenario, tree)

    failures = []

    # Property 0: the read-only queries run and print their tables.
    for query, expect in ((["summary", tree_a], "health"),
                          (["top", tree_a, "--by", "miss_rate", "--limit", "5"],
                           "worst by miss_rate")):
        proc = run([args.inspect] + query)
        if proc.returncode != 0 or expect not in proc.stdout:
            failures.append(f"lotus_inspect {query[0]} exited "
                            f"{proc.returncode}:\n{proc.stdout}{proc.stderr}")

    # Property 1: identical runs diff clean with exit 0.
    proc = run([args.inspect, "diff", tree_a, tree_b])
    if proc.returncode != 0:
        failures.append(f"diff of identical trees exited {proc.returncode}:\n"
                        f"{proc.stdout}{proc.stderr}")
    if "diff: 0 regressions, 0 improvements" not in proc.stdout:
        failures.append(f"diff of identical trees reported deltas:\n{proc.stdout}")

    # Property 2: a perturbed counter must trip the gate.
    tree_bad = os.path.join(workdir, "run_bad")
    shutil.rmtree(tree_bad, ignore_errors=True)
    shutil.copytree(tree_b, tree_bad)
    victims = sorted(
        os.path.join(root, f)
        for root, _, files in os.walk(tree_bad) for f in files if f == "health.json")
    if not victims:
        print("inspect_diff_gate: no health.json produced", file=sys.stderr)
        sys.exit(2)
    with open(victims[0], "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["fleet"]["missed"] += 1
    with open(victims[0], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    proc = run([args.inspect, "diff", tree_a, tree_bad])
    if proc.returncode == 0:
        failures.append(f"diff missed a perturbed counter:\n{proc.stdout}")
    if "REGRESSION" not in proc.stdout:
        failures.append(f"perturbed diff did not flag a regression:\n{proc.stdout}")

    if not args.workdir:
        shutil.rmtree(workdir, ignore_errors=True)

    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("inspect_diff_gate: summary and top ran, identity diff clean, "
          "perturbation detected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
