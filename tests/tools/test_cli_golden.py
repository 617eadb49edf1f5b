#!/usr/bin/env python3
"""Pinned outputs of the ad-hoc front ends: lotus_run, lotus_serve, lotus_sweep.

Usage:
    test_cli_golden.py --run PATH --serve PATH --sweep PATH --trace PATH [--print]

Runs small ad-hoc invocations of each tool and compares a SHA-256 digest of
every output against the digest recorded below: `--format json` stdout of
lotus_run single runs and lotus_serve ad-hoc runs (single device and fleet,
with non-default flags, and one with the default --requests/--slo under
LOTUS_BENCH_FAST=1), and sweep.csv + sweep.json of two lotus_sweep grids (a
rate axis, and a --trace axis over traces from `lotus_trace synth`). The
build id (`"build":"<git describe>"`) is blanked before hashing, so the pins
hold across commits. `--print` prints the digests instead of checking them.
Exit 0 when every digest matches, 1 otherwise, 2 when a command fails.
"""

import argparse
import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

BUILD_ID = re.compile(rb'"build":"[^"]*"')

# Digests of the outputs named by CASES and SWEEPS (build id blanked).
EXPECTED = {
    "run_performance":
        "ca8bd598efcfdaf18ed9514292ecdaf41b18b8b27775de100ed60acf7abe8f52",
    "run_lotus_pretrain":
        "a3b72beacfeb22c294af23bcf1a8b96ad394f6ee23df41c750598e842014e17b",
    "serve_single":
        "f8ee37332903c08b330806e8d2596669473d7de2b59f9a0175de48fb1de2aa26",
    "serve_fleet":
        "51a4ffca79ffb8f31a70a5eff158951fe05b86b3a1b8c4a85415d950e8b815ad",
    "serve_fast_defaults":
        "bf6ed46865d854255b965c2c662b737c170140962c0049dcce68186f5abf5ccc",
    "sweep_rate/sweep.csv":
        "362af69515e4d8a0d645870fdab8b581caafe2d1ecc1a7c74c22acf4b5927867",
    "sweep_rate/sweep.json":
        "d23af89fa8b81723fc27282a73ed0c3994b41369c03a48318eee54ce88006d47",
    "sweep_trace/sweep.csv":
        "af4819e412c1c92b428d5a9da3560cdec2e5a1bfc78c943ce192a7ec063fef64",
    "sweep_trace/sweep.json":
        "ae0590414b2aa02f192d8a32230ed8afec904b96b4254c4812634d53ede6a9a6",
}

# Non-default load, target and serving flags shared by both lotus_serve runs.
SERVE_FLAGS = ["--device", "mi11", "--detector", "mrcnn", "--dataset", "visdrone",
               "--arrival", "burst", "--burst", "3", "--slo", "900", "--streams", "2",
               "--requests", "6", "--rate", "0.4", "--scheduler", "fifo", "--seed", "7"]

# name -> (tool, argv, fast mode); stdout is the pinned output.
CASES = {
    "run_performance": ("run", ["--governor", "performance", "--iterations", "40",
                                "--format", "json"], False),
    "run_lotus_pretrain": ("run", ["--device", "mi11", "--dataset", "visdrone",
                                   "--governor", "lotus", "--pretrain", "30",
                                   "--iterations", "30", "--constraint", "400",
                                   "--format", "json"], False),
    "serve_single": ("serve", SERVE_FLAGS + ["--governor", "performance",
                                             "--format", "json"], False),
    "serve_fleet": ("serve", SERVE_FLAGS + ["--devices", "2", "--router", "least_queue",
                                            "--governor", "lotus", "--pretrain", "20",
                                            "--format", "json"], False),
    "serve_fast_defaults": ("serve", ["--streams", "2", "--governor", "fixed:5,3",
                                      "--format", "json"], True),
}

# name -> argv; sweep.csv and sweep.json under the sweep's --out are pinned.
SWEEPS = {
    "sweep_rate": ["--devices", "1,2", "--router", "round_robin,least_queue",
                   "--governor", "performance,fixed:5,3", "--rate", "0.3,0.6",
                   "--streams", "2", "--requests", "5", "--pretrain", "0"],
    "sweep_trace": ["--trace", "steady.ltrc,burst.ltrc", "--devices", "1,2",
                    "--scheduler", "fifo,edf_admit", "--governor", "performance"],
}

# Traces the --trace sweep replays, made by `lotus_trace synth` in the work
# directory (relative names: sweep.json's meta line records the axis values).
TRACES = {
    "steady.ltrc": ["--requests", "6", "--streams", "2", "--rate", "0.5", "--seed", "3"],
    "burst.ltrc": ["--requests", "6", "--streams", "3", "--arrival", "burst",
                   "--burst", "3", "--slo", "700", "--seed", "4"],
}


def digest(data):
    return hashlib.sha256(BUILD_ID.sub(b'"build":""', data)).hexdigest()


def run(cmd, cwd, fast):
    env = dict(os.environ)
    env.pop("LOTUS_BENCH_FAST", None)
    if fast:
        env["LOTUS_BENCH_FAST"] = "1"
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True)
    if proc.returncode != 0:
        print(f"{' '.join(cmd)} exited {proc.returncode}:\n"
              f"{proc.stderr.decode(errors='replace')}")
        sys.exit(2)
    return proc.stdout


def main():
    ap = argparse.ArgumentParser()
    for tool in ("run", "serve", "sweep", "trace"):
        ap.add_argument(f"--{tool}", required=True)
    ap.add_argument("--print", action="store_true")
    args = ap.parse_args()
    tools = {tool: os.path.abspath(getattr(args, tool))
             for tool in ("run", "serve", "sweep", "trace")}

    got = {}
    with tempfile.TemporaryDirectory(prefix="cli_golden_") as tmp:
        for name, (tool, argv, fast) in CASES.items():
            got[name] = digest(run([tools[tool]] + argv, tmp, fast))
        for name, argv in TRACES.items():
            run([tools["trace"], "synth", name] + argv, tmp, False)
        for name, argv in SWEEPS.items():
            run([tools["sweep"], "--out", name, "--jobs", "2"] + argv, tmp, False)
            for output in ("sweep.csv", "sweep.json"):
                got[f"{name}/{output}"] = digest((Path(tmp) / name / output).read_bytes())

    if args.print:
        for name, value in got.items():
            print(f'    "{name}": "{value}",')
        return 0
    failed = [name for name in EXPECTED if got.get(name) != EXPECTED[name]]
    for name in failed:
        print(f"{name}: digest {got.get(name)} != pinned {EXPECTED[name]}")
    if failed:
        return 1
    print(f"ok: {len(EXPECTED)} outputs match their pinned digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
