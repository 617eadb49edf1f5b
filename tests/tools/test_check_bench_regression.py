#!/usr/bin/env python3
"""Exit codes of tools/check_bench_regression.py on synthetic perfbench output.

Usage:
    test_check_bench_regression.py CHECK_SCRIPT BASELINE [BASELINE ...]

Writes perfbench-shaped outputs (banner lines, then the one-line JSON
result) and a synthetic baseline into a temp directory, runs the check on
each case's outputs and compares its exit code: 0 at the baseline, 1 when
the median run is past the allowed slowdown or any run perfbench reports
as failed, 2 on malformed input, a baseline without a workload name or a
run of another workload than the baseline's.
Each committed BASELINE must also parse and pass an output of its own
workload at its own value.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def banner(workload="serve_saturation_short"):
    return (f"{workload} seed 42: end-to-end metrics\n"
            "  ref_cpu_s                          1.000000 s\n"
            "  episode digests vs recorded: identical\n")


def result_line(ref_cpu_s=1.0, correct=True, failed=0):
    metrics = {"ref_cpu_s": {"value": ref_cpu_s, "unit": "s"},
               "peak_rss_mb": {"value": 15.75, "unit": "MB"}}
    return json.dumps({"correct": correct, "attempted": 38, "failed": failed,
                       "metrics": metrics})


def main():
    check, committed = sys.argv[1], sys.argv[2:]
    base_ref = 1.0
    no_ref = json.dumps({"correct": True, "attempted": 38, "failed": 0,
                         "metrics": {"peak_rss_mb": {"value": 15.75, "unit": "MB"}}})
    other = "serve_overload_40k"
    cases = [
        # (name, last stdout line(s) -- one per run, baseline, expected exit
        # code); a (workload, line) pair is a run of that workload.
        ("at the baseline", result_line(base_ref), None, 0),
        ("baseline x 1.09", result_line(base_ref * 1.09), None, 0),
        ("baseline x 1.11", result_line(base_ref * 1.11), None, 1),
        ("correct false", result_line(base_ref, correct=False), None, 1),
        ("one failed episode", result_line(base_ref, failed=1), None, 1),
        ("last line not JSON", "  FAILED pass 1 Lotus: digest differs", None, 2),
        ("ref_cpu_s missing", no_ref, None, 2),
        ("ref_cpu_s NaN", result_line(float("nan")), None, 2),
        ("ref_cpu_s zero", result_line(0.0), None, 2),
        ("ref_cpu_s negative", result_line(-0.5), None, 2),
        ("1 slow run of 3", [result_line(base_ref * 1.3), result_line(base_ref),
                             result_line(base_ref * 1.05)], None, 0),
        ("2 slow runs of 3", [result_line(base_ref * 1.3), result_line(base_ref),
                              result_line(base_ref * 1.2)], None, 1),
        ("median fine, one run failed", [result_line(base_ref), result_line(base_ref),
                                         result_line(base_ref, failed=1)], None, 1),
        ("run of another workload", [(other, result_line(base_ref))], None, 2),
        ("1 of 3 runs of another workload", [result_line(base_ref), result_line(base_ref),
                                             (other, result_line(base_ref))], None, 2),
        ("baseline without a workload", result_line(base_ref), "unnamed", 2),
    ]
    for path in committed:
        doc = json.loads(Path(path).read_text())
        cases.append((f"committed {Path(path).name}",
                      [(doc["workload"], result_line(doc["ref_cpu_s"]))], path, 0))
    bad = 0
    with tempfile.TemporaryDirectory(prefix="check_bench_regression_") as tmp:
        synthetic = Path(tmp) / "baseline.json"
        synthetic.write_text(json.dumps({"workload": "serve_saturation_short",
                                         "ref_cpu_s": base_ref}))
        unnamed = Path(tmp) / "unnamed.json"
        unnamed.write_text(json.dumps({"ref_cpu_s": base_ref}))
        baselines = {None: str(synthetic), "unnamed": str(unnamed)}
        for i, (name, lasts, baseline, expected) in enumerate(cases):
            outputs = []
            for j, run in enumerate([lasts] if isinstance(lasts, str) else lasts):
                workload, last = run if isinstance(run, tuple) else (
                    "serve_saturation_short", run)
                outputs.append(Path(tmp) / f"out{i}_{j}.txt")
                outputs[-1].write_text(banner(workload) + last + "\n")
            proc = subprocess.run(
                [sys.executable, check, *map(str, outputs), baselines.get(baseline, baseline)],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            verdict = "ok" if proc.returncode == expected else "WRONG"
            print(f"{verdict}: {name}: exit {proc.returncode}, expected {expected}")
            if proc.returncode != expected:
                print(proc.stdout)
                bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
