#!/usr/bin/env python3
"""Exit codes of tools/check_bench_regression.py on synthetic perfbench output.

Usage:
    test_check_bench_regression.py CHECK_SCRIPT BASELINE

Writes perfbench-shaped outputs (banner lines, then the one-line JSON
result) and a synthetic baseline into a temp directory, runs the check on
each and compares its exit code: 0 at the baseline, 1 past the allowed
slowdown or on a run perfbench reports as failed, 2 on malformed input.
The committed BASELINE must also parse and pass an output at its own value.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

BANNER = ("serve_saturation_short seed 42: end-to-end metrics\n"
          "  ref_cpu_s                          1.000000 s\n"
          "  episode digests vs recorded: identical\n")


def result_line(ref_cpu_s=1.0, correct=True, failed=0):
    metrics = {"ref_cpu_s": {"value": ref_cpu_s, "unit": "s"},
               "peak_rss_mb": {"value": 15.75, "unit": "MB"}}
    return json.dumps({"correct": correct, "attempted": 38, "failed": failed,
                       "metrics": metrics})


def main():
    check, committed = sys.argv[1], sys.argv[2]
    base_ref = 1.0
    committed_ref = json.loads(Path(committed).read_text())["ref_cpu_s"]
    no_ref = json.dumps({"correct": True, "attempted": 38, "failed": 0,
                         "metrics": {"peak_rss_mb": {"value": 15.75, "unit": "MB"}}})
    cases = [
        # (name, last stdout line, baseline, expected exit code)
        ("at the baseline", result_line(base_ref), None, 0),
        ("committed baseline", result_line(committed_ref), committed, 0),
        ("baseline x 1.09", result_line(base_ref * 1.09), None, 0),
        ("baseline x 1.11", result_line(base_ref * 1.11), None, 1),
        ("correct false", result_line(base_ref, correct=False), None, 1),
        ("one failed episode", result_line(base_ref, failed=1), None, 1),
        ("last line not JSON", "  FAILED pass 1 Lotus: digest differs", None, 2),
        ("ref_cpu_s missing", no_ref, None, 2),
        ("ref_cpu_s NaN", result_line(float("nan")), None, 2),
        ("ref_cpu_s zero", result_line(0.0), None, 2),
        ("ref_cpu_s negative", result_line(-0.5), None, 2),
    ]
    bad = 0
    with tempfile.TemporaryDirectory(prefix="check_bench_regression_") as tmp:
        synthetic = Path(tmp) / "baseline.json"
        synthetic.write_text(json.dumps({"workload": "serve_saturation_short",
                                         "ref_cpu_s": base_ref}))
        for i, (name, last, baseline, expected) in enumerate(cases):
            output = Path(tmp) / f"out{i}.txt"
            output.write_text(BANNER + last + "\n")
            proc = subprocess.run(
                [sys.executable, check, str(output), baseline or str(synthetic)],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            verdict = "ok" if proc.returncode == expected else "WRONG"
            print(f"{verdict}: {name}: exit {proc.returncode}, expected {expected}")
            if proc.returncode != expected:
                print(proc.stdout)
                bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
