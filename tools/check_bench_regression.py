#!/usr/bin/env python3
"""Fail CI when a perfbench workload gets slower than its committed baseline.

Usage:
    check_bench_regression.py OUTPUT [OUTPUT ...] BASELINE

Each OUTPUT is the saved stdout of one run of

    python3 perfbench/run.py --workload WORKLOAD --seconds 3

whose first line names the workload and whose last line is one JSON object
with the keys correct, failed and metrics (CI tees three runs per gated
workload to files). BASELINE is one of the committed
bench/perfbench_baseline*.json files: the median ref_cpu_s of several such
runs, with the workload, seed, --seconds, build and host they came from.

ref_cpu_s is host CPU time rescaled to a reference core speed by a
calibration kernel timed on the same thread, so it follows the code more
than the host; the median over the runs keeps one run slowed by a busy
neighbour from failing the gate. The check fails (exit 1) when any run is
not correct, when an episode failed, or when the median ref_cpu_s exceeds
the baseline's by more than MAX_SLOWDOWN. Malformed input exits 2: a
baseline without a workload name, an output whose first line names another
workload (a run gated against the wrong baseline), a last line that is not
a JSON object, a missing correct, failed or ref_cpu_s, or a ref_cpu_s that
is NaN, infinite or not positive.

Stdlib only; exit 0 on pass.
"""

import argparse
import json
import math
import statistics
import sys

# Allowed fractional growth of ref_cpu_s over the baseline.
MAX_SLOWDOWN = 0.10


def fail_input(message):
    print(f"check_bench_regression: {message}", file=sys.stderr)
    sys.exit(2)


def read_json(path, last_line, workload=None):
    """The JSON object in the file, or in its last non-blank line. With
    `workload`, the first non-blank line must start with that name."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        fail_input(f"cannot read {path}: {exc}")
    if last_line:
        lines = [line for line in text.splitlines() if line.strip()]
        named = lines[0].split()[0] if lines else ""
        if workload is not None and named != workload:
            fail_input(f"{path} is a run of {named or 'nothing'!r}, "
                       f"the baseline is {workload!r}")
        text = lines[-1] if lines else ""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        fail_input(f"{path}: not JSON ({exc})")
    if not isinstance(doc, dict):
        fail_input(f"{path}: not a JSON object")
    return doc


def positive(value, what):
    """value as a float; exit 2 unless it is a finite positive number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or \
            not math.isfinite(value) or value <= 0.0:
        fail_input(f"{what} is {value!r}, not a positive number")
    return float(value)


def main():
    parser = argparse.ArgumentParser(
        description="gate a perfbench workload's ref_cpu_s against its committed baseline")
    parser.add_argument("output", nargs="+", help="saved stdout of perfbench/run.py")
    parser.add_argument("baseline", help="committed bench/perfbench_baseline*.json")
    args = parser.parse_args()

    baseline = read_json(args.baseline, last_line=False)
    workload = baseline.get("workload")
    if not isinstance(workload, str) or not workload:
        fail_input(f"{args.baseline}: workload is {workload!r}, not a name")
    refs = []
    failures = []
    for output in args.output:
        result = read_json(output, last_line=True, workload=workload)
        correct = result.get("correct")
        failed = result.get("failed")
        if not isinstance(correct, bool):
            fail_input(f"{output}: correct is {correct!r}, not a boolean")
        if isinstance(failed, bool) or not isinstance(failed, int) or failed < 0:
            fail_input(f"{output}: failed is {failed!r}, not a count")
        metrics = result.get("metrics")
        metric = metrics.get("ref_cpu_s") if isinstance(metrics, dict) else None
        refs.append(positive(metric.get("value") if isinstance(metric, dict) else None,
                             f"{output}: ref_cpu_s"))
        if not correct:
            failures.append(f"perfbench reports {output} as not correct")
        if failed > 0:
            failures.append(f"{output}: {failed} episode(s) failed")
    ref = statistics.median(refs)
    base = positive(baseline.get("ref_cpu_s"), f"{args.baseline}: ref_cpu_s")

    ceiling = base * (1.0 + MAX_SLOWDOWN)
    print(f"{workload} ref_cpu_s: median {ref:.4f} s of "
          f"{len(refs)} run(s) ({', '.join(f'{r:.4f}' for r in refs)}), "
          f"baseline {base:.4f} s ({100.0 * (ref / base - 1.0):+.1f}%), "
          f"ceiling {ceiling:.4f} s")
    if ref > ceiling:
        failures.append(f"median ref_cpu_s {ref:.4f} s exceeds the baseline by more than "
                        f"{100.0 * MAX_SLOWDOWN:.0f}%")
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if failures:
        return 1
    print("bench regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
