#!/usr/bin/env python3
"""Fail CI when perfbench's serve_saturation_short gets slower than the baseline.

Usage:
    check_bench_regression.py OUTPUT BASELINE

OUTPUT is the saved stdout of

    python3 perfbench/run.py --workload serve_saturation_short --seconds 3

whose last line is one JSON object with the keys correct, failed and
metrics (CI's perfbench digest loop tees it to a file). BASELINE is the
committed bench/perfbench_baseline.json: the median ref_cpu_s of several
such runs, with the workload, seed, --seconds, build and host they came
from.

ref_cpu_s is host CPU time rescaled to a reference core speed by a
calibration kernel timed on the same thread, so it follows the code more
than the host. The check fails (exit 1) when the run is not correct, when
an episode failed, or when ref_cpu_s exceeds the baseline's by more than
MAX_SLOWDOWN. Malformed input exits 2: a last line that is not a JSON
object, a missing correct, failed or ref_cpu_s, or a ref_cpu_s that is NaN,
infinite or not positive.

Stdlib only; exit 0 on pass.
"""

import argparse
import json
import math
import sys

# Allowed fractional growth of ref_cpu_s over the baseline.
MAX_SLOWDOWN = 0.10


def fail_input(message):
    print(f"check_bench_regression: {message}", file=sys.stderr)
    sys.exit(2)


def read_json(path, last_line):
    """The JSON object in the file, or in its last non-blank line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        fail_input(f"cannot read {path}: {exc}")
    if last_line:
        lines = [line for line in text.splitlines() if line.strip()]
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
        description="gate perfbench's ref_cpu_s against the committed baseline")
    parser.add_argument("output", help="saved stdout of perfbench/run.py")
    parser.add_argument("baseline", help="committed bench/perfbench_baseline.json")
    args = parser.parse_args()

    result = read_json(args.output, last_line=True)
    baseline = read_json(args.baseline, last_line=False)
    correct = result.get("correct")
    failed = result.get("failed")
    if not isinstance(correct, bool):
        fail_input(f"{args.output}: correct is {correct!r}, not a boolean")
    if isinstance(failed, bool) or not isinstance(failed, int) or failed < 0:
        fail_input(f"{args.output}: failed is {failed!r}, not a count")
    metrics = result.get("metrics")
    metric = metrics.get("ref_cpu_s") if isinstance(metrics, dict) else None
    ref = positive(metric.get("value") if isinstance(metric, dict) else None,
                   f"{args.output}: ref_cpu_s")
    base = positive(baseline.get("ref_cpu_s"), f"{args.baseline}: ref_cpu_s")

    ceiling = base * (1.0 + MAX_SLOWDOWN)
    print(f"{baseline.get('workload', 'perfbench')} ref_cpu_s: current {ref:.4f} s, "
          f"baseline {base:.4f} s ({100.0 * (ref / base - 1.0):+.1f}%), "
          f"ceiling {ceiling:.4f} s")
    failures = []
    if not correct:
        failures.append("perfbench reports the run as not correct")
    if failed > 0:
        failures.append(f"{failed} episode(s) failed")
    if ref > ceiling:
        failures.append(f"ref_cpu_s {ref:.4f} s exceeds the baseline by more than "
                        f"{100.0 * MAX_SLOWDOWN:.0f}%")
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if failures:
        return 1
    print("bench regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
