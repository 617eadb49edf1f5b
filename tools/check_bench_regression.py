#!/usr/bin/env python3
"""Fail CI when bench_overhead's perf trajectory regresses vs the baseline.

Usage:
    check_bench_regression.py CURRENT BASELINE [--threshold 0.10] [--absolute]

CURRENT is the BENCH_overhead.json a fresh bench_overhead run wrote (CI
reads the one its bench_overhead_smoke CTest leaves in the build directory);
BASELINE is the committed bench/BENCH_overhead.baseline.json.

Raw requests/sec depend on the host CPU, so by default the check compares
the host-normalized throughput

    serve_saturation.requests_per_sec * serve_saturation.reference_wall_s

i.e. serve_saturation's throughput measured in units of the queue gate's
under-capacity run (8 streams at 0.2 Hz under the performance governor).
That run does no RL work, so it tracks the host's speed but not the code
under test; bench_overhead times it in interleaved pairs with the
serve_saturation runs (min of N each), so both walls come from the same
stretch of host time. The check fails when the current value falls more
than --threshold (10%) below the baseline's. It also fails when
serve_saturation.matvec_calls (a deterministic count of single-sample
Q-network forwards) exceeds the baseline's, and re-asserts the queue gate
(serve_overload wall_ratio <= 1.5: the overloaded run within 1.5x of the
under-capacity one), so a stale or hand-edited trajectory file cannot slip
through. Byte-identity (ledger modes, telemetry recording, trace replay) is
the test suite's to check, not the trajectory's.

Even on a pass, every numeric metric of every cell present in both files
is printed as a current-vs-baseline delta so CI logs show the trend, not
just the verdict. The train_step cell also names the RL kernel set each
run used (train_step.kernels: "avx2" or "baseline"); when the two differ,
or the baseline names none, a notice says the host throughputs come from
different instruction sets. The notice never changes the verdict.

--absolute additionally compares raw serve_saturation requests_per_sec, for
same-machine trend tracking; do not enable it on shared CI runners.

Stdlib only; exit 0 on pass, 1 on regression, 2 on malformed input.
"""

import argparse
import json
import sys

# bench_overhead's queue gate: overloaded wall / under-capacity wall.
QUEUE_GATE_RATIO = 1.5


def fail_input(message):
    print(f"check_bench_regression: {message}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        fail_input(f"cannot read {path}: {exc}")


def cell_number(doc, path, cell, key):
    """The non-negative number at cells.<cell>.<key>; exit 2 otherwise."""
    try:
        value = float(doc["cells"][cell][key])
    except (KeyError, TypeError, ValueError):
        fail_input(f"{path} has no numeric cells.{cell}.{key}")
    if not value >= 0.0:
        fail_input(f"{path} has a negative or NaN cells.{cell}.{key}")
    return value


def normalized_throughput(doc, path):
    """serve_saturation requests/sec in units of the no-RL reference run."""
    value = (cell_number(doc, path, "serve_saturation", "requests_per_sec") *
             cell_number(doc, path, "serve_saturation", "reference_wall_s"))
    if value <= 0.0:
        fail_input(f"{path} has a zero serve_saturation throughput or reference run")
    return value


def numeric_leaves(node, prefix=""):
    """Flatten a cell into sorted (dotted.path, float) pairs, skipping bools."""
    out = []
    if isinstance(node, dict):
        for key in sorted(node):
            out.extend(numeric_leaves(node[key], f"{prefix}.{key}" if prefix else key))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        out.append((prefix, float(node)))
    return out


def print_cell_deltas(cur, base):
    """Print current-vs-baseline deltas for every shared numeric metric.

    Informational only (never fails the check): raw wall-clock and
    requests/sec depend on the host, but the per-cell trend is what a CI
    log reader wants when deciding whether a pass was comfortable or
    marginal.
    """
    cur_cells = cur.get("cells") if isinstance(cur.get("cells"), dict) else {}
    base_cells = base.get("cells") if isinstance(base.get("cells"), dict) else {}
    for cell in sorted(set(cur_cells) & set(base_cells)):
        cur_leaves = dict(numeric_leaves(cur_cells[cell]))
        base_leaves = dict(numeric_leaves(base_cells[cell]))
        shared = sorted(set(cur_leaves) & set(base_leaves))
        if not shared:
            continue
        print(f"cell {cell}:")
        for path in shared:
            c, b = cur_leaves[path], base_leaves[path]
            if b != 0.0:
                delta = f"{100.0 * (c - b) / abs(b):+.1f}%"
            else:
                delta = "n/a" if c == 0.0 else "new"
            print(f"  {path}: current {c:g}, baseline {b:g} ({delta})")
        if cell == "train_step":
            print_kernel_sets(cur_cells[cell], base_cells[cell])


def print_kernel_sets(cur_train, base_train):
    """Print the RL kernel set of each train_step cell; flag a mismatch."""
    cur_set = cur_train.get("kernels", "unknown")
    base_set = base_train.get("kernels", "unknown")
    print(f"  kernels: current {cur_set}, baseline {base_set}")
    if cur_set != base_set:
        print(f"NOTICE: train_step kernel sets differ (current {cur_set}, baseline "
              f"{base_set}): host throughput is compared across instruction sets")


def main():
    parser = argparse.ArgumentParser(
        description="compare BENCH_overhead.json against the committed baseline")
    parser.add_argument("current", help="freshly produced BENCH_overhead.json")
    parser.add_argument("baseline", help="committed BENCH_overhead.baseline.json")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="allowed fractional regression (default 0.10)")
    parser.add_argument("--absolute", action="store_true",
                        help="also compare raw requests_per_sec (same-machine only)")
    args = parser.parse_args()

    cur = load(args.current)
    base = load(args.baseline)
    failures = []

    if cur.get("schema_version") != base.get("schema_version"):
        failures.append(f"schema_version mismatch: current {cur.get('schema_version')} "
                        f"vs baseline {base.get('schema_version')}")
    if cur.get("fast_mode") != base.get("fast_mode"):
        failures.append(f"mode mismatch: current fast_mode={cur.get('fast_mode')} vs "
                        f"baseline fast_mode={base.get('fast_mode')} "
                        "(compare like with like)")

    queue_ratio = cur.get("cells", {}).get("serve_overload", {}).get("wall_ratio")
    if not isinstance(queue_ratio, (int, float)) or queue_ratio > QUEUE_GATE_RATIO:
        failures.append(f"current serve_overload.wall_ratio is {queue_ratio!r}, "
                        f"not <= {QUEUE_GATE_RATIO}")

    print_cell_deltas(cur, base)

    if not failures:
        m_cur = cell_number(cur, args.current, "serve_saturation", "matvec_calls")
        m_base = cell_number(base, args.baseline, "serve_saturation", "matvec_calls")
        print(f"serve_saturation matvec_calls: current {m_cur:.0f}, baseline {m_base:.0f}")
        if m_cur > m_base:
            failures.append(f"serve_saturation matvec_calls grew: {m_cur:.0f} > {m_base:.0f}")

        t_cur = normalized_throughput(cur, args.current)
        t_base = normalized_throughput(base, args.baseline)
        floor = t_base * (1.0 - args.threshold)
        print(f"serve_saturation requests per reference run: "
              f"current {t_cur:.1f}, baseline {t_base:.1f}, floor {floor:.1f}")
        if t_cur < floor:
            failures.append(
                f"normalized throughput regressed {100.0 * (1.0 - t_cur / t_base):.1f}% "
                f"(> {100.0 * args.threshold:.0f}%): {t_cur:.1f} < {floor:.1f}")

        if args.absolute:
            c = cell_number(cur, args.current, "serve_saturation", "requests_per_sec")
            b = cell_number(base, args.baseline, "serve_saturation", "requests_per_sec")
            print(f"serve_saturation requests/sec: current {c:.1f}, baseline {b:.1f}")
            if c < b * (1.0 - args.threshold):
                failures.append(
                    f"requests/sec regressed {100.0 * (1.0 - c / b):.1f}%: {c:.1f} < "
                    f"{b * (1.0 - args.threshold):.1f}")

    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("bench regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
