#!/usr/bin/env python3
"""Fail CI when bench_overhead's perf trajectory regresses vs the baseline.

Usage:
    check_bench_regression.py CURRENT BASELINE [--threshold 0.10] [--absolute]

CURRENT is the BENCH_overhead.json a fresh bench_overhead run wrote;
BASELINE is the committed bench/BENCH_overhead.baseline.json.

Raw requests/sec depend on the host CPU, so by default the check compares
the hardware-normalized throughput ratio

    batched requests_per_sec / scalar requests_per_sec

of the serve_saturation cell (the end-to-end speedup the batched RL math
bought), failing when the current ratio falls more than --threshold (10%)
below the baseline's. It also re-asserts the correctness flags the bench
already gated on (bit-identical losses / summaries / JSON, telemetry
non-perturbation) and the queue gate (serve_overload wall_ratio <= 1.5:
the overloaded run within 1.5x of the under-capacity one), so a stale or
hand-edited trajectory file cannot slip through.

Even on a pass, every numeric metric of every cell present in both files
is printed as a current-vs-baseline delta so CI logs show the trend, not
just the verdict.

--absolute additionally compares raw requests_per_sec per variant, for
same-machine trend tracking; do not enable it on shared CI runners.

Stdlib only; exit 0 on pass, 1 on regression, 2 on malformed input.
"""

import argparse
import json
import sys

# bench_overhead's queue gate: overloaded wall / under-capacity wall.
QUEUE_GATE_RATIO = 1.5


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"check_bench_regression: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)


def serve_cell(doc, path):
    try:
        return doc["cells"]["serve_saturation"]
    except (KeyError, TypeError):
        print(f"check_bench_regression: {path} has no serve_saturation cell",
              file=sys.stderr)
        sys.exit(2)


def throughput_ratio(doc, path):
    cell = serve_cell(doc, path)
    try:
        scalar = float(cell["scalar"]["requests_per_sec"])
        batched = float(cell["batched"]["requests_per_sec"])
    except (KeyError, TypeError, ValueError):
        print(f"check_bench_regression: {path} serve_saturation cell is malformed",
              file=sys.stderr)
        sys.exit(2)
    if scalar <= 0.0:
        print(f"check_bench_regression: {path} has non-positive scalar requests/sec",
              file=sys.stderr)
        sys.exit(2)
    return batched / scalar


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

    # Correctness flags: the bench exits non-zero when these fail, but a
    # stale artifact would still carry false here.
    flags = [
        ("train_step", "loss_bit_identical"),
        ("serve_saturation", "summaries_bit_identical"),
        ("summary_only_ledgers", "json_bit_identical"),
        ("telemetry_overhead", "json_bit_identical"),
        ("rollup_overhead", "json_bit_identical"),
        ("trace_replay", "json_bit_identical"),
    ]
    for cell, flag in flags:
        if cur.get("cells", {}).get(cell, {}).get(flag) is not True:
            failures.append(f"current {cell}.{flag} is not true")
    queue_ratio = cur.get("cells", {}).get("serve_overload", {}).get("wall_ratio")
    if not isinstance(queue_ratio, (int, float)) or queue_ratio > QUEUE_GATE_RATIO:
        failures.append(f"current serve_overload.wall_ratio is {queue_ratio!r}, "
                        f"not <= {QUEUE_GATE_RATIO}")

    print_cell_deltas(cur, base)

    if not failures:
        r_cur = throughput_ratio(cur, args.current)
        r_base = throughput_ratio(base, args.baseline)
        floor = r_base * (1.0 - args.threshold)
        print(f"serve_saturation batched/scalar requests/sec ratio: "
              f"current {r_cur:.3f}, baseline {r_base:.3f}, floor {floor:.3f}")
        if r_cur < floor:
            failures.append(
                f"throughput ratio regressed {100.0 * (1.0 - r_cur / r_base):.1f}% "
                f"(> {100.0 * args.threshold:.0f}%): {r_cur:.3f} < {floor:.3f}")

        if args.absolute:
            for variant in ("scalar", "batched"):
                c = float(serve_cell(cur, args.current)[variant]["requests_per_sec"])
                b = float(serve_cell(base, args.baseline)[variant]["requests_per_sec"])
                print(f"serve_saturation {variant} requests/sec: "
                      f"current {c:.1f}, baseline {b:.1f}")
                if c < b * (1.0 - args.threshold):
                    failures.append(
                        f"{variant} requests/sec regressed "
                        f"{100.0 * (1.0 - c / b):.1f}%: {c:.1f} < "
                        f"{b * (1.0 - args.threshold):.1f}")

    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("bench regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
