#!/usr/bin/env python3
"""Scale gate for the .ltrc trace pipeline and the serving engine:
million-request timelines in bounded memory.

Drives lotus_trace through synth -> info -> slice on a 1,000,000-request
trace and asserts:

  1. synth writes the full trace (info reports exactly the requested
     record count and the expected 64-byte-record file size);
  2. slicing a million-record trace by id range is effectively O(1)
     (the slice holds exactly the requested window);
  3. peak RSS of every child stays under --rss-limit-mb: the Writer,
     Reader and slicer all stream, so memory must not scale with record
     count.

With --serve, it also serves a 1,000,000-request non-learning load
(8 streams x 125,000 requests, performance governor) through lotus_serve
twice: once recording its timeline (--record-trace), once replaying that
trace (--replay-trace). The two stdouts must match byte for byte, and both
runs fall under the same RSS bound: the engine pulls its timeline one
request at a time, so what grows with the request count is the ledger's
served samples (8 B each), not the timeline.

Usage:
    trace_scale_gate.py --trace PATH/TO/lotus_trace [--serve PATH/TO/lotus_serve]
        [--requests N] [--rss-limit-mb M] [--workdir DIR]

Exit 0 when every property holds, 1 otherwise, 2 on setup failure.
"""

import argparse
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile

HEADER_BYTES = 72
RECORD_BYTES = 64


def run_measured(cmd):
    """Run a child and return (proc, peak child RSS in MiB since the last
    call). ru_maxrss is a high-water mark over all waited-for children, so
    the reading is only exact for the largest child so far; every child
    being under the limit is exactly what the gate wants to know."""
    proc = subprocess.run(cmd, capture_output=True, text=True)
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return proc, peak_kib / 1024.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trace", required=True)
    ap.add_argument("--serve")
    ap.add_argument("--requests", type=int, default=1_000_000)
    ap.add_argument("--rss-limit-mb", type=float, default=48.0)
    ap.add_argument("--workdir")
    args = ap.parse_args()

    workdir = args.workdir or tempfile.mkdtemp(prefix="trace_scale_gate_")
    os.makedirs(workdir, exist_ok=True)
    big = os.path.join(workdir, "big.ltrc")
    window = os.path.join(workdir, "window.ltrc")
    streams = 4
    total = args.requests * streams

    failures = []

    def check_child(name, proc, rss_mb):
        if proc.returncode != 0:
            print(f"trace_scale_gate: {name} failed:\n{proc.stderr}", file=sys.stderr)
            sys.exit(2)
        if rss_mb > args.rss_limit_mb:
            failures.append(f"{name} peaked at {rss_mb:.1f} MiB "
                            f"(limit {args.rss_limit_mb:.0f} MiB)")

    proc, rss = run_measured([args.trace, "synth", big,
                              "--requests", str(args.requests),
                              "--streams", str(streams), "--rate", "5.0"])
    check_child("synth", proc, rss)

    size = os.path.getsize(big)
    if size <= HEADER_BYTES + total * RECORD_BYTES - RECORD_BYTES:
        failures.append(f"big.ltrc is {size} bytes, too small for {total} records")

    proc, rss = run_measured([args.trace, "info", big])
    check_child("info", proc, rss)
    m = re.search(r"records:\s+(\d+)", proc.stdout)
    if not m or int(m.group(1)) != total:
        failures.append(f"info reported {m.group(1) if m else 'nothing'} records, "
                        f"expected {total}")

    lo, hi = total // 2, total // 2 + 1000
    proc, rss = run_measured([args.trace, "slice", big, window,
                              "--ids", f"{lo}:{hi}"])
    check_child("slice", proc, rss)

    proc, rss = run_measured([args.trace, "info", window])
    check_child("info(slice)", proc, rss)
    m = re.search(r"records:\s+(\d+)", proc.stdout)
    if not m or int(m.group(1)) != hi - lo:
        failures.append(f"slice holds {m.group(1) if m else 'nothing'} records, "
                        f"expected {hi - lo}")

    if args.serve:
        serve = [args.serve, "--streams", "8", "--rate", "0.15", "--requests", "125000",
                 "--governor", "performance", "--jobs", "1"]
        recorded = os.path.join(workdir, "serve_traces")
        proc, rss = run_measured(serve + ["--record-trace", recorded])
        check_child("serve --record-trace", proc, rss)
        recorded_stdout = proc.stdout
        proc, rss = run_measured(serve + ["--replay-trace", recorded])
        check_child("serve --replay-trace", proc, rss)
        if proc.stdout != recorded_stdout:
            failures.append("serve: replayed stdout differs from the recording run's")
        if "1000000" not in recorded_stdout:
            failures.append("serve: stdout reports no 1000000-request row")

    shutil.rmtree(workdir, ignore_errors=True)
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    served = ", 1000000 requests served, recorded and replayed" if args.serve else ""
    print(f"trace_scale_gate: {total} records synthesised, inspected and sliced{served} "
          f"under {args.rss_limit_mb:.0f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
