#!/usr/bin/env python3
"""Validate telemetry artifacts written by the sim-time telemetry layer.

Usage:
    check_trace_json.py [--reconcile SUMMARY.csv] ARTIFACT [ARTIFACT ...]

The checker dispatches on the artifact's basename:

trace.json (Chrome trace-event JSON):
  * the document is well-formed JSON with a "traceEvents" list and the
    microsecond "displayTimeUnit" the exporter promises;
  * every event carries name/ph/pid/tid, and every non-metadata event a
    numeric ts;
  * sim timestamps are globally non-decreasing across non-metadata events
    (the recorder sorts stably by time, so any inversion is an exporter
    bug, not interleaving);
  * duration events pair up: each "E" closes the most recent open "B" on
    the same (pid, tid) stack with the same name, and no stack is left
    open at the end;
  * async request spans pair up: each "e" matches an open "b" with the
    same (cat, id), every "b" is eventually closed, and ends never
    precede their begins;
  * counter ("C") events carry at least one numeric series in args;
  * metadata ("M") process_name/thread_name events carry args.name.

health.json (fleet health scoreboard):
  * schema_version / build stamp (util::build_info) present;
  * every scoreboard row satisfies requests == served + shed,
    shed <= missed <= requests, attainment/miss_rate/shed_rate in [0, 1]
    (or null), and p50 <= p95 <= p99;
  * per-device and per-stream row counts each sum to the fleet row.

rollup.json (windowed rollups):
  * schema_version present, window_s > 0;
  * window ids strictly increasing per series, start_s == window * window_s;
  * per stream window: requests == ok + late + shed, served == ok + late,
    missed == late + shed, e2e quantile count == served, queue-wait
    quantile count == requests;
  * every quantile object has a non-negative integer count and, when
    count > 0, min <= p50 <= p95 <= p99 <= max;
  * per device window: throttle time and total OPP residency fit in the
    window;
  * totals reconcile with the sibling health.json's fleet row (counts
    exactly, energy to float tolerance).

breaches.jsonl (SLO-breach flight recorder, one report per line):
  * every line parses as a JSON object whose reason is shed or slo_miss;
  * every snapshot event belongs to the breach's process, and a snapshot
    holds at most the sibling manifest.json's ring_capacity events.

--reconcile SUMMARY.csv additionally matches every health.json against the
harness CSV sink's episode summary: the artifact path's <scenario>/<arm>
directories identify the rows (same sanitization rule as the sinks). The
fleet row must agree with the fleet/aggregate row, each stream row with the
CSV row of that stream, and (fleet runs) each device row with the CSV row
of that device: request counts exactly, and -- when anything was served --
e2e p50/p95/p99 equal after rounding to the CSV's 3 decimals. Both files
take their quantiles from the same samples and function, so any larger gap
means the telemetry and the summaries disagree.

Stdlib only; exit 0 when every file passes, 1 on validation failure,
2 on unreadable/malformed input. Run by CI on the telemetry smoke step.
"""

import csv
import json
import os
import sys

COUNT_KEYS = ("requests", "served", "shed", "missed")


def fail(path, message, errors):
    errors.append(f"{path}: {message}")


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"check_trace_json: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)


def load_jsonl(path):
    """One JSON object per non-blank line; exit 2 when any line is not one."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
    except (OSError, ValueError) as exc:
        print(f"check_trace_json: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not all(isinstance(line, dict) for line in lines):
        print(f"check_trace_json: {path} has a line that is not a JSON object",
              file=sys.stderr)
        sys.exit(2)
    return lines


# --- trace.json --------------------------------------------------------------


def check_trace(path, errors):
    doc = load_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        print(f"check_trace_json: {path} has no traceEvents list", file=sys.stderr)
        sys.exit(2)
    if doc.get("displayTimeUnit") != "ms":
        fail(path, f"displayTimeUnit is {doc.get('displayTimeUnit')!r}, expected 'ms'",
             errors)

    events = doc["traceEvents"]
    last_ts = None
    sync_stacks = {}   # (pid, tid) -> [open "B" names]
    async_open = {}    # (cat, id) -> (begin name, begin ts)
    counters = 0

    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            fail(path, f"{where} is not an object", errors)
            continue
        ph = ev.get("ph")
        name = ev.get("name")
        if not isinstance(name, str) or not name:
            fail(path, f"{where} has no name", errors)
            continue
        if "pid" not in ev or "tid" not in ev:
            fail(path, f"{where} ({ph} {name!r}) lacks pid/tid", errors)
            continue

        if ph == "M":
            if name in ("process_name", "thread_name"):
                args = ev.get("args")
                if not isinstance(args, dict) or not args.get("name"):
                    fail(path, f"{where} metadata {name} lacks args.name", errors)
            continue

        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool):
            fail(path, f"{where} ({ph} {name!r}) has non-numeric ts", errors)
            continue
        if last_ts is not None and ts < last_ts:
            fail(path, f"{where} ({ph} {name!r}) ts {ts} precedes previous {last_ts}",
                 errors)
        last_ts = ts

        key = (ev["pid"], ev["tid"])
        if ph == "B":
            sync_stacks.setdefault(key, []).append(name)
        elif ph == "E":
            stack = sync_stacks.get(key)
            if not stack:
                fail(path, f"{where} 'E' {name!r} on {key} closes nothing", errors)
            elif stack[-1] != name:
                fail(path, f"{where} 'E' {name!r} on {key} mismatches open "
                           f"'B' {stack[-1]!r}", errors)
            else:
                stack.pop()
        elif ph == "b":
            akey = (ev.get("cat"), ev.get("id"))
            if akey[1] is None:
                fail(path, f"{where} async 'b' {name!r} has no id", errors)
            elif akey in async_open:
                fail(path, f"{where} async 'b' {name!r} reuses open id {akey}", errors)
            else:
                async_open[akey] = (name, ts)
        elif ph == "e":
            akey = (ev.get("cat"), ev.get("id"))
            begin = async_open.pop(akey, None)
            if begin is None:
                fail(path, f"{where} async 'e' {name!r} has no open 'b' for {akey}",
                     errors)
            elif ts < begin[1]:
                fail(path, f"{where} async 'e' {name!r} at {ts} precedes its 'b' "
                           f"at {begin[1]}", errors)
        elif ph == "C":
            counters += 1
            args = ev.get("args")
            series = [v for v in (args or {}).values()
                      if isinstance(v, (int, float)) and not isinstance(v, bool)]
            if not series:
                fail(path, f"{where} counter {name!r} has no numeric args", errors)
        elif ph == "i":
            pass
        else:
            fail(path, f"{where} has unknown phase {ph!r}", errors)

    for key, stack in sync_stacks.items():
        if stack:
            fail(path, f"unclosed 'B' frames on {key}: {stack}", errors)
    for akey, (name, _) in async_open.items():
        fail(path, f"async span {name!r} {akey} never ends", errors)

    return f"{len(events)} events ({counters} counter samples)"


# --- shared schema helpers ---------------------------------------------------


def check_build_stamp(path, doc, errors):
    if not isinstance(doc.get("schema_version"), int) or doc["schema_version"] < 1:
        fail(path, f"schema_version is {doc.get('schema_version')!r}", errors)
    if not isinstance(doc.get("build"), str) or not doc["build"]:
        fail(path, "missing build stamp", errors)


def counts_of(row):
    return {k: row.get(k) for k in COUNT_KEYS}


def check_scoreboard_row(path, where, row, errors):
    for key in COUNT_KEYS + ("breaches",):
        v = row.get(key)
        if not isinstance(v, int) or v < 0:
            fail(path, f"{where}.{key} is {v!r}, want a non-negative integer", errors)
            return
    if row["requests"] != row["served"] + row["shed"]:
        fail(path, f"{where}: requests {row['requests']} != served {row['served']} "
                   f"+ shed {row['shed']}", errors)
    if not row["shed"] <= row["missed"] <= row["requests"]:
        fail(path, f"{where}: expected shed <= missed <= requests, got "
                   f"{row['shed']} / {row['missed']} / {row['requests']}", errors)
    for key in ("attainment", "miss_rate", "shed_rate"):
        v = row.get(key)
        if v is not None and not (isinstance(v, (int, float)) and 0.0 <= v <= 1.0):
            fail(path, f"{where}.{key} is {v!r}, want null or in [0, 1]", errors)
    quantiles = [row.get(k) for k in ("e2e_p50_ms", "e2e_p95_ms", "e2e_p99_ms")]
    if all(isinstance(q, (int, float)) for q in quantiles):
        if not quantiles[0] <= quantiles[1] <= quantiles[2]:
            fail(path, f"{where}: e2e quantiles not monotone: {quantiles}", errors)


# --- health.json -------------------------------------------------------------


def check_health(path, errors):
    doc = load_json(path)
    check_build_stamp(path, doc, errors)
    fleet = doc.get("fleet")
    if not isinstance(fleet, dict):
        fail(path, "missing fleet row", errors)
        return "invalid"
    check_scoreboard_row(path, "fleet", fleet, errors)
    for kind in ("devices", "streams"):
        rows = doc.get(kind)
        if not isinstance(rows, list):
            fail(path, f"missing {kind} rows", errors)
            continue
        sums = dict.fromkeys(COUNT_KEYS, 0)
        for row in rows:
            name = row.get("device") or row.get("stream") or "?"
            check_scoreboard_row(path, f"{kind}[{name}]", row, errors)
            for key in COUNT_KEYS:
                if isinstance(row.get(key), int):
                    sums[key] += row[key]
        for key in COUNT_KEYS:
            if sums[key] != fleet.get(key):
                fail(path, f"{kind} {key} sum {sums[key]} != fleet {fleet.get(key)}",
                     errors)
    return (f"{len(doc.get('devices', []))} devices, "
            f"{len(doc.get('streams', []))} streams, "
            f"{fleet.get('requests')} requests")


# --- rollup.json -------------------------------------------------------------

EPS = 1e-6


def check_quantiles(path, where, q, errors):
    """A rollup quantile object; returns its count (0 when malformed)."""
    if not isinstance(q, dict):
        fail(path, f"{where} is not a quantile object", errors)
        return 0
    count = q.get("count")
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        fail(path, f"{where} count is {count!r}, want a non-negative integer", errors)
        return 0
    if count > 0:
        chain = [q.get(k) for k in ("min", "p50", "p95", "p99", "max")]
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in chain):
            fail(path, f"{where}: count {count} but min/p50/p95/p99/max are {chain}",
                 errors)
        elif not chain[0] <= chain[1] <= chain[2] <= chain[3] <= chain[4]:
            fail(path, f"{where}: expected min <= p50 <= p95 <= p99 <= max, got {chain}",
                 errors)
    return count


def check_window_series(path, where, series, window_s, errors):
    last = None
    for win in series:
        w = win.get("window")
        if not isinstance(w, int):
            fail(path, f"{where}: window id {w!r} not an integer", errors)
            return
        if last is not None and w <= last:
            fail(path, f"{where}: window {w} does not increase past {last}", errors)
        last = w
        start = win.get("start_s")
        want = w * window_s
        if not isinstance(start, (int, float)) or abs(start - want) > EPS * max(1.0, abs(want)):
            fail(path, f"{where}: window {w} start_s {start!r} != {want}", errors)


def check_rollup(path, errors):
    doc = load_json(path)
    check_build_stamp(path, doc, errors)
    window_s = doc.get("window_s")
    if not isinstance(window_s, (int, float)) or window_s <= 0:
        fail(path, f"window_s is {window_s!r}", errors)
        return "invalid"

    totals = dict.fromkeys(COUNT_KEYS, 0)
    energy = 0.0
    n_windows = 0
    for dev in doc.get("devices", []):
        name = dev.get("device", "?")
        series = dev.get("windows", [])
        check_window_series(path, f"device[{name}]", series, window_s, errors)
        for win in series:
            n_windows += 1
            where = f"device[{name}] window {win.get('window')}"
            energy += win.get("energy_j", 0.0)
            throttle = win.get("throttle_s", 0.0)
            if not -EPS <= throttle <= window_s + EPS:
                fail(path, f"{where}: throttle_s {throttle} outside window", errors)
            # Each per-level residency is serialized to 6 decimal places, so
            # the sum of rounded terms can overshoot by 0.5e-6 per level.
            levels = win.get("opp_residency_s", [])
            residency = sum(r[1] for r in levels)
            if residency > window_s + EPS * (1 + len(levels)):
                fail(path, f"{where}: OPP residency {residency} exceeds window", errors)
            check_quantiles(path, f"{where} temp_c", win.get("temp_c"), errors)
    for st in doc.get("streams", []):
        name = f"{st.get('device', '?')}/{st.get('stream', '?')}"
        series = st.get("windows", [])
        check_window_series(path, f"stream[{name}]", series, window_s, errors)
        for win in series:
            n_windows += 1
            where = f"stream[{name}] window {win.get('window')}"
            ok, late, shed = (win.get(k, -1) for k in ("ok", "late", "shed"))
            if win.get("requests") != ok + late + shed:
                fail(path, f"{where}: requests != ok + late + shed", errors)
            if win.get("served") != ok + late:
                fail(path, f"{where}: served != ok + late", errors)
            if win.get("missed") != late + shed:
                fail(path, f"{where}: missed != late + shed", errors)
            e2e_count = check_quantiles(path, f"{where} e2e_ms", win.get("e2e_ms"),
                                        errors)
            wait_count = check_quantiles(path, f"{where} queue_wait_ms",
                                         win.get("queue_wait_ms"), errors)
            if e2e_count != win.get("served"):
                fail(path, f"{where}: e2e count {e2e_count} != served "
                           f"{win.get('served')}", errors)
            if wait_count != win.get("requests"):
                fail(path, f"{where}: queue-wait count {wait_count} != "
                           f"requests {win.get('requests')}", errors)
            for key in COUNT_KEYS:
                totals[key] += win.get(key, 0)

    # The sibling scoreboard is computed from the same accumulators; its
    # fleet row must agree with the windowed series exactly.
    health_path = os.path.join(os.path.dirname(path), "health.json")
    if os.path.exists(health_path):
        fleet = load_json(health_path).get("fleet", {})
        for key in COUNT_KEYS:
            if totals[key] != fleet.get(key):
                fail(path, f"window {key} total {totals[key]} != health.json fleet "
                           f"{fleet.get(key)}", errors)
        fleet_energy = fleet.get("energy_j", 0.0)
        if abs(energy - fleet_energy) > EPS * max(1.0, abs(fleet_energy)):
            fail(path, f"window energy total {energy} != health.json fleet "
                       f"{fleet_energy}", errors)
    return f"{n_windows} windows, {totals['requests']} requests"


# --- breaches.jsonl ----------------------------------------------------------


def check_breaches(path, errors):
    ring = load_json(os.path.join(os.path.dirname(path), "manifest.json")).get(
        "ring_capacity")
    if not isinstance(ring, int) or ring < 1:
        fail(path, f"sibling manifest.json ring_capacity is {ring!r}", errors)
        return "invalid"
    reports = load_jsonl(path)
    for n, report in enumerate(reports, 1):
        if report.get("reason") not in ("shed", "slo_miss"):
            fail(path, f"line {n}: reason is {report.get('reason')!r}", errors)
        events = report.get("events")
        if not isinstance(events, list) or len(events) > ring:
            fail(path, f"line {n}: snapshot is not a list of at most {ring} events",
                 errors)
            continue
        foreign = [ev.get("process") for ev in events
                   if ev.get("process") != report.get("process")]
        if foreign:
            fail(path, f"line {n}: snapshot events of {foreign} in a breach of "
                       f"{report.get('process')!r}", errors)
    return f"{len(reports)} breach reports"


# --- sweep.json --------------------------------------------------------------


def check_sweep(path, errors):
    """lotus_sweep JSON Lines output: one meta line, then one cell per line.

    Checks the cell-count identity (meta declares the full cartesian size,
    and the axis lengths multiply out to it), strictly increasing cell
    ordering, and per-cell summary reconciliation (requests == served +
    shed, rates in [0, 1], monotone latency quantiles, CSV-row agreement
    when a sibling sweep.csv exists).
    """
    lines = load_jsonl(path)
    if not lines:
        fail(path, "empty sweep file", errors)
        return "invalid"

    meta = None
    cells = lines
    if "cells" in lines[0] and "cell" not in lines[0]:
        meta, cells = lines[0], lines[1:]
        check_build_stamp(path, meta, errors)
        axes = meta.get("axes")
        if not isinstance(axes, dict) or not axes:
            fail(path, "meta line lacks axes", errors)
        else:
            product = 1
            for axis, values in axes.items():
                if not isinstance(values, list) or not values:
                    fail(path, f"axis {axis!r} is empty", errors)
                    product = None
                    break
                product *= len(values)
            if product is not None and product != meta.get("cells"):
                fail(path, f"axes multiply to {product} cells but meta declares "
                           f"{meta.get('cells')}", errors)
        declared = meta.get("cells")
        if isinstance(declared, int) and len(cells) > declared:
            fail(path, f"{len(cells)} cell lines exceed declared {declared}", errors)

    last = None
    for i, cell in enumerate(cells):
        where = f"cell line {i}"
        idx = cell.get("cell")
        if not isinstance(idx, int) or idx < 0:
            fail(path, f"{where}: cell index is {idx!r}", errors)
            continue
        if last is not None and idx <= last:
            fail(path, f"{where}: cell {idx} does not increase past {last}", errors)
        last = idx
        for key in ("name", "router", "scheduler", "governor", "arrival",
                    "episode_seed"):
            if not isinstance(cell.get(key), str) or not cell[key]:
                fail(path, f"{where}: missing {key}", errors)
        summary = cell.get("summary")
        if not isinstance(summary, dict):
            fail(path, f"{where}: missing summary", errors)
            continue
        counts = {k: summary.get(k) for k in COUNT_KEYS}
        if any(not isinstance(v, int) or v < 0 for v in counts.values()):
            fail(path, f"{where}: non-integer counts {counts}", errors)
            continue
        if counts["requests"] != counts["served"] + counts["shed"]:
            fail(path, f"{where}: requests {counts['requests']} != served "
                       f"{counts['served']} + shed {counts['shed']}", errors)
        for key in ("miss_rate", "shed_rate"):
            v = summary.get(key)
            if not (isinstance(v, (int, float)) and 0.0 <= v <= 1.0):
                fail(path, f"{where}: {key} is {v!r}, want in [0, 1]", errors)
        quantiles = [summary.get(k) for k in ("p50_ms", "p95_ms", "p99_ms")]
        if all(isinstance(q, (int, float)) for q in quantiles):
            if not quantiles[0] <= quantiles[1] <= quantiles[2]:
                fail(path, f"{where}: latency quantiles not monotone: {quantiles}",
                     errors)

    # When the sibling CSV exists, both views of each cell must agree on
    # identity and counts (same emitter, so drift means a bug).
    csv_path = os.path.join(os.path.dirname(path), "sweep.csv")
    if os.path.exists(csv_path) and meta is not None:
        try:
            with open(csv_path, "r", encoding="utf-8", newline="") as fh:
                csv_rows = {int(row["cell"]): row for row in csv.DictReader(fh)}
        except (OSError, ValueError, KeyError) as exc:
            print(f"check_trace_json: cannot read {csv_path}: {exc}", file=sys.stderr)
            sys.exit(2)
        if len(csv_rows) != len(cells):
            fail(path, f"{len(cells)} JSON cells but {len(csv_rows)} CSV rows", errors)
        for cell in cells:
            row = csv_rows.get(cell.get("cell"))
            if row is None:
                fail(path, f"cell {cell.get('cell')} missing from sweep.csv", errors)
                continue
            if row.get("name") != cell.get("name"):
                fail(path, f"cell {cell['cell']}: CSV name {row.get('name')!r} != "
                           f"JSON {cell.get('name')!r}", errors)
            summary = cell.get("summary", {})
            for key in COUNT_KEYS:
                if row.get(key) != str(summary.get(key)):
                    fail(path, f"cell {cell['cell']}: CSV {key} {row.get(key)!r} != "
                               f"JSON {summary.get(key)!r}", errors)

    head = "meta + " if meta is not None else ""
    return f"{head}{len(cells)} cells"


# --- summary.csv reconciliation ----------------------------------------------


def sanitize(name):
    """The harness sinks' artifact-name sanitization (sinks.cpp)."""
    return "".join(c if (c.isascii() and c.isalnum()) or c in "-_" else "_"
                   for c in name)


# health.json quantile key -> summary.csv column.
QUANTILE_COLUMNS = (("e2e_p50_ms", "p50_ms"), ("e2e_p95_ms", "p95_ms"),
                    ("e2e_p99_ms", "p99_ms"))
# summary.csv prints quantiles to 3 decimals; health.json to 6. A health
# value within half a CSV unit (plus float slack for the 6-decimal
# rendering sitting on a rounding boundary) rounds to the CSV's value.
CSV_HALF_UNIT = 0.0005 + 1e-9


def load_summary_rows(path):
    """(sanitized scenario, sanitized arm) -> {"fleet": row, "devices":
    {label: row}, "streams": {label: row}} of count and quantile fields."""
    episodes = {}
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                if "scope" in row:  # fleet summary: scope fleet/device/stream
                    scope, label = row["scope"], row["label"]
                else:  # serving summary: the aggregate is stream "all"
                    label = row["stream"]
                    scope = "fleet" if label == "all" else "stream"
                fields = {k: int(row[k]) for k in COUNT_KEYS}
                fields.update({c: float(row[c]) for _, c in QUANTILE_COLUMNS})
                key = (sanitize(row["scenario"]), sanitize(row["arm"]))
                ep = episodes.setdefault(key, {"fleet": None, "devices": {},
                                               "streams": {}})
                if scope == "fleet":
                    ep["fleet"] = fields
                else:
                    ep[scope + "s"][label] = fields
    except (OSError, ValueError, KeyError) as exc:
        print(f"check_trace_json: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)
    return episodes


def reconcile_row(path, where, row, expected, errors):
    for k in COUNT_KEYS:
        if row.get(k) != expected[k]:
            fail(path, f"{where} {k} {row.get(k)} != summary.csv {expected[k]}", errors)
    if expected["served"] == 0:
        return  # the CSV prints 0 where health.json has no quantile (null)
    for hkey, ckey in QUANTILE_COLUMNS:
        h = row.get(hkey)
        if not isinstance(h, (int, float)) or abs(h - expected[ckey]) > CSV_HALF_UNIT:
            fail(path, f"{where} {hkey} {h!r} != summary.csv {ckey} {expected[ckey]}",
                 errors)


def reconcile_health(path, summary_rows, csv_path, errors):
    parts = os.path.normpath(os.path.abspath(path)).split(os.sep)
    key = tuple(parts[-3:-1])  # .../<scenario>/<arm>/health.json
    expected = summary_rows.get(key)
    if expected is None or expected["fleet"] is None:
        fail(path, f"no {csv_path} aggregate row for {key[0]}/{key[1]}", errors)
        return
    doc = load_json(path)
    reconcile_row(path, "fleet", doc.get("fleet", {}), expected["fleet"], errors)
    for row in doc.get("streams", []):
        name = row.get("stream")
        if name not in expected["streams"]:
            fail(path, f"stream {name!r} has no summary.csv row", errors)
            continue
        reconcile_row(path, f"stream {name}", row, expected["streams"][name], errors)
    # Device rows exist in fleet summaries only; health.json's router
    # pseudo-device (dispatcher-level sheds) has no CSV row.
    for row in doc.get("devices", []):
        name = row.get("device")
        if name in expected["devices"]:
            reconcile_row(path, f"device {name}", row, expected["devices"][name], errors)


# --- driver ------------------------------------------------------------------

CHECKERS = {
    "trace.json": check_trace,
    "health.json": check_health,
    "rollup.json": check_rollup,
    "breaches.jsonl": check_breaches,
    "sweep.json": check_sweep,
}


def main():
    args = sys.argv[1:]
    reconcile_csv = None
    if args and args[0] == "--reconcile":
        if len(args) < 2:
            print("check_trace_json: --reconcile wants a summary.csv", file=sys.stderr)
            return 2
        reconcile_csv = args[1]
        args = args[2:]
    if not args:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: check_trace_json.py [--reconcile SUMMARY.csv] "
              "ARTIFACT [ARTIFACT ...]", file=sys.stderr)
        return 2

    summary_rows = load_summary_rows(reconcile_csv) if reconcile_csv else None

    errors = []
    for path in args:
        checker = CHECKERS.get(os.path.basename(path))
        if checker is None:
            print(f"check_trace_json: {path}: unknown artifact (expected one of "
                  f"{', '.join(CHECKERS)})", file=sys.stderr)
            return 2
        detail = checker(path, errors)
        if summary_rows is not None and os.path.basename(path) == "health.json":
            reconcile_health(path, summary_rows, reconcile_csv, errors)
        status = "FAIL" if any(e.startswith(path + ":") for e in errors) else "ok"
        print(f"{path}: {detail} [{status}]")

    if errors:
        for e in errors:
            print(f"FAIL: {e}", file=sys.stderr)
        return 1
    print("all artifacts valid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
