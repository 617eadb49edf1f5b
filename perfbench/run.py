#!/usr/bin/env python3
"""Repository benchmark: builds the lotus library and the benchmark driver
from source, runs one workload and prints its metrics.

Usage (from the repository root):

  python3 perfbench/run.py --workload table1_frcnn_kitti_short --seed 42 --seconds 25 --trace 0
  python3 perfbench/run.py --workload serve_saturation_short --trace 1  # per-layer split
  python3 perfbench/run.py --all                  # every workload, both recorded seeds
  python3 perfbench/run.py --workload serve_overload_40k --steady 10   # spread vs bounds

--trace 0 prints every end-to-end metric, measured with tracing off. Host
times are CPU seconds rescaled to a reference core speed: one serial copy
of the work runs on each core (at most four) at once, a fixed calibration
kernel runs before and after each copy on its thread, and the median is
taken over every copy of every round. On a shared host a core's speed
swings by 20-30% within seconds; the rescaling and the median over cores
keep that out of the figures.
--trace 1 prints every per-layer metric: an untraced and a traced pass in
one process, every governor hook timed from outside the library, plus
microbenchmarks of single library functions. Two clocks appear: host time
(how long the simulator takes; units s, ms, us) and simulated time (what
the modelled Orin Nano would take; units sim_*).

Correctness: every episode's output digest must repeat across passes and
threads, at a second harness job count and between the untraced and traced
passes; requests are conserved (served + shed = generated) and every
simulated metric is finite. Failed episodes count in "failed", and any
failure makes the command exit 1. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((BENCH_DIR / "spec.json").read_text())
EPS = 1e-6
SIM_METRICS = ("sim_p50_latency_ms", "sim_p95_latency_ms", "sim_latency_std_ms",
               "sim_miss_rate", "sim_peak_temp_c")


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def child_env():
    env = dict(os.environ)
    env.pop("LOTUS_BENCH_FAST", None)  # full-size workloads only
    return env


def build():
    """Configure and build the driver; exit 1, printing no result, on failure."""
    out = build_dir()
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (out / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    compile_ = ["cmake", "--build", str(out), "--target", "perfbench_driver", "-j", "4"]
    for step in (configure, compile_):
        if subprocess.run(step, stdout=sys.stderr, env=child_env()).returncode != 0:
            sys.exit("perfbench: build failed")
    return out / "perfbench_driver"


def driver(exe, mode, workload, seed, seconds=0):
    out_dir = build_dir().parent / "out"
    cmd = [str(exe), "--mode", mode, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", str(out_dir)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), timeout=170)
    shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        sys.exit(f"perfbench: driver --mode {mode} --workload {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Tally:
    """Episodes attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def episode(self, where, problems):
        self.attempted += 1
        if problems:
            self.failures.append(f"{where}: {'; '.join(problems)}")

    def merge(self, other):
        self.attempted += other.attempted
        self.failures += other.failures


def episode_problems(e, reference, digest):
    problems = []
    if e["digest"] != digest:
        problems.append("digest differs")
    if not e["conserved"]:
        problems.append("requests not conserved")
    if not e["finite"] or not all(isinstance(v, (int, float)) for v in reference.values()):
        problems.append("non-finite simulated metric")
    return problems


def end_to_end(exe, workload, seed, seconds):
    """Untraced run: every end-to-end metric, plus the correctness tally."""
    m = driver(exe, "measure", workload, seed, seconds)
    c = driver(exe, "check", workload, seed)
    tally = Tally()
    passes = m["passes"]
    digests = [e["digest"] for e in passes[0]["episodes"]]
    core = [e["core_digest"] for e in passes[0]["episodes"]]
    for k, p in enumerate(passes):
        for e, digest in zip(p["episodes"], digests):
            tally.episode(f"pass {k + 1} {e['arm']}", episode_problems(e, p["reference"], digest))
    for e in c["episodes"]:
        differs = e["core_digest"] != core[e["arm_index"]]
        tally.episode(f"jobs={c['jobs']} arm {e['arm_index']}",
                      ["digest differs at a second job count"] if differs else [])
    frames = sum(e["pretrain_frames"] + e["measured_frames"] for e in passes[0]["episodes"])
    ref = passes[0]["reference"]
    metrics = {
        "ref_cpu_s": statistics.median(m["pass_ref_s"]),
        "sim_frames_per_ref_cpu_s": frames / statistics.median(m["pass_ref_s"]),
        "setup_s": statistics.median(m["setup_ref_s"]),
        "peak_rss_mb": m["peak_rss_mb"],
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_cpu_s": statistics.median(m["setup_cpu_s"]),
        "episode_fail_rate": len(tally.failures) / tally.attempted,
    }
    metrics.update({name: ref[name] for name in SIM_METRICS})
    info = {"passes": len(passes), "threads": m["threads"], "setups": len(m["setup_ref_s"]),
            "frames": frames,
            "samples": ref["samples"], "digests": digests}
    return metrics, tally, info


def per_layer(exe, workload, seed):
    """Traced run: every per-layer metric, plus its own correctness checks."""
    t = driver(exe, "trace", workload, seed)
    tally = Tally()
    untraced, traced = t["untraced"], t["traced"]["pass"]
    probes = t["traced"]["probes"]
    eps = untraced["episodes"]
    digests = [e["digest"] for e in eps]
    for e, digest in zip(eps, digests):
        tally.episode(f"untraced {e['arm']}", episode_problems(e, untraced["reference"], digest))
    for e, p, digest in zip(traced["episodes"], probes, digests):
        problems = episode_problems(e, traced["reference"], digest)
        for ok, why in (
                (p["hooks_pretrain_s"] <= p["pretrain_s"] + EPS, "pretrain hook time > phase"),
                (p["hooks_serve_s"] <= p["serve_s"] + EPS, "serve hook time > phase"),
                (p["pretrain_s"] + p["serve_s"] <= p["episode_s"] + EPS, "phases > episode"),
                (p["pretrain_frames"] == e["pretrain_frames"], "pretrain frames differ"),
                (p["serve_frames"] == e["measured_frames"], "measured frames differ")):
            if not ok:
                problems.append(why)
        tally.episode(f"traced {e['arm']}", problems)

    def total(key, rows=probes):
        return sum(r[key] for r in rows)

    def self_time(rows):
        return total("episode_s", rows) - total("hooks_s", rows)

    frames = total("pretrain_frames") + total("serve_frames")
    record_s = 0.0
    if "traced_no_telemetry" in t:
        record_s = self_time(probes) - self_time(t["traced_no_telemetry"]["probes"])
    serving = t["engine"] != "experiment"
    micro = t["micro"]
    metrics = {
        "phase.pretrain_s": total("pretrain_s"),
        "phase.pretrain_frames": total("pretrain_frames"),
        "phase.serve_s": total("serve_s"),
        "phase.serve_frames": total("serve_frames"),
        "episode.host_s": total("episode_s"),
        "lotus.learn_s": total("learn_s"),
        "lotus.learn_calls": total("learn_calls"),
        "lotus.decide_s": total("decide_s"),
        "lotus.decide_calls": total("decide_calls"),
        "rl.updates": total("rl_updates"),
        "rl.train_step_us": micro["train_step_us"],
        "rl.forward_us": micro["forward_us"],
        "rl.forward_w075_us": micro["forward_slim_us"],
        "governors.tick_s": total("tick_s"),
        "governors.tick_calls": total("tick_calls"),
        "governors.hook_s": total("hooks_s"),
        "sim.self_s": self_time(probes),
        "sim.self_us_per_frame": 1e6 * self_time(probes) / frames,
        "platform.thermal_steps": total("thermal_steps", eps),
        "serving.timeline_s": statistics.median(t["timeline_s"]),
        "serving.requests": total("requests", eps) if serving else 0,
        "serving.shed": total("shed", eps),
        "serving.max_queue_depth": max(e["max_queue_depth"] for e in eps),
        "serving.pick_us": micro["pick_us"],
        "serving.pick_admit_us": micro["pick_admit_us"],
        "telemetry.record_s": record_s,
        "telemetry.events": total("telemetry_events", eps),
        "telemetry.breaches": total("telemetry_breaches", eps),
        "harness.emit_s": untraced["emit_s"],
        "telemetry.bytes_written": untraced["bytes_written"],
        "accuracy.paper_gap_pct": untraced["reference"].get("paper_gap_pct", 0.0),
        "trace_overhead_pct":
            100.0 * (traced["wall_s"] - untraced["wall_s"]) / untraced["wall_s"],
    }
    return metrics, tally


def metric_specs(kind):
    return {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


def unit_of(name):
    spec = SPEC["metrics"].get(name)
    return spec["unit"] if spec else "count"


def print_table(title, metrics):
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<26} {value:>16.6g} {unit_of(name)}")


def print_shares(metrics):
    """Where the traced host time went: disjoint layers as shares of episode
    host time plus output time (both summed over episodes)."""
    record = metrics["telemetry.record_s"]
    parts = {
        "lotus.learn_s": metrics["lotus.learn_s"],
        "lotus.decide_s": metrics["lotus.decide_s"],
        "governors.tick_s": metrics["governors.tick_s"],
        "sim.self_s minus telemetry": metrics["sim.self_s"] - record,
        "telemetry.record_s": record,
        "harness.emit_s": metrics["harness.emit_s"],
    }
    busy = metrics["episode.host_s"] + metrics["harness.emit_s"]
    shares = ", ".join(f"{k} {100 * v / busy:.1f}%" for k, v in parts.items())
    print(f"  share of host time: {shares}")
    print(f"  largest: {max(parts, key=parts.get)}")


def result_line(tally, metrics, kind):
    names = metric_specs(kind)
    chosen = {n: {"value": metrics[n], "unit": names[n]["unit"]} for n in names}
    return json.dumps({"correct": not tally.failures, "attempted": tally.attempted,
                       "failed": len(tally.failures), "metrics": chosen})


def run_one(exe, workload, seed, seconds, trace):
    if trace:
        metrics, tally = per_layer(exe, workload, seed)
        print_table(f"{workload} seed {seed}: per-layer metrics (traced run)", metrics)
        print_shares(metrics)
    else:
        metrics, tally, info = end_to_end(exe, workload, seed, seconds)
        print_table(f"{workload} seed {seed}: end-to-end metrics ({info['passes']} serial "
                    f"passes on {info['threads']} threads, {info['setups']} set-ups, "
                    f"{info['frames']} frames/pass, "
                    f"{info['samples']} latency samples)", metrics)
        print(f"  episode digests: {' '.join(info['digests'])}")
        # A simulator-only change must leave these byte-identical.
        recorded = SPEC["recorded_digests"].get(workload)
        if seed == SPEC["default_seed"] and recorded:
            same = recorded == info["digests"]
            print(f"  episode digests vs recorded: {'identical' if same else 'DIFFERENT'}")
    for f in tally.failures:
        print(f"  FAILED {f}")
    return metrics, tally


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(exe, workload, seed, seconds, k):
    """Run one workload k times on consecutive seeds; report each end-to-end
    metric's median, quartiles and spread against its recorded bound."""
    runs = []
    tally = Tally()
    for i in range(k):
        metrics, t = run_one(exe, workload, seed + i, seconds, False)
        runs.append(metrics)
        tally.merge(t)
    bad = []
    print(f"{workload}: {k} runs, seeds {seed}..{seed + k - 1}")
    print(f"  {'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, spec in metric_specs("end_to_end").items():
        q1, med, q3 = quartiles([r[name] for r in runs])
        spread = (q3 - q1) / med
        verdict = "ok" if spread <= spec["bound"] / 3 else "WIDE"
        if name != "setup_s" and spread > spec["bound"]:
            verdict = "OVER"
            bad.append(name)
        print(f"  {name:<22} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
              f"{spec['bound']:>6.3f} {verdict}")
    return tally, not bad


def run_all(exe, seconds):
    """Every workload at the default and the held-out seed."""
    tally = Tally()
    table = {}
    for seed in (SPEC["default_seed"], SPEC["held_out_seed"]):
        for workload in SPEC["workloads"]:
            metrics, t = run_one(exe, workload, seed, seconds, False)
            tally.merge(t)
            table[f"{workload}/seed{seed}"] = metrics
    print("simulated metrics by seed:")
    for key, metrics in table.items():
        sims = "  ".join(f"{n}={metrics[n]:.6g}" for n in SIM_METRICS)
        print(f"  {key:<40} {sims}")
    return tally, table


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(SPEC["workloads"]))
    ap.add_argument("--seed", type=int, default=SPEC["default_seed"])
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="K",
                    help="run the workload K times on consecutive seeds and report spreads")
    ap.add_argument("--all", action="store_true",
                    help="run every workload at the default and held-out seeds")
    args = ap.parse_args()
    if not args.all and not args.workload:
        ap.error("--workload is required (or --all)")
    if args.steady is not None and args.steady < 2:
        ap.error("--steady needs at least 2 runs")
    exe = build()

    if args.all:
        tally, table = run_all(exe, args.seconds)
        flat = {f"{key}/{n}": {"value": v, "unit": unit_of(n)}
                for key, metrics in table.items() for n, v in metrics.items()}
        print(json.dumps({"correct": not tally.failures, "attempted": tally.attempted,
                          "failed": len(tally.failures), "metrics": flat}))
        return 0 if not tally.failures else 1
    if args.steady:
        tally, ok = steady(exe, args.workload, args.seed, args.seconds, args.steady)
        return 0 if ok and not tally.failures else 1

    metrics, tally = run_one(exe, args.workload, args.seed, args.seconds, args.trace)
    print(result_line(tally, metrics, "per_layer" if args.trace else "end_to_end"))
    return 0 if not tally.failures else 1


if __name__ == "__main__":
    sys.exit(main())
