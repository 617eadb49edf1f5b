// lotus_serve: multi-stream serving front end.
//
// Two modes, both driven by the ExperimentHarness:
//
//  * Scenario mode -- run named registry scenarios exactly as lotus_run
//    does (same runner and renderers, tools/cli_common.hpp), plus request
//    trace capture/replay. Registry scenarios are fixed: every ad-hoc flag,
//    --devices and --router included, is rejected here. Parallel runs are
//    byte-identical to serial runs for the same seed, so `--jobs` is purely
//    a throughput knob.
//
//      lotus_serve --list-scenarios
//      lotus_serve --scenario serve_saturation --jobs 4
//      lotus_serve --scenario serve_light --format json
//
//  * Ad-hoc mode -- build one serving experiment from flags: N identical
//    streams (phase-staggered so they do not arrive in lockstep) of the
//    given dataset/arrival process, one governor, one scheduler. With
//    --devices N the streams are served by a FLEET of N copies of the
//    device preset behind the chosen --router (one governor instance per
//    device) instead of a single device. Custom pools for a registry
//    scenario's load are what lotus_sweep is for.
//
//      lotus_serve --streams 8 --arrival burst --scheduler edf --governor lotus
//      lotus_serve --streams 4 --arrival poisson --rate 0.5 --slo 800 --csv out/
//      lotus_serve --streams 12 --rate 1.2 --devices 4 --router thermal_aware
//
// Flags (all optional):
//   --list-scenarios  enumerate the scenario registry and exit
//   --scenario NAME   run a registry scenario (repeatable)
//   --jobs N          worker threads                    (default: all cores)
//   --devices N       serve on a fleet of N copies of the device preset
//   --router R        round_robin | least_queue | thermal_aware | lotus_fleet
//                     (requires --devices; default round_robin)
//   --device     orin | mi11                            (default orin)
//   --detector   frcnn | mrcnn | yolo                   (default frcnn)
//   --dataset    kitti | visdrone                       (default kitti)
//   --governor   default | ztt | lotus | performance | powersave | random
//              | ondemand | conservative | fixed:<cpu>,<gpu>  (default lotus)
//   --scheduler  fifo | edf | edf_admit                 (default edf)
//   --arrival    periodic | poisson | burst | diurnal | attack (default poisson)
//   --streams N       number of client streams          (default 4)
//   --rate HZ         per-stream mean request rate      (default 0.25)
//   --slo MS          per-request deadline              (default 2x calibrated L)
//   --requests N      requests per stream               (default 150; 25 fast mode)
//   --burst N         requests per volley (burst/attack arrivals, default 8)
//   --pretrain N      unrecorded warm-up frames         (default 2500; agents only)
//   --seed S          experiment seed                   (default 42)
//   --format table | json                               (default table)
//   --csv DIR         write per-request ledgers + summary CSV into DIR
//   --chart           render temperature / end-to-end latency ASCII charts
//   --profile         print the internal profiler's report to stderr, one
//                     per run naming its scenarios (see src/prof/)
//   --telemetry DIR   record sim-time telemetry per episode and write it
//                     under DIR/<scenario>/<arm>/: trace.json (Perfetto /
//                     chrome://tracing), breaches.jsonl, manifest.json,
//                     rollup.json, health.json (see src/telemetry/)
//   --record-trace DIR  dump every serving/fleet episode's request timeline
//                     as a compact binary trace: DIR/<scenario>/<NN>_<arm>.ltrc
//                     (inspect with lotus_trace info/cat)
//   --replay-trace DIR  replay episodes from traces recorded under DIR
//                     (same layout); outputs are byte-identical to the
//                     generating run
//
// Without --csv/--chart the serving/fleet episodes run summary-only: the
// per-request ledger is never materialised (tables and JSON are
// byte-identical either way).
//
// Unknown flags, unknown enum values, malformed numbers and contradictory
// invocations (scenario mode combined with ad-hoc flags, --router without
// a fleet) are rejected with a nonzero exit -- no silent fallbacks.

#include <cstdio>
#include <string>
#include <vector>

#include "cli_common.hpp"

using namespace lotus;

namespace {

const std::string kTool = "lotus_serve";

struct Options : cli::CommonOptions {
    std::string device = "orin";
    std::string detector = "frcnn";
    std::string governor = "lotus";
    std::string scheduler = "edf";
    cli::StreamFlags load;
    std::size_t pretrain = 2500;
    /// Ad-hoc fleet: a pool of N preset copies behind the router.
    std::size_t devices = 0; // 0 = not passed
    std::string router;      // "" = not passed
    /// Trace capture/replay directories (see HarnessConfig::trace_dir /
    /// replay_dir); empty = off.
    std::string record_trace_dir;
    std::string replay_trace_dir;
    /// Ad-hoc-only flags the user explicitly passed, so scenario mode can
    /// reject them instead of silently ignoring an override.
    std::vector<std::string> adhoc_flags;
};

Options parse(int argc, char** argv) {
    Options opt;
    const auto need_value = [&](int& i) { return cli::flag_value(kTool, argc, argv, i); };
    const auto u64 = [&](const std::string& flag, const std::string& v) {
        return cli::parse_u64(kTool, flag, v);
    };
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const bool adhoc_only =
            flag == "--device" || flag == "--detector" || flag == "--dataset" ||
            flag == "--governor" || flag == "--scheduler" || flag == "--arrival" ||
            flag == "--streams" || flag == "--rate" || flag == "--slo" ||
            flag == "--requests" || flag == "--burst" || flag == "--pretrain" ||
            flag == "--devices" || flag == "--router";
        if (adhoc_only) opt.adhoc_flags.push_back(flag);
        if (opt.parse_flag(kTool, argc, argv, i)) continue;
        if (opt.load.parse_flag(kTool, argc, argv, i)) continue;
        if (flag == "--device") {
            opt.device = need_value(i);
        } else if (flag == "--detector") {
            opt.detector = need_value(i);
        } else if (flag == "--governor") {
            opt.governor = need_value(i);
        } else if (flag == "--scheduler") {
            opt.scheduler = need_value(i);
        } else if (flag == "--pretrain") {
            opt.pretrain = static_cast<std::size_t>(u64(flag, need_value(i)));
        } else if (flag == "--devices") {
            opt.devices = static_cast<std::size_t>(u64(flag, need_value(i)));
            if (opt.devices == 0) cli::usage_error(kTool, "--devices must be >= 1");
        } else if (flag == "--router") {
            opt.router = cli::parse_router(kTool, need_value(i));
        } else if (flag == "--record-trace") {
            opt.record_trace_dir = need_value(i);
            if (opt.record_trace_dir.empty()) {
                cli::usage_error(kTool, "--record-trace wants a directory");
            }
        } else if (flag == "--replay-trace") {
            opt.replay_trace_dir = need_value(i);
            if (opt.replay_trace_dir.empty()) {
                cli::usage_error(kTool, "--replay-trace wants a directory");
            }
        } else {
            cli::usage_error(kTool, "unknown flag " + flag);
        }
    }
    if (!opt.record_trace_dir.empty() && !opt.replay_trace_dir.empty() &&
        opt.record_trace_dir == opt.replay_trace_dir) {
        cli::usage_error(kTool, "--record-trace and --replay-trace must not point at "
                                "the same directory (capture would overwrite the "
                                "traces being replayed)");
    }
    return opt;
}

int run_adhoc(const Options& opt) {
    if (opt.devices == 0 && !opt.router.empty()) {
        cli::usage_error(kTool, "--router picks the fleet routing policy and requires "
                                "--devices N (a single device has nothing to route)");
    }
    (void)opt.render_options(kTool); // reject bad flag combinations before the banner
    const auto spec = cli::parse_device(kTool, opt.device);
    const auto kind = cli::parse_detector(kTool, opt.detector);
    const auto& dataset = opt.load.dataset;
    try {
        (void)serving::make_scheduler(opt.scheduler);
    } catch (const std::invalid_argument& e) {
        cli::usage_error(kTool, e.what());
    }

    const double constraint = workload::latency_constraint_s(spec.name, kind, dataset);
    auto load = opt.load;
    if (load.slo_s == 0.0) load.slo_s = 2.0 * constraint;
    if (load.requests == 0) load.requests = harness::fast_mode() ? 25 : 150;
    auto streams = cli::identical_streams(load);

    harness::Scenario scenario(
        runtime::static_experiment(spec, kind, dataset, 1, 0, opt.seed.value));
    scenario.name = opt.devices > 0 ? "cli_fleet" : "cli_serve";
    scenario.title = opt.devices > 0 ? "lotus_serve ad-hoc fleet experiment"
                                     : "lotus_serve ad-hoc serving experiment";
    serving::LoadConfig* shared = nullptr;
    if (opt.devices > 0) {
        auto& cfg = scenario.fleet.emplace();
        cfg.devices = fleet::device_pool(spec, opt.device, opt.devices);
        cfg.router = opt.router.empty() ? "round_robin" : opt.router;
        shared = &cfg;
    } else {
        shared = &scenario.serving.emplace(spec);
    }
    shared->detector = kind;
    shared->scheduler = opt.scheduler;
    shared->pretrain_iterations = opt.pretrain;
    shared->pretrain_constraint_s = constraint;
    shared->streams = std::move(streams);
    scenario.arms.push_back(
        harness::governor_arm(cli::parse_governor(kTool, opt.governor, spec)));

    std::fprintf(stderr,
                 "%s: %s + %s + %s | %zu streams x %zu req @ %.2f Hz (%s), SLO %.0f ms, "
                 "scheduler %s, governor %s, seed %llu",
                 kTool.c_str(), spec.name.c_str(), detector::to_string(kind),
                 dataset.c_str(), load.streams, load.requests, load.rate_hz,
                 serving::to_string(load.arrival), load.slo_s * 1e3, opt.scheduler.c_str(),
                 scenario.arms[0].name.c_str(),
                 static_cast<unsigned long long>(opt.seed.value));
    if (opt.devices > 0) {
        std::fprintf(stderr, " | fleet of %zu, router %s", opt.devices,
                     scenario.fleet->router.c_str());
    }
    std::fprintf(stderr, "\n");

    cli::run_batch(kTool, opt, {&scenario}, opt.record_trace_dir, opt.replay_trace_dir);
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    const auto opt = parse(argc, argv);
    try {
        if (opt.list_scenarios) return cli::list_scenarios();
        if (!opt.scenarios.empty()) {
            cli::reject_mode_flags(kTool, opt.adhoc_flags, "ad-hoc");
            return cli::run_scenarios(kTool, opt, opt.record_trace_dir, opt.replay_trace_dir);
        }
        return run_adhoc(opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s\n", kTool.c_str(), e.what());
        return 1;
    }
}
