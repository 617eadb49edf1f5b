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
    cli::AdhocOptions adhoc;
    cli::TraceFlags traces;
};

Options parse(int argc, char** argv) {
    Options opt;
    cli::ArgWalk args(kTool, argc, argv);
    while (args.next()) {
        if (!opt.parse_flag(args) && !opt.adhoc.parse_flag(args) &&
            !opt.traces.parse_flag(args)) {
            args.error("unknown flag " + args.flag());
        }
    }
    opt.mode_flags = args.mode_flags();
    return opt;
}

int run_adhoc(const Options& opt) {
    const bool fleet = opt.adhoc.serving.devices > 0;
    const auto scenario = cli::adhoc_scenario(
        kTool, opt.adhoc, fleet ? "cli_fleet" : "cli_serve",
        fleet ? "lotus_serve ad-hoc fleet experiment" : "lotus_serve ad-hoc serving experiment");
    const auto& load = opt.adhoc.load;
    const auto& stream = fleet ? scenario.fleet->streams.front()
                               : scenario.serving->streams.front();
    std::fprintf(stderr,
                 "%s: %s + %s + %s | %zu streams x %zu req @ %.2f Hz (%s), SLO %.0f ms, "
                 "scheduler %s, governor %s, seed %llu",
                 kTool.c_str(), scenario.config.device_spec.name.c_str(),
                 detector::to_string(scenario.config.detector), load.dataset.c_str(),
                 load.streams, stream.requests, load.rate_hz,
                 serving::to_string(load.arrival), stream.slo_s * 1e3,
                 opt.adhoc.serving.scheduler.c_str(), scenario.arms[0].name.c_str(),
                 static_cast<unsigned long long>(opt.harness.seed.value));
    if (fleet) {
        std::fprintf(stderr, " | fleet of %zu, router %s", opt.adhoc.serving.devices,
                     scenario.fleet->router.c_str());
    }
    std::fprintf(stderr, "\n");

    cli::run_batch(kTool, opt, {&scenario}, opt.traces);
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    const auto opt = parse(argc, argv);
    try {
        opt.traces.reject_same_dir(kTool);
        if (opt.list_scenarios) return cli::list_scenarios();
        cli::reject_chart_with_json(kTool, opt.render);
        if (!opt.scenarios.empty()) {
            cli::reject_mode_flags(kTool, opt.mode_flags, "ad-hoc");
            return cli::run_scenarios(kTool, opt, opt.traces);
        }
        return run_adhoc(opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s\n", kTool.c_str(), e.what());
        return 1;
    }
}
