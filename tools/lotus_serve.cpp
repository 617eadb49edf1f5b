// lotus_serve: multi-stream serving front end.
//
// Two modes, both driven by the ExperimentHarness over serving scenarios:
//
//  * Scenario mode -- run named serving scenarios from the ScenarioRegistry
//    (the serve_* catalog half). Parallel runs are byte-identical to serial
//    runs for the same seed, so `--jobs` is purely a throughput knob.
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
//    device) instead of a single device.
//
//      lotus_serve --streams 8 --arrival burst --scheduler edf --governor lotus
//      lotus_serve --streams 4 --arrival poisson --rate 0.5 --slo 800 --csv out/
//      lotus_serve --streams 12 --rate 1.2 --devices 4 --router thermal_aware
//
// Flags (all optional):
//   --list-scenarios  enumerate serving + fleet scenarios and exit
//   --scenario NAME   run a registry serving/fleet scenario (repeatable)
//   --jobs N          worker threads for scenario mode  (default: all cores)
//   --devices N       fleet size. Ad-hoc mode: serve on N copies of the
//                     device preset. Scenario mode: resize a FLEET
//                     scenario's pool (cycling its defined devices);
//                     rejected for non-fleet scenarios.
//   --router R        round_robin | least_queue | thermal_aware | lotus_fleet
//                     Ad-hoc mode: requires --devices. Scenario mode:
//                     overrides a fleet scenario's default routing policy
//                     (arms that pin their own router -- the router
//                     shoot-out scenarios -- keep their pin).
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
//   --profile         print the internal profiler's per-scenario report to
//                     stderr (regions + counters; see src/prof/)
//   --telemetry DIR   record sim-time telemetry per episode and write it
//                     under DIR/<scenario>/<arm>/: trace.json (Perfetto /
//                     chrome://tracing), breaches.jsonl, manifest.json,
//                     rollup.json, health.json (see src/telemetry/)
//   --record-trace DIR  dump every episode's request timeline as a compact
//                     binary trace: DIR/<scenario>/<NN>_<arm>.ltrc
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
// invocations (scenario mode combined with ad-hoc stream flags, --router
// without a fleet) are rejected with a nonzero exit -- no silent fallbacks.

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
    std::string dataset = "kitti";
    std::string governor = "lotus";
    std::string scheduler = "edf";
    std::string arrival = "poisson";
    std::size_t streams = 4;
    double rate_hz = 0.25;
    double slo_ms = 0.0; // 0 -> 2x calibrated constraint
    std::size_t requests = 0; // 0 -> fast-mode-aware default
    std::size_t burst = 8;
    std::size_t pretrain = 2500;
    /// Fleet knobs: valid in ad-hoc mode (build a fleet of N preset copies)
    /// and in scenario mode (override a fleet scenario's pool size/router).
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
            flag == "--requests" || flag == "--burst" || flag == "--pretrain";
        if (adhoc_only) opt.adhoc_flags.push_back(flag);
        if (opt.parse_flag(kTool, argc, argv, i)) continue;
        if (flag == "--device") {
            opt.device = need_value(i);
        } else if (flag == "--detector") {
            opt.detector = need_value(i);
        } else if (flag == "--dataset") {
            opt.dataset = need_value(i);
        } else if (flag == "--governor") {
            opt.governor = need_value(i);
        } else if (flag == "--scheduler") {
            opt.scheduler = need_value(i);
        } else if (flag == "--arrival") {
            opt.arrival = need_value(i);
        } else if (flag == "--streams") {
            opt.streams = static_cast<std::size_t>(u64(flag, need_value(i)));
            if (opt.streams == 0) cli::usage_error(kTool, "--streams must be >= 1");
        } else if (flag == "--rate") {
            opt.rate_hz = cli::parse_positive_double(kTool, flag, need_value(i));
        } else if (flag == "--slo") {
            opt.slo_ms = cli::parse_positive_double(kTool, flag, need_value(i));
        } else if (flag == "--requests") {
            opt.requests = static_cast<std::size_t>(u64(flag, need_value(i)));
            if (opt.requests == 0) cli::usage_error(kTool, "--requests must be >= 1");
        } else if (flag == "--burst") {
            opt.burst = static_cast<std::size_t>(u64(flag, need_value(i)));
            if (opt.burst == 0) cli::usage_error(kTool, "--burst must be >= 1");
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

int list_scenarios() {
    const auto& registry = harness::ScenarioRegistry::instance();
    const auto serving = registry.with_tag("serving");
    util::TextTable table({"scenario", "arms", "devices", "scheduler", "streams", "title"});
    for (const auto* s : serving) {
        const bool fleet = s->is_fleet();
        table.add_row({s->name, std::to_string(s->arms.size()),
                       fleet ? std::to_string(s->fleet->devices.size()) : "1",
                       fleet ? s->fleet->scheduler : s->serving->scheduler,
                       std::to_string(fleet ? s->fleet->streams.size()
                                            : s->serving->streams.size()),
                       s->title});
    }
    std::printf("%s", table.render("serving + fleet scenarios (" +
                                   std::to_string(serving.size()) + " of " +
                                   std::to_string(registry.all().size()) +
                                   " registry entries)")
                          .c_str());
    return 0;
}

int run_scenarios(const Options& opt) {
    if (!opt.adhoc_flags.empty()) {
        cli::usage_error(kTool, opt.adhoc_flags.front() +
                                    " only applies to ad-hoc mode; scenario definitions "
                                    "are fixed by the registry (tune "
                                    "--seed/--jobs/--format/--chart/--csv instead)");
    }
    const auto& registry = harness::ScenarioRegistry::instance();
    // --devices/--router act as fleet overrides: modified copies live here,
    // the batch points at either the registry entry or its override.
    std::vector<std::unique_ptr<harness::Scenario>> overridden;
    std::vector<const harness::Scenario*> batch;
    const bool fleet_override = opt.devices > 0 || !opt.router.empty();
    for (const auto& name : opt.scenarios) {
        const auto* s = registry.find(name);
        if (s == nullptr) {
            std::fprintf(stderr, "%s: unknown scenario '%s' (try --list-scenarios)\n",
                         kTool.c_str(), name.c_str());
            return 2;
        }
        if (!s->is_serving() && !s->is_fleet()) {
            std::fprintf(stderr,
                         "%s: scenario '%s' is a classic experiment, not a serving "
                         "scenario (run it with lotus_run)\n",
                         kTool.c_str(), name.c_str());
            return 2;
        }
        if (fleet_override && !s->is_fleet()) {
            cli::usage_error(kTool, "--devices/--router override a FLEET scenario's pool; '" +
                                        name + "' serves a single device");
        }
        if (fleet_override) {
            auto copy = std::make_unique<harness::Scenario>(*s);
            if (opt.devices > 0) fleet::resize_pool(*copy->fleet, opt.devices);
            if (!opt.router.empty()) copy->fleet->router = opt.router;
            batch.push_back(copy.get());
            overridden.push_back(std::move(copy));
        } else {
            batch.push_back(s);
        }
    }

    const auto render = opt.render_options(kTool); // validate before the long run
    cli::apply_profile_flag(render);
    auto harness_cfg = cli::harness_config(render, opt.jobs, opt.seed.value);
    harness_cfg.trace_dir = opt.record_trace_dir;
    harness_cfg.replay_dir = opt.replay_trace_dir;
    const harness::ExperimentHarness harness(harness_cfg);
    // Status goes to stderr so stdout is byte-identical at any --jobs count.
    std::fprintf(stderr, "%s: %zu scenario(s), %zu jobs, seed %llu\n", kTool.c_str(),
                 batch.size(), harness.config().jobs,
                 static_cast<unsigned long long>(harness.config().seed));
    cli::render_results(render, batch, harness.run(batch));
    return 0;
}

int run_adhoc(const Options& opt) {
    if (opt.devices == 0 && !opt.router.empty()) {
        cli::usage_error(kTool, "--router picks the fleet routing policy and requires "
                                "--devices N (a single device has nothing to route)");
    }
    const auto render = opt.render_options(kTool); // validate before the long run
    const auto spec = cli::parse_device(kTool, opt.device);
    const auto kind = cli::parse_detector(kTool, opt.detector);
    const auto dataset = cli::parse_dataset(kTool, opt.dataset);

    serving::ArrivalSpec arrival;
    try {
        arrival.kind = serving::arrival_kind_from(opt.arrival);
    } catch (const std::invalid_argument& e) {
        cli::usage_error(kTool, e.what());
    }
    arrival.rate_hz = opt.rate_hz;
    arrival.burst = opt.burst;

    const double constraint =
        workload::latency_constraint_s(spec.name, kind, dataset);
    const double slo_s = opt.slo_ms > 0.0 ? opt.slo_ms / 1e3 : 2.0 * constraint;
    const std::size_t requests =
        opt.requests > 0 ? opt.requests : (harness::fast_mode() ? 25 : 150);

    harness::Scenario scenario(
        runtime::static_experiment(spec, kind, dataset, 1, 0, opt.seed.value));
    scenario.name = opt.devices > 0 ? "cli_fleet" : "cli_serve";
    scenario.title = opt.devices > 0 ? "lotus_serve ad-hoc fleet experiment"
                                     : "lotus_serve ad-hoc serving experiment";

    try {
        (void)serving::make_scheduler(opt.scheduler);
    } catch (const std::invalid_argument& e) {
        cli::usage_error(kTool, e.what());
    }

    // Stagger stream phases across one mean inter-arrival so N identical
    // streams do not fire in lockstep.
    std::vector<serving::StreamSpec> streams;
    for (std::size_t i = 0; i < opt.streams; ++i) {
        serving::StreamSpec stream;
        stream.name = "stream" + std::to_string(i);
        stream.dataset = dataset;
        stream.slo_s = slo_s;
        stream.requests = requests;
        stream.arrival = arrival;
        stream.arrival.phase_s =
            static_cast<double>(i) / (arrival.rate_hz * static_cast<double>(opt.streams));
        streams.push_back(std::move(stream));
    }

    if (opt.devices > 0) {
        fleet::FleetConfig cfg;
        for (std::size_t d = 0; d < opt.devices; ++d) {
            cfg.devices.push_back(
                fleet::make_device(opt.device + std::to_string(d), spec));
        }
        cfg.detector = kind;
        cfg.scheduler = opt.scheduler;
        cfg.router = opt.router.empty() ? "round_robin" : opt.router;
        cfg.pretrain_iterations = opt.pretrain;
        cfg.pretrain_constraint_s = constraint;
        cfg.streams = std::move(streams);
        scenario.fleet = std::move(cfg);
    } else {
        serving::ServingConfig cfg(spec);
        cfg.detector = kind;
        cfg.scheduler = opt.scheduler;
        cfg.pretrain_iterations = opt.pretrain;
        cfg.pretrain_constraint_s = constraint;
        cfg.streams = std::move(streams);
        scenario.serving = std::move(cfg);
    }
    scenario.arms.push_back(cli::make_governor_arm(kTool, opt.governor, spec));

    std::fprintf(stderr,
                 "%s: %s + %s + %s | %zu streams x %zu req @ %.2f Hz (%s), SLO %.0f ms, "
                 "scheduler %s, governor %s, seed %llu",
                 kTool.c_str(), spec.name.c_str(), detector::to_string(kind),
                 dataset.c_str(), opt.streams, requests, opt.rate_hz,
                 serving::to_string(arrival.kind), slo_s * 1e3, opt.scheduler.c_str(),
                 scenario.arms[0].name.c_str(),
                 static_cast<unsigned long long>(opt.seed.value));
    if (opt.devices > 0) {
        std::fprintf(stderr, " | fleet of %zu, router %s", opt.devices,
                     scenario.fleet->router.c_str());
    }
    std::fprintf(stderr, "\n");

    cli::apply_profile_flag(render);
    auto harness_cfg = cli::harness_config(render, opt.jobs, opt.seed.value);
    harness_cfg.trace_dir = opt.record_trace_dir;
    harness_cfg.replay_dir = opt.replay_trace_dir;
    const harness::ExperimentHarness harness(harness_cfg);
    cli::render_results(render, {&scenario}, harness.run(scenario));
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    const auto opt = parse(argc, argv);
    try {
        if (opt.list_scenarios) return list_scenarios();
        if (!opt.scenarios.empty()) return run_scenarios(opt);
        return run_adhoc(opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s\n", kTool.c_str(), e.what());
        return 1;
    }
}
