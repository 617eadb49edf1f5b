// lotus_run: command-line experiment runner.
//
// Two modes, both driven by the ExperimentHarness and rendered by the same
// renderers (tools/cli_common.hpp; lotus_serve runs scenarios the same way):
//
//  * Scenario mode -- run named scenarios from the ScenarioRegistry, all
//    episodes scheduled concurrently on a fixed thread pool. Parallel runs
//    are byte-identical to serial runs for the same seed (per-episode seed
//    derivation), so `--jobs` is purely a throughput knob. Registry
//    scenarios are fixed: the single-run flags are rejected here.
//
//      lotus_run --list-scenarios
//      lotus_run --scenario fig4_kitti --jobs 8
//      lotus_run --scenario table1_frcnn_kitti --scenario table1_mrcnn_kitti --chart
//      lotus_run --scenario fig4_kitti --format json
//
//  * Single-run mode -- one ad-hoc (device, detector, dataset, governor)
//    experiment, the "do one run" front end a downstream user reaches for
//    before scripting the bench harnesses. It builds a one-arm scenario
//    named "cli" and renders it like any other scenario.
//
//      lotus_run --device orin --detector frcnn --dataset kitti --governor lotus
//      lotus_run --governor fixed:7,5 --iterations 500 --chart
//      lotus_run --device mi11 --governor ztt --pretrain 2000 --csv out/
//
// Flags (all optional):
//   --list-scenarios enumerate the registry and exit
//   --scenario NAME  run a registry scenario (repeatable)
//   --jobs N         worker threads                    (default: all cores)
//   --device     orin | mi11                        (default orin)
//   --detector   frcnn | mrcnn | yolo               (default frcnn)
//   --dataset    kitti | visdrone                   (default kitti)
//   --governor   default | ztt | lotus | performance | powersave | random
//              | ondemand | conservative | fixed:<cpu>,<gpu>   (default lotus)
//   --iterations N   measured frames                (default 3000 / 1000)
//   --pretrain   N   unrecorded training frames     (default 2500; agents only)
//   --seed       S   experiment seed                (default 42)
//   --constraint MS  latency constraint override in milliseconds
//   --format     table | json                       (default table; json emits
//                    one machine-readable document per scenario / run)
//   --csv DIR        write per-episode trace CSVs + <scenario>_summary.csv
//                    into DIR (the single run's scenario is "cli")
//   --chart          render temperature/latency ASCII charts
//   --profile        print the internal profiler's report to stderr, one
//                    per run naming its scenarios (see src/prof/)
//   --telemetry DIR  record sim-time telemetry per episode and write it
//                    under DIR/<scenario>/<arm>/: trace.json (Perfetto /
//                    chrome://tracing), breaches.jsonl, manifest.json,
//                    rollup.json, health.json (see src/telemetry/)
//
// Unknown flags, unknown enum values and malformed numbers are rejected
// with a nonzero exit -- no silent fallbacks.

#include <cstdio>
#include <string>
#include <vector>

#include "cli_common.hpp"

using namespace lotus;

namespace {

const std::string kTool = "lotus_run";

struct Options : cli::CommonOptions {
    cli::TargetFlags target;
    std::string dataset = "KITTI";
    std::size_t iterations = 0; // 0 -> device default
    double constraint_ms = 0.0; // 0 -> preset
};

Options parse(int argc, char** argv) {
    Options opt;
    cli::ArgWalk args(kTool, argc, argv);
    while (args.next()) {
        if (opt.parse_flag(args) || opt.target.parse_flag(args) ||
            cli::parse_dataset_flag(args, opt.dataset)) {
            continue;
        }
        const auto& flag = args.flag();
        if (flag == "--iterations") {
            opt.iterations = cli::parse_count(args);
        } else if (flag == "--constraint") {
            opt.constraint_ms = cli::parse_positive_double(kTool, flag, args.value());
        } else {
            args.error("unknown flag " + flag);
        }
        args.mark_mode_only();
    }
    opt.mode_flags = args.mode_flags();
    return opt;
}

int run_single(const Options& opt) {
    const auto spec = cli::parse_device(kTool, opt.target.device);
    const bool orin = spec.name.find("orin") != std::string::npos;
    const auto kind = cli::parse_detector(kTool, opt.target.detector);
    const auto& dataset = opt.dataset;
    const std::size_t iterations =
        opt.iterations > 0 ? opt.iterations : (orin ? 3000 : 1000);

    harness::Scenario scenario(
        runtime::static_experiment(spec, kind, dataset, iterations, opt.target.pretrain));
    scenario.name = "cli";
    scenario.title = "lotus_run single experiment";
    if (opt.constraint_ms > 0.0) {
        scenario.config.schedule =
            workload::DomainSchedule::constant(dataset, opt.constraint_ms / 1e3);
    }
    scenario.arms.push_back(
        harness::governor_arm(cli::parse_governor(kTool, opt.target.governor, spec)));

    // Keep stdout clean for --format json; the banner is status, not data.
    std::fprintf(opt.render.format == cli::OutputFormat::json ? stderr : stdout,
                 "lotus_run: %s + %s + %s under %s (%zu iterations, seed %llu, "
                 "L=%.0f ms)\n",
                 spec.name.c_str(), detector::to_string(kind), dataset.c_str(),
                 scenario.arms[0].name.c_str(), iterations,
                 static_cast<unsigned long long>(opt.harness.seed.value),
                 scenario.config.schedule.at(0).latency_constraint_s * 1e3);

    cli::run_batch(kTool, opt, {&scenario});
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    const auto opt = parse(argc, argv);
    try {
        if (opt.list_scenarios) return cli::list_scenarios();
        cli::reject_chart_with_json(kTool, opt.render);
        if (!opt.scenarios.empty()) {
            cli::reject_mode_flags(kTool, opt.mode_flags, "single-run");
            return cli::run_scenarios(kTool, opt);
        }
        return run_single(opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s\n", kTool.c_str(), e.what());
        return 1;
    }
}
