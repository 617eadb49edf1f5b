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
    std::string device = "orin";
    std::string detector = "frcnn";
    std::string dataset = "kitti";
    std::string governor = "lotus";
    std::size_t iterations = 0; // 0 -> device default
    std::size_t pretrain = 2500;
    double constraint_ms = 0.0; // 0 -> preset
    /// Single-run-only flags the user explicitly passed, so scenario mode
    /// can reject them instead of silently ignoring an override.
    std::vector<std::string> single_run_flags;
};

Options parse(int argc, char** argv) {
    Options opt;
    const auto need_value = [&](int& i) { return cli::flag_value(kTool, argc, argv, i); };
    const auto u64 = [&](const std::string& flag, const std::string& v) {
        return cli::parse_u64(kTool, flag, v);
    };
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const bool single_run_only =
            flag == "--device" || flag == "--detector" || flag == "--dataset" ||
            flag == "--governor" || flag == "--iterations" || flag == "--pretrain" ||
            flag == "--constraint";
        if (single_run_only) opt.single_run_flags.push_back(flag);
        if (opt.parse_flag(kTool, argc, argv, i)) continue;
        if (flag == "--device") {
            opt.device = need_value(i);
        } else if (flag == "--detector") {
            opt.detector = need_value(i);
        } else if (flag == "--dataset") {
            opt.dataset = need_value(i);
        } else if (flag == "--governor") {
            opt.governor = need_value(i);
        } else if (flag == "--iterations") {
            opt.iterations = static_cast<std::size_t>(u64(flag, need_value(i)));
            if (opt.iterations == 0) cli::usage_error(kTool, "--iterations must be > 0");
        } else if (flag == "--pretrain") {
            opt.pretrain = static_cast<std::size_t>(u64(flag, need_value(i)));
        } else if (flag == "--constraint") {
            opt.constraint_ms = cli::parse_positive_double(kTool, flag, need_value(i));
        } else {
            cli::usage_error(kTool, "unknown flag " + flag);
        }
    }
    return opt;
}

int run_single(const Options& opt) {
    (void)opt.render_options(kTool); // reject bad flag combinations before the banner
    const auto spec = cli::parse_device(kTool, opt.device);
    const bool orin = spec.name.find("orin") != std::string::npos;
    const auto kind = cli::parse_detector(kTool, opt.detector);
    const auto dataset = cli::parse_dataset(kTool, opt.dataset);
    const std::size_t iterations =
        opt.iterations > 0 ? opt.iterations : (orin ? 3000 : 1000);

    harness::Scenario scenario(
        runtime::static_experiment(spec, kind, dataset, iterations, opt.pretrain));
    scenario.name = "cli";
    scenario.title = "lotus_run single experiment";
    if (opt.constraint_ms > 0.0) {
        scenario.config.schedule =
            workload::DomainSchedule::constant(dataset, opt.constraint_ms / 1e3);
    }
    scenario.arms.push_back(
        harness::governor_arm(cli::parse_governor(kTool, opt.governor, spec)));

    // Keep stdout clean for --format json; the banner is status, not data.
    std::fprintf(opt.format == cli::OutputFormat::json ? stderr : stdout,
                 "lotus_run: %s + %s + %s under %s (%zu iterations, seed %llu, "
                 "L=%.0f ms)\n",
                 spec.name.c_str(), detector::to_string(kind), dataset.c_str(),
                 scenario.arms[0].name.c_str(), iterations,
                 static_cast<unsigned long long>(opt.seed.value),
                 scenario.config.schedule.at(0).latency_constraint_s * 1e3);

    cli::run_batch(kTool, opt, {&scenario});
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    const auto opt = parse(argc, argv);
    try {
        if (opt.list_scenarios) return cli::list_scenarios();
        if (!opt.scenarios.empty()) {
            cli::reject_mode_flags(kTool, opt.single_run_flags, "single-run");
            return cli::run_scenarios(kTool, opt);
        }
        return run_single(opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s\n", kTool.c_str(), e.what());
        return 1;
    }
}
