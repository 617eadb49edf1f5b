// lotus_run: command-line experiment runner.
//
// Two modes, both driven by the ExperimentHarness:
//
//  * Scenario mode -- run named scenarios from the ScenarioRegistry, all
//    episodes scheduled concurrently on a fixed thread pool. Parallel runs
//    are byte-identical to serial runs for the same seed (per-episode seed
//    derivation), so `--jobs` is purely a throughput knob.
//
//      lotus_run --list-scenarios
//      lotus_run --scenario fig4_kitti --jobs 8
//      lotus_run --scenario table1_frcnn_kitti --scenario table1_mrcnn_kitti --chart
//      lotus_run --scenario fig4_kitti --format json
//
//  * Single-run mode -- one ad-hoc (device, detector, dataset, governor)
//    experiment, the "do one run" front end a downstream user reaches for
//    before scripting the bench harnesses.
//
//      lotus_run --device orin --detector frcnn --dataset kitti --governor lotus
//      lotus_run --governor fixed:7,5 --iterations 500 --chart
//      lotus_run --device mi11 --governor ztt --pretrain 2000 --csv out.csv
//
// Flags (all optional):
//   --list-scenarios enumerate the registry and exit
//   --scenario NAME  run a registry scenario (repeatable)
//   --jobs N         worker threads for scenario mode   (default: all cores)
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
//   --csv PATH       single run: trace CSV path; scenario mode: output dir
//   --chart          render temperature/latency ASCII charts
//   --profile        print the internal profiler's report to stderr
//                    (per-scenario in scenario mode; see src/prof/)
//   --telemetry DIR  record sim-time telemetry per episode and write it
//                    under DIR/<scenario>/<arm>/: trace.json (Perfetto /
//                    chrome://tracing), breaches.jsonl, manifest.json,
//                    rollup.json, health.json (see src/telemetry/)
//
// Unknown flags, unknown enum values and malformed numbers are rejected
// with a nonzero exit -- no silent fallbacks.

#include <cstdio>
#include <memory>
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

int list_scenarios() {
    const auto& registry = harness::ScenarioRegistry::instance();
    util::TextTable table({"scenario", "arms", "tags", "title"});
    for (const auto& s : registry.all()) {
        std::string tags;
        for (const auto& t : s.tags) tags += tags.empty() ? t : "," + t;
        table.add_row({s.name, std::to_string(s.arms.size()), tags, s.title});
    }
    std::printf("%s", table.render("scenario registry (" +
                                   std::to_string(registry.all().size()) + " scenarios)")
                          .c_str());
    return 0;
}

int run_scenarios(const Options& opt) {
    if (!opt.single_run_flags.empty()) {
        cli::usage_error(kTool, opt.single_run_flags.front() +
                                    " only applies to single-run mode; scenario "
                                    "definitions are fixed by the registry (tune "
                                    "--seed/--jobs/--format/--chart/--csv instead)");
    }
    const auto& registry = harness::ScenarioRegistry::instance();
    std::vector<const harness::Scenario*> batch;
    for (const auto& name : opt.scenarios) {
        const auto* s = registry.find(name);
        if (s == nullptr) {
            std::fprintf(stderr,
                         "lotus_run: unknown scenario '%s' (try --list-scenarios)\n",
                         name.c_str());
            return 2;
        }
        batch.push_back(s);
    }

    const auto render = opt.render_options(kTool);
    cli::apply_profile_flag(render);

    const harness::ExperimentHarness harness(
        cli::harness_config(render, opt.jobs, opt.seed.value));
    // Status goes to stderr so stdout is byte-identical at any --jobs count.
    std::fprintf(stderr, "lotus_run: %zu scenario(s), %zu jobs, seed %llu\n", batch.size(),
                 harness.config().jobs,
                 static_cast<unsigned long long>(harness.config().seed));
    cli::render_results(render, batch, harness.run(batch));
    return 0;
}

int run_single(const Options& opt) {
    (void)opt.render_options(kTool); // validate before the long run
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
    scenario.arms.push_back(cli::make_governor_arm(kTool, opt.governor, spec));

    // Keep stdout clean for --format json; the banner is status, not data.
    std::fprintf(opt.format == cli::OutputFormat::json ? stderr : stdout,
                 "lotus_run: %s + %s + %s under %s (%zu iterations, seed %llu, "
                 "L=%.0f ms)\n",
                 spec.name.c_str(), detector::to_string(kind), dataset.c_str(),
                 scenario.arms[0].name.c_str(), iterations,
                 static_cast<unsigned long long>(opt.seed.value),
                 scenario.config.schedule.at(0).latency_constraint_s * 1e3);

    if (opt.profile) prof::set_enabled(true);
    harness::HarnessConfig cfg{
        .jobs = 1, .seed = opt.seed.value, .telemetry = !opt.telemetry_dir.empty()};
    const harness::ExperimentHarness harness(cfg);
    const auto results = harness.run(scenario);
    const auto& trace = results[0].trace;

    if (opt.format == cli::OutputFormat::json) {
        std::printf("%s\n", harness::scenario_json(scenario, results).c_str());
    } else {
        const auto s = trace.summary();
        util::TextTable table({"metric", "value"});
        table.add_row({"mean latency (ms)", util::format_double(s.mean_latency_s * 1e3, 1)});
        table.add_row({"latency std (ms)", util::format_double(s.std_latency_s * 1e3, 1)});
        table.add_row({"satisfaction rate R_L (%)",
                       util::format_double(s.satisfaction_rate * 100.0, 1)});
        table.add_row({"mean device temp (C)", util::format_double(s.mean_device_temp, 1)});
        table.add_row({"max device temp (C)", util::format_double(s.max_device_temp, 1)});
        table.add_row({"mean power (W)", util::format_double(s.mean_power_w, 1)});
        table.add_row({"throttled frames (%)",
                       util::format_double(s.throttled_fraction * 100.0, 1)});
        table.add_row({"mean proposals", util::format_double(s.mean_proposals, 1)});
        std::printf("%s", table.render("summary").c_str());
    }

    if (opt.chart) {
        util::AsciiChart temp_chart(100, 12);
        temp_chart.add_series({"T_dev", util::downsample(trace.device_temps(), 100)});
        temp_chart.add_reference_line(platform::throttle_bound_celsius(spec), "trip");
        std::printf("%s\n", temp_chart.render("device temperature", "C").c_str());
        util::AsciiChart lat_chart(100, 12);
        lat_chart.add_series({"latency", util::downsample(trace.latencies_ms(), 100)});
        lat_chart.add_reference_line(
            scenario.config.schedule.at(0).latency_constraint_s * 1e3, "L");
        std::printf("%s\n", lat_chart.render("latency", "ms").c_str());
    }
    if (!opt.csv.empty()) {
        trace.write_csv(opt.csv);
        // Status line: keep stdout machine-readable under --format json.
        std::fprintf(opt.format == cli::OutputFormat::json ? stderr : stdout,
                     "trace written to %s (%zu rows)\n", opt.csv.c_str(),
                     trace.size());
    }
    if (!opt.telemetry_dir.empty()) {
        // Single-run mode bypasses render_results, so write telemetry by hand.
        harness::TelemetrySink(opt.telemetry_dir).consume(scenario, results);
    }
    if (opt.profile) harness::print_profile_report(scenario.name);
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    const auto opt = parse(argc, argv);
    try {
        if (opt.list_scenarios) return list_scenarios();
        if (!opt.scenarios.empty()) return run_scenarios(opt);
        return run_single(opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s\n", kTool.c_str(), e.what());
        return 1;
    }
}
