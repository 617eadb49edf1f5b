#pragma once
// Shared front-end glue for the CLI tools (lotus_run, lotus_serve,
// lotus_sweep, lotus_trace).
//
// The tools speak the same dialect -- strict flag validation (unknown
// flags, enum values and malformed numbers exit 2, no silent fallbacks),
// the same device/detector/dataset/governor vocabularies -- and each
// front-end job has one code path here: list_scenarios / run_scenarios run
// registry scenarios for lotus_run and lotus_serve, run_batch runs and
// renders any batch, StreamFlags + identical_streams build the ad-hoc load
// of N phase-staggered streams.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "lotus_repro.hpp"
#include "prof/profiler.hpp"

namespace lotus::cli {

[[noreturn]] inline void usage_error(const std::string& tool, const std::string& message) {
    std::fprintf(stderr, "%s: %s\n(see the header of tools/%s.cpp for usage)\n",
                 tool.c_str(), message.c_str(), tool.c_str());
    std::exit(2);
}

/// The value after the flag at argv[i], advancing i past it; a missing value
/// exits 2.
inline std::string flag_value(const std::string& tool, int argc, char** argv, int& i) {
    if (i + 1 >= argc) usage_error(tool, std::string("missing value for ") + argv[i]);
    return argv[++i];
}

inline std::uint64_t parse_u64(const std::string& tool, const std::string& flag,
                               const std::string& value) {
    std::uint64_t out = 0;
    const auto* first = value.data();
    const auto* last = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(first, last, out);
    if (value.empty() || ec != std::errc{} || ptr != last) {
        usage_error(tool, flag + " wants a non-negative integer, got '" + value + "'");
    }
    return out;
}

/// `--seed <u64>` override state shared by every tool. Tracking whether
/// the flag was given (not just its value) lets verbs whose output is
/// fully determined by an input file -- lotus_trace info/cat/slice/merge
/// -- reject a seed that could not possibly apply, instead of silently
/// ignoring it.
struct SeedFlag {
    std::uint64_t value = 42;
    bool set = false;
};

/// Strictly parse a --seed value into `seed`: non-negative integer only
/// (no sign, no decimals, no trailing junk), at most once per invocation.
inline void parse_seed(const std::string& tool, const std::string& raw, SeedFlag& seed) {
    if (seed.set) usage_error(tool, "--seed given more than once");
    seed.value = parse_u64(tool, "--seed", raw);
    seed.set = true;
}

inline double parse_positive_double(const std::string& tool, const std::string& flag,
                                    const std::string& value) {
    char* end = nullptr;
    const double out = std::strtod(value.c_str(), &end);
    if (value.empty() || end != value.c_str() + value.size() || !(out > 0.0)) {
        usage_error(tool, flag + " wants a positive number, got '" + value + "'");
    }
    return out;
}

inline platform::DeviceSpec parse_device(const std::string& tool, const std::string& s) {
    if (s == "orin" || s == "jetson") return platform::orin_nano_spec();
    if (s == "mi11" || s == "mi-11-lite") return platform::mi11_lite_spec();
    usage_error(tool, "unknown device " + s);
}

inline detector::DetectorKind parse_detector(const std::string& tool, const std::string& s) {
    if (s == "frcnn" || s == "faster_rcnn") return detector::DetectorKind::faster_rcnn;
    if (s == "mrcnn" || s == "mask_rcnn") return detector::DetectorKind::mask_rcnn;
    if (s == "yolo" || s == "yolov5") return detector::DetectorKind::yolo_v5;
    usage_error(tool, "unknown detector " + s);
}

/// Canonical dataset name ("KITTI" / "VisDrone2019").
inline std::string parse_dataset(const std::string& tool, const std::string& s) {
    if (s == "kitti" || s == "KITTI") return "KITTI";
    if (s == "visdrone" || s == "VisDrone2019") return "VisDrone2019";
    usage_error(tool, "unknown dataset " + s);
}

/// Validated fleet routing-policy name (round_robin | least_queue |
/// thermal_aware | lotus_fleet, plus the rr/jsq shorthands).
inline std::string parse_router(const std::string& tool, const std::string& s) {
    try {
        (void)fleet::make_router(s);
    } catch (const std::invalid_argument& e) {
        usage_error(tool, e.what());
    }
    return s;
}

/// The ad-hoc load flags lotus_serve, lotus_sweep and lotus_trace synth
/// share: --streams/--requests/--arrival/--rate/--burst/--slo/--dataset.
/// Unset requests/SLO read 0; each tool fills in its own default before
/// building the streams.
struct StreamFlags {
    std::size_t streams = 4;
    std::size_t requests = 0;
    serving::ArrivalKind arrival = serving::ArrivalKind::poisson;
    double rate_hz = 0.25;
    std::size_t burst = 8;
    /// Seconds; --slo takes milliseconds.
    double slo_s = 0.0;
    /// Canonical dataset name (parse_dataset).
    std::string dataset = "KITTI";

    /// Consume argv[i] (and its value) when it is a load flag; false leaves
    /// it to the tool.
    bool parse_flag(const std::string& tool, int argc, char** argv, int& i) {
        const std::string flag = argv[i];
        const auto value = [&] { return flag_value(tool, argc, argv, i); };
        const auto count = [&] {
            const auto n = static_cast<std::size_t>(parse_u64(tool, flag, value()));
            if (n == 0) usage_error(tool, flag + " must be >= 1");
            return n;
        };
        if (flag == "--streams") {
            streams = count();
        } else if (flag == "--requests") {
            requests = count();
        } else if (flag == "--arrival") {
            try {
                arrival = serving::arrival_kind_from(value());
            } catch (const std::invalid_argument& e) {
                usage_error(tool, e.what());
            }
        } else if (flag == "--rate") {
            rate_hz = parse_positive_double(tool, flag, value());
        } else if (flag == "--burst") {
            burst = count();
        } else if (flag == "--slo") {
            slo_s = parse_positive_double(tool, flag, value()) / 1e3;
        } else if (flag == "--dataset") {
            dataset = parse_dataset(tool, value());
        } else {
            return false;
        }
        return true;
    }
};

/// The flags' N identical streams, phases staggered across one mean
/// inter-arrival so they do not fire in lockstep.
inline std::vector<serving::StreamSpec> identical_streams(const StreamFlags& load) {
    serving::ArrivalSpec arrival;
    arrival.kind = load.arrival;
    arrival.rate_hz = load.rate_hz;
    arrival.burst = load.burst;
    std::vector<serving::StreamSpec> streams;
    for (std::size_t i = 0; i < load.streams; ++i) {
        serving::StreamSpec stream;
        stream.name = "stream" + std::to_string(i);
        stream.dataset = load.dataset;
        stream.slo_s = load.slo_s;
        stream.requests = load.requests;
        stream.arrival = arrival;
        stream.arrival.phase_s =
            static_cast<double>(i) / (arrival.rate_hz * static_cast<double>(load.streams));
        streams.push_back(std::move(stream));
    }
    return streams;
}

/// Output format for result rendering.
enum class OutputFormat { table, json };

inline OutputFormat parse_format(const std::string& tool, const std::string& s) {
    if (s == "table") return OutputFormat::table;
    if (s == "json") return OutputFormat::json;
    usage_error(tool, "unknown --format " + s + " (table|json)");
}

/// What run_scenarios-style rendering needs from either tool's options.
struct RenderOptions {
    OutputFormat format = OutputFormat::table;
    bool chart = false;
    /// CSV output directory; empty disables CSV output.
    std::string csv_dir;
    /// Enable the internal profiler and print its report for the batch to
    /// stderr (see src/prof/).
    bool profile = false;
    /// Sim-time telemetry output directory (trace.json / breaches.jsonl /
    /// manifest.json / rollup.json / health.json per episode, see
    /// src/telemetry/); empty disables recording entirely.
    std::string telemetry_dir;

    /// Serving/fleet episodes can skip materialising per-request ledger rows
    /// (bit-identical summaries, less allocation) exactly when no renderer needs
    /// the rows: charts read per-request columns, CSV dumps the ledger.
    [[nodiscard]] bool summary_only() const noexcept {
        return !chart && csv_dir.empty();
    }
};

/// `--format json` promises machine-readable stdout; ASCII charts would
/// corrupt it (CSV announcements already go to stderr).
inline void reject_chart_with_json(const std::string& tool, const RenderOptions& opt) {
    if (opt.chart && opt.format == OutputFormat::json) {
        usage_error(tool, "--chart writes ASCII to stdout and cannot be combined "
                          "with --format json");
    }
}

/// The flags lotus_run and lotus_serve share: scenario selection, jobs,
/// seed, the output renderers and --help.
struct CommonOptions {
    SeedFlag seed;
    OutputFormat format = OutputFormat::table;
    /// --csv: the output directory.
    std::string csv;
    std::string telemetry_dir;
    bool chart = false;
    bool profile = false;
    bool list_scenarios = false;
    std::vector<std::string> scenarios;
    std::size_t jobs = 0; // 0 -> hardware concurrency

    /// Consume argv[i] (and its value) when it is a shared flag; false
    /// leaves it to the tool.
    bool parse_flag(const std::string& tool, int argc, char** argv, int& i) {
        const std::string flag = argv[i];
        const auto value = [&] { return flag_value(tool, argc, argv, i); };
        if (flag == "--seed") {
            parse_seed(tool, value(), seed);
        } else if (flag == "--format") {
            format = parse_format(tool, value());
        } else if (flag == "--csv") {
            csv = value();
        } else if (flag == "--telemetry") {
            telemetry_dir = value();
            if (telemetry_dir.empty()) usage_error(tool, "--telemetry wants a directory");
        } else if (flag == "--chart") {
            chart = true;
        } else if (flag == "--profile") {
            profile = true;
        } else if (flag == "--list-scenarios") {
            list_scenarios = true;
        } else if (flag == "--scenario") {
            scenarios.push_back(value());
        } else if (flag == "--jobs") {
            jobs = static_cast<std::size_t>(parse_u64(tool, flag, value()));
            if (jobs == 0) usage_error(tool, "--jobs must be >= 1");
        } else if (flag == "--help" || flag == "-h") {
            std::printf("see the header comment of tools/%s.cpp for usage\n", tool.c_str());
            std::exit(0);
        } else {
            return false;
        }
        return true;
    }

    /// The renderers these flags select; rejects --chart with --format json.
    [[nodiscard]] RenderOptions render_options(const std::string& tool) const {
        RenderOptions r;
        r.format = format;
        r.chart = chart;
        r.csv_dir = csv;
        r.profile = profile;
        r.telemetry_dir = telemetry_dir;
        reject_chart_with_json(tool, r);
        return r;
    }
};

/// Slice a harness batch result back per scenario and render each slice
/// the way the options select (chart, table-or-json, CSV, telemetry), then
/// print one profile report for the whole batch: its episodes run
/// concurrently, so the samples cannot be split per scenario.
inline void render_results(const RenderOptions& opt,
                           const std::vector<const harness::Scenario*>& batch,
                           std::vector<harness::EpisodeResult> results) {
    std::size_t cursor = 0;
    for (const auto* s : batch) {
        const std::vector<harness::EpisodeResult> slice(
            std::make_move_iterator(results.begin() + static_cast<std::ptrdiff_t>(cursor)),
            std::make_move_iterator(results.begin() +
                                    static_cast<std::ptrdiff_t>(cursor + s->arms.size())));
        cursor += s->arms.size();
        if (opt.chart) harness::print_figure(s->title, slice);
        if (opt.format == OutputFormat::json) {
            std::printf("%s\n", harness::scenario_json(*s, slice).c_str());
        } else if (s->is_fleet()) {
            harness::print_fleet_table(s->title, slice);
        } else if (s->is_serving()) {
            harness::print_serving_table(s->title, slice);
        } else {
            harness::print_summary_table(s->title, slice);
        }
        if (!opt.csv_dir.empty()) harness::write_csv_traces(opt.csv_dir, s->name, slice);
        if (!opt.telemetry_dir.empty()) {
            harness::TelemetrySink(opt.telemetry_dir).consume(*s, slice);
        }
        if (opt.format == OutputFormat::table) std::printf("\n");
    }
    if (opt.profile) {
        std::string heading;
        for (const auto* s : batch) heading += (heading.empty() ? "" : ", ") + s->name;
        harness::print_profile_report(heading);
    }
}

/// Run a batch on the harness the shared flags configure and render it.
/// lotus_serve passes its --record-trace / --replay-trace directories.
/// Without --csv/--chart serving and fleet episodes run summary-only (no
/// per-request ledger rows; every table and JSON byte is the same).
inline void run_batch(const std::string& tool, const CommonOptions& opt,
                      const std::vector<const harness::Scenario*>& batch,
                      const std::string& trace_dir = {}, const std::string& replay_dir = {}) {
    const auto render = opt.render_options(tool);
    if (render.profile) prof::set_enabled(true);
    const harness::ExperimentHarness harness({.jobs = opt.jobs,
                                              .seed = opt.seed.value,
                                              .summary_only = render.summary_only(),
                                              .telemetry = !render.telemetry_dir.empty(),
                                              .trace_dir = trace_dir,
                                              .replay_dir = replay_dir});
    // Status goes to stderr so stdout is byte-identical at any --jobs count.
    std::fprintf(stderr, "%s: %zu scenario(s), %zu jobs, seed %llu\n", tool.c_str(),
                 batch.size(), harness.config().jobs,
                 static_cast<unsigned long long>(harness.config().seed));
    render_results(render, batch, harness.run(batch));
}

/// Print the scenario registry as one table.
inline int list_scenarios() {
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

/// Registry scenarios are fixed: scenario mode rejects the flags of the
/// tool's other mode (`mode`: "single-run", "ad-hoc") the user passed,
/// instead of silently ignoring an override.
inline void reject_mode_flags(const std::string& tool, const std::vector<std::string>& flags,
                              const std::string& mode) {
    if (flags.empty()) return;
    usage_error(tool, flags.front() + " only applies to " + mode +
                          " mode; scenario definitions are fixed by the registry (tune "
                          "--seed/--jobs/--format/--chart/--csv instead)");
}

/// Scenario mode: look every --scenario name up in the registry and run
/// them as one batch. An unknown name exits 2.
inline int run_scenarios(const std::string& tool, const CommonOptions& opt,
                         const std::string& trace_dir = {}, const std::string& replay_dir = {}) {
    const auto& registry = harness::ScenarioRegistry::instance();
    std::vector<const harness::Scenario*> batch;
    for (const auto& name : opt.scenarios) {
        const auto* s = registry.find(name);
        if (s == nullptr) {
            std::fprintf(stderr, "%s: unknown scenario '%s' (try --list-scenarios)\n",
                         tool.c_str(), name.c_str());
            return 2;
        }
        batch.push_back(s);
    }
    run_batch(tool, opt, batch, trace_dir, replay_dir);
    return 0;
}

/// The full governor vocabulary both tools accept:
///   default | ztt | lotus | performance | powersave | random | ondemand
/// | conservative | fixed:<cpu>,<gpu>
inline harness::ArmSpec make_governor_arm(const std::string& tool, const std::string& g,
                                          const platform::DeviceSpec& spec) {
    if (g == "default") return harness::default_arm(spec);
    if (g == "ztt") return harness::ztt_arm(spec);
    if (g == "lotus") return harness::lotus_arm(spec);
    if (g == "performance") return harness::performance_arm();
    if (g == "powersave") return harness::powersave_arm();

    const auto simple = [&g](auto factory) {
        harness::ArmSpec arm;
        arm.name = g;
        arm.make = std::move(factory);
        return arm;
    };
    if (g == "ondemand" || g == "conservative") {
        return simple([g](std::uint64_t) -> std::unique_ptr<governors::Governor> {
            return std::make_unique<governors::KernelGovernor>(
                g + "+simple_ondemand",
                g == "ondemand" ? governors::CpuPolicyKind::ondemand
                                : governors::CpuPolicyKind::conservative,
                governors::SimpleOndemandParams{});
        });
    }
    if (g == "random") {
        return simple([](std::uint64_t seed) -> std::unique_ptr<governors::Governor> {
            return std::make_unique<governors::RandomGovernor>(seed);
        });
    }
    if (g.rfind("fixed:", 0) == 0) {
        const auto spec_str = g.substr(6);
        const auto comma = spec_str.find(',');
        if (comma == std::string::npos) {
            usage_error(tool, "malformed --governor '" + g + "': fixed wants fixed:<cpu>,<gpu>");
        }
        const auto cpu = static_cast<std::size_t>(
            parse_u64(tool, "--governor fixed:<cpu>", spec_str.substr(0, comma)));
        const auto gpu = static_cast<std::size_t>(
            parse_u64(tool, "--governor fixed:<gpu>", spec_str.substr(comma + 1)));
        if (cpu >= spec.cpu.opp.num_levels() || gpu >= spec.gpu.opp.num_levels()) {
            usage_error(tool, "fixed:" + std::to_string(cpu) + "," + std::to_string(gpu) +
                                  " is outside the device's ladder (" +
                                  std::to_string(spec.cpu.opp.num_levels()) + " CPU x " +
                                  std::to_string(spec.gpu.opp.num_levels()) + " GPU levels)");
        }
        return harness::fixed_arm(cpu, gpu);
    }
    usage_error(tool, "unknown governor " + g);
}

} // namespace lotus::cli
