#pragma once
// Shared front-end glue for the CLI tools (lotus_run, lotus_serve).
//
// Both tools speak the same dialect -- strict flag validation (unknown
// flags, enum values and malformed numbers exit 2, no silent fallbacks),
// the same device/detector/dataset/governor vocabularies -- so the parsing
// and arm construction live here once.

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
    /// CSV output directory; empty disables the CSV sink.
    std::string csv_dir;
    /// Enable the internal profiler and print its per-scenario report to
    /// stderr (see src/prof/).
    bool profile = false;
    /// Sim-time telemetry output directory (trace.json / breaches.jsonl /
    /// manifest.json / rollup.json / health.json per episode, see
    /// src/telemetry/); empty disables recording entirely.
    std::string telemetry_dir;

    /// Serving/fleet episodes can skip materialising per-request ledger rows
    /// (bit-identical summaries, less allocation) exactly when no sink needs
    /// the rows: charts read per-request columns, CSV dumps the ledger.
    [[nodiscard]] bool summary_only() const noexcept {
        return !chart && csv_dir.empty();
    }
};

/// Harness config for scenario execution under these render options: the
/// summary-only fast path engages automatically when no row-consuming sink
/// is attached.
inline harness::HarnessConfig harness_config(const RenderOptions& opt, std::size_t jobs,
                                             std::uint64_t seed) {
    harness::HarnessConfig cfg;
    cfg.jobs = jobs;
    cfg.seed = seed;
    cfg.summary_only = opt.summary_only();
    cfg.telemetry = !opt.telemetry_dir.empty();
    return cfg;
}

/// `--format json` promises machine-readable stdout; ASCII charts would
/// corrupt it (CSV announcements already go to stderr).
inline void reject_chart_with_json(const std::string& tool, const RenderOptions& opt) {
    if (opt.chart && opt.format == OutputFormat::json) {
        usage_error(tool, "--chart writes ASCII to stdout and cannot be combined "
                          "with --format json");
    }
}

/// The flags lotus_run and lotus_serve share: scenario selection, jobs,
/// seed, the output sinks and --help.
struct CommonOptions {
    SeedFlag seed;
    OutputFormat format = OutputFormat::table;
    /// --csv: the output directory (lotus_run single-run mode: a file path).
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

    /// The sinks these flags select; rejects --chart with --format json.
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

/// Turn the profiler's runtime timer gate on when --profile was passed
/// (call before the run so episodes are sampled).
inline void apply_profile_flag(const RenderOptions& opt) {
    if (opt.profile) prof::set_enabled(true);
}

/// Slice a harness batch result back per scenario and feed each slice
/// through the sinks the options select (chart, table-or-json, CSV).
inline void render_results(const RenderOptions& opt,
                           const std::vector<const harness::Scenario*>& batch,
                           std::vector<harness::EpisodeResult> results) {
    std::vector<std::unique_ptr<harness::ResultSink>> sinks;
    if (opt.chart) sinks.push_back(std::make_unique<harness::AsciiFigureSink>());
    if (opt.format == OutputFormat::json) {
        sinks.push_back(std::make_unique<harness::JsonSink>());
    } else {
        sinks.push_back(std::make_unique<harness::SummaryTableSink>());
    }
    if (!opt.csv_dir.empty()) {
        sinks.push_back(std::make_unique<harness::CsvSink>(opt.csv_dir));
    }
    if (!opt.telemetry_dir.empty()) {
        sinks.push_back(std::make_unique<harness::TelemetrySink>(opt.telemetry_dir));
    }
    if (opt.profile) sinks.push_back(std::make_unique<harness::ProfileSink>());

    std::size_t cursor = 0;
    for (const auto* s : batch) {
        const std::vector<harness::EpisodeResult> slice(
            std::make_move_iterator(results.begin() + static_cast<std::ptrdiff_t>(cursor)),
            std::make_move_iterator(results.begin() +
                                    static_cast<std::ptrdiff_t>(cursor + s->arms.size())));
        cursor += s->arms.size();
        for (const auto& sink : sinks) sink->consume(*s, slice);
        if (opt.format == OutputFormat::table) std::printf("\n");
    }
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
