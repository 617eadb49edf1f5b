#pragma once
// Shared front-end glue for the CLI tools (lotus_run, lotus_serve,
// lotus_sweep, lotus_trace).
//
// The tools speak the same dialect -- strict flag validation (unknown
// flags, enum values and malformed numbers exit 2, no silent fallbacks),
// the same device/detector/dataset/governor vocabularies -- and each
// front-end job has one code path here. Every flag two tools accept is
// parsed by one flag group (ArgWalk and the *Flags structs below);
// list_scenarios / run_scenarios run registry scenarios for lotus_run and
// lotus_serve, run_batch runs and renders any batch, and adhoc_scenario
// builds lotus_serve's ad-hoc run and every lotus_sweep cell on
// harness::load_scenario, the registry's serving/fleet scenario builder.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
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

/// One tool's walk over its arguments. Each flag group below owns some
/// flags: its parse_flag consumes the flag under the cursor (and its value)
/// when it owns it and returns false otherwise, so a tool chains the groups
/// it accepts and rejects what is left. A group whose flags apply to one
/// mode only (single-run / ad-hoc) marks each one it consumes, in argv
/// order, so the tool's scenario mode can reject them (reject_mode_flags).
/// --help / -h is answered here, for every tool.
class ArgWalk {
public:
    /// Walks argv[first..argc).
    ArgWalk(std::string tool, int argc, char** argv, int first = 1)
        : tool_(std::move(tool)), args_(argv + first, argv + argc) {}
    ArgWalk(std::string tool, std::vector<std::string> args)
        : tool_(std::move(tool)), args_(std::move(args)) {}

    /// Step to the next argument; false past the last one.
    bool next() {
        if (next_ >= args_.size()) return false;
        flag_ = args_[next_++];
        if (flag_ == "--help" || flag_ == "-h") {
            std::printf("see the header comment of tools/%s.cpp for usage\n", tool_.c_str());
            std::exit(0);
        }
        return true;
    }

    [[nodiscard]] const std::string& tool() const noexcept { return tool_; }
    /// The argument next() stepped to.
    [[nodiscard]] const std::string& flag() const noexcept { return flag_; }

    /// The flag's value, stepping past it; a missing value exits 2.
    std::string value() {
        if (next_ >= args_.size()) error("missing value for " + flag_);
        return args_[next_++];
    }

    void mark_mode_only() { mode_flags_.push_back(flag_); }
    /// The mode-only flags consumed so far, in argv order.
    [[nodiscard]] const std::vector<std::string>& mode_flags() const noexcept {
        return mode_flags_;
    }

    [[noreturn]] void error(const std::string& message) const { usage_error(tool_, message); }

private:
    std::string tool_;
    std::vector<std::string> args_;
    std::size_t next_ = 0;
    std::string flag_;
    std::vector<std::string> mode_flags_;
};

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

/// The flag's value as a count of at least 1.
inline std::size_t parse_count(ArgWalk& args) {
    const auto n = static_cast<std::size_t>(parse_u64(args.tool(), args.flag(), args.value()));
    if (n == 0) args.error(args.flag() + " must be >= 1");
    return n;
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

/// `--seed <u64>`, for every tool that generates anything. Tracking whether
/// the flag was given (not just its value) lets verbs whose output is fully
/// determined by an input file -- lotus_trace info/cat/slice/merge -- reject
/// a seed that could not possibly apply, instead of silently ignoring it.
struct SeedFlag {
    std::uint64_t value = 42;
    bool set = false;

    /// Strict: a non-negative integer (no sign, decimals or trailing junk),
    /// at most once per invocation.
    bool parse_flag(ArgWalk& args) {
        if (args.flag() != "--seed") return false;
        if (set) args.error("--seed given more than once");
        value = parse_u64(args.tool(), "--seed", args.value());
        set = true;
        return true;
    }
};

/// The harness flags of the tools that run episodes: --seed and --jobs.
struct HarnessFlags {
    SeedFlag seed;
    std::size_t jobs = 0; // 0 -> hardware concurrency

    bool parse_flag(ArgWalk& args) {
        if (seed.parse_flag(args)) return true;
        if (args.flag() != "--jobs") return false;
        jobs = parse_count(args);
        return true;
    }
};

/// --dataset, the one flag lotus_run's single run shares with the load
/// flags: the canonical dataset name.
inline bool parse_dataset_flag(ArgWalk& args, std::string& dataset) {
    if (args.flag() != "--dataset") return false;
    dataset = parse_dataset(args.tool(), args.value());
    args.mark_mode_only();
    return true;
}

/// What an ad-hoc run runs: --device, --detector, --governor, --pretrain.
/// The names stay as given until the run is built (the governor is sized
/// to the device; the device name also prefixes fleet device ids).
struct TargetFlags {
    std::string device = "orin";
    std::string detector = "frcnn";
    std::string governor = "lotus";
    /// Unrecorded warm-up frames (learning governors only).
    std::size_t pretrain = 2500;

    bool parse_flag(ArgWalk& args) {
        const auto& flag = args.flag();
        if (flag == "--device") {
            device = args.value();
        } else if (flag == "--detector") {
            detector = args.value();
        } else if (flag == "--governor") {
            governor = args.value();
        } else if (flag == "--pretrain") {
            pretrain = static_cast<std::size_t>(parse_u64(args.tool(), flag, args.value()));
        } else {
            return false;
        }
        args.mark_mode_only();
        return true;
    }
};

/// How an ad-hoc load is served: the --scheduler queue policy, on one
/// device or, with --devices N, on a fleet of N copies of it behind the
/// --router policy.
struct ServingFlags {
    std::string scheduler = "edf";
    std::size_t devices = 0; // 0 = not passed: one device
    std::string router;      // "" = not passed

    bool parse_flag(ArgWalk& args) {
        const auto& flag = args.flag();
        if (flag == "--scheduler") {
            scheduler = args.value();
        } else if (flag == "--devices") {
            devices = parse_count(args);
        } else if (flag == "--router") {
            router = parse_router(args.tool(), args.value());
        } else {
            return false;
        }
        args.mark_mode_only();
        return true;
    }
};

/// The ad-hoc load flags lotus_serve, lotus_sweep and lotus_trace synth
/// share: --streams/--requests/--arrival/--rate/--burst/--slo/--dataset.
/// Unset requests/SLO read 0; the tool fills in its default before
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

    bool parse_flag(ArgWalk& args) {
        if (parse_dataset_flag(args, dataset)) return true;
        const auto& flag = args.flag();
        if (flag == "--streams") {
            streams = parse_count(args);
        } else if (flag == "--requests") {
            requests = parse_count(args);
        } else if (flag == "--arrival") {
            try {
                arrival = serving::arrival_kind_from(args.value());
            } catch (const std::invalid_argument& e) {
                args.error(e.what());
            }
        } else if (flag == "--rate") {
            rate_hz = parse_positive_double(args.tool(), flag, args.value());
        } else if (flag == "--burst") {
            burst = parse_count(args);
        } else if (flag == "--slo") {
            slo_s = parse_positive_double(args.tool(), flag, args.value()) / 1e3;
        } else {
            return false;
        }
        args.mark_mode_only();
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

/// The flags lotus_run and lotus_serve share: scenario selection, the
/// harness flags and the output renderers.
struct CommonOptions {
    HarnessFlags harness;
    RenderOptions render;
    bool list_scenarios = false;
    std::vector<std::string> scenarios;
    /// The mode-only flags given (ArgWalk::mode_flags), which scenario mode
    /// rejects.
    std::vector<std::string> mode_flags;

    bool parse_flag(ArgWalk& args) {
        if (harness.parse_flag(args)) return true;
        const auto& flag = args.flag();
        if (flag == "--format") {
            render.format = parse_format(args.tool(), args.value());
        } else if (flag == "--csv") {
            render.csv_dir = args.value();
        } else if (flag == "--telemetry") {
            render.telemetry_dir = args.value();
            if (render.telemetry_dir.empty()) args.error("--telemetry wants a directory");
        } else if (flag == "--chart") {
            render.chart = true;
        } else if (flag == "--profile") {
            render.profile = true;
        } else if (flag == "--list-scenarios") {
            list_scenarios = true;
        } else if (flag == "--scenario") {
            scenarios.push_back(args.value());
        } else {
            return false;
        }
        return true;
    }
};

/// lotus_serve's request-trace capture and replay directories
/// (HarnessConfig::trace_dir / replay_dir; empty = off), in either mode.
struct TraceFlags {
    std::string record_dir;
    std::string replay_dir;

    bool parse_flag(ArgWalk& args) {
        const auto& flag = args.flag();
        auto* dir = flag == "--record-trace"   ? &record_dir
                    : flag == "--replay-trace" ? &replay_dir
                                               : nullptr;
        if (dir == nullptr) return false;
        *dir = args.value();
        if (dir->empty()) args.error(flag + " wants a directory");
        return true;
    }

    /// Exit 2 when both flags name one directory, however it is spelled:
    /// capture would overwrite the traces being replayed.
    void reject_same_dir(const std::string& tool) const {
        if (record_dir.empty() || replay_dir.empty()) return;
        namespace fs = std::filesystem;
        // weakly_canonical leaves a relative path with no existing prefix
        // relative ("a", not "./a"), and keeps a trailing "." as an empty
        // last element.
        const auto key = [](const std::string& dir) {
            const auto p = fs::weakly_canonical(fs::absolute(dir));
            return p.has_filename() ? p : p.parent_path();
        };
        const bool same = fs::exists(record_dir) && fs::exists(replay_dir)
                              ? fs::equivalent(record_dir, replay_dir)
                              : key(record_dir) == key(replay_dir);
        if (same) {
            usage_error(tool, "--record-trace and --replay-trace must not point at the same "
                              "directory (capture would overwrite the traces being replayed)");
        }
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

/// Run a batch on the harness the shared flags configure and render it,
/// capturing or replaying request traces as `traces` asks. Without
/// --csv/--chart serving and fleet episodes run summary-only (no
/// per-request ledger rows; every table and JSON byte is the same).
inline void run_batch(const std::string& tool, const CommonOptions& opt,
                      const std::vector<const harness::Scenario*>& batch,
                      const TraceFlags& traces = {}) {
    const auto& render = opt.render;
    if (render.profile) prof::set_enabled(true);
    const harness::ExperimentHarness harness({.jobs = opt.harness.jobs,
                                              .seed = opt.harness.seed.value,
                                              .summary_only = render.summary_only(),
                                              .telemetry = !render.telemetry_dir.empty(),
                                              .trace_dir = traces.record_dir,
                                              .replay_dir = traces.replay_dir});
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
                         const TraceFlags& traces = {}) {
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
    run_batch(tool, opt, batch, traces);
    return 0;
}

/// Parse the governor vocabulary every tool accepts:
///   default | ztt | lotus | performance | powersave | random | ondemand
/// | conservative | fixed:<cpu>,<gpu>
/// LOTUS is sized to `spec`; a fixed level outside its ladder exits 2.
inline harness::GovernorSpec parse_governor(const std::string& tool, const std::string& g,
                                            const platform::DeviceSpec& spec) {
    if (g == "default") return harness::StockGovernors{};
    if (g == "ztt") return harness::Ztt{};
    if (g == "lotus") return harness::Lotus{harness::lotus_config(spec)};
    if (g == "performance") return harness::Performance{};
    if (g == "powersave") return harness::Powersave{};
    if (g == "random") return harness::Random{};
    if (g == "ondemand") return harness::Ondemand{};
    if (g == "conservative") return harness::Conservative{};
    if (g.rfind("fixed:", 0) != 0) usage_error(tool, "unknown governor " + g);
    const auto spec_str = g.substr(6);
    const auto comma = spec_str.find(',');
    if (comma == std::string::npos) {
        usage_error(tool, "malformed --governor '" + g + "': fixed wants fixed:<cpu>,<gpu>");
    }
    const harness::GovernorSpec fixed = harness::Fixed{
        static_cast<std::size_t>(
            parse_u64(tool, "--governor fixed:<cpu>", spec_str.substr(0, comma))),
        static_cast<std::size_t>(
            parse_u64(tool, "--governor fixed:<gpu>", spec_str.substr(comma + 1)))};
    try {
        (void)harness::build(fixed, spec, 0);
    } catch (const std::invalid_argument& e) {
        usage_error(tool, e.what());
    }
    return fixed;
}

/// An ad-hoc serving run: lotus_serve's ad-hoc mode, and each lotus_sweep
/// cell (the sweep sets its axis values on a copy).
struct AdhocOptions {
    TargetFlags target;
    ServingFlags serving;
    StreamFlags load;

    bool parse_flag(ArgWalk& args) {
        return target.parse_flag(args) || serving.parse_flag(args) || load.parse_flag(args);
    }

    /// Set `flag` to `value` as if the command line gave it.
    void set(const std::string& tool, const std::string& flag, const std::string& value) {
        ArgWalk args(tool, {flag, value});
        if (!args.next() || !parse_flag(args)) usage_error(tool, "unknown flag " + flag);
    }
};

/// The scenario of an ad-hoc run, named `name`: harness::load_scenario's
/// shell with the flags' N identical streams and one arm. A fleet of
/// --devices copies of the device preset behind --router when --devices is
/// set, else one device. Unset --slo is 2x the device-calibrated per-frame
/// constraint L, unset --requests harness::serve_requests().
inline harness::Scenario adhoc_scenario(const std::string& tool, const AdhocOptions& opt,
                                        std::string name, std::string title) {
    if (opt.serving.devices == 0 && !opt.serving.router.empty()) {
        usage_error(tool, "--router picks the fleet routing policy and requires --devices N "
                          "(a single device has nothing to route)");
    }
    const auto spec = parse_device(tool, opt.target.device);
    const auto kind = parse_detector(tool, opt.target.detector);
    try {
        (void)serving::make_scheduler(opt.serving.scheduler);
    } catch (const std::invalid_argument& e) {
        usage_error(tool, e.what());
    }
    auto scenario = harness::load_scenario(spec, std::move(name), std::move(title),
                                           {.detector = kind,
                                            .dataset = opt.load.dataset,
                                            .scheduler = opt.serving.scheduler,
                                            .pretrain_iterations = opt.target.pretrain,
                                            .fleet = opt.serving.devices > 0});
    serving::LoadConfig* shell = nullptr;
    if (scenario.fleet) {
        auto& cfg = *scenario.fleet;
        cfg.devices = fleet::device_pool(spec, opt.target.device, opt.serving.devices);
        if (!opt.serving.router.empty()) cfg.router = opt.serving.router;
        shell = &cfg;
    } else {
        shell = &*scenario.serving;
    }
    auto load = opt.load;
    if (load.slo_s == 0.0) load.slo_s = 2.0 * shell->pretrain_constraint_s;
    if (load.requests == 0) load.requests = harness::serve_requests();
    shell->streams = identical_streams(load);
    scenario.arms.push_back(
        harness::governor_arm(parse_governor(tool, opt.target.governor, spec)));
    return scenario;
}

} // namespace lotus::cli
