// lotus_sweep: cartesian parameter sweeps over the fleet serving stack.
//
// Expands pool size x router x scheduler x governor x arrival rate (or x
// trace file) into one harness episode per cell, runs every cell on the
// existing parallel worker pool, and writes one row per cell. A cell is
// lotus_serve's ad-hoc fleet at the cell's axis values: the same preset
// pool and the same N phase-staggered streams (tools/cli_common.hpp).
// Outputs:
//
//   DIR/sweep.csv   -- flat table for spreadsheets / plotting
//   DIR/sweep.json  -- JSON Lines: one meta line, then one cell object per
//                      line (schema-versioned; `lotus_inspect diff
//                      a/sweep.json b/sweep.json` regress-gates two sweeps)
//
// Every cell is seeded by util::derive_seed(sweep seed, cell name, 0) -- a
// pure function of the cell's identity, never of which shard or worker ran
// it. `--shard k/N` runs the k-th contiguous block of the cell list and
// omits the CSV header / JSON meta line for k > 1, so concatenating the N
// shards' outputs in order is byte-identical to the unsharded run:
//
//   lotus_sweep --out full ...
//   lotus_sweep --out s1 --shard 1/2 ...   # same axes
//   lotus_sweep --out s2 --shard 2/2 ...
//   cat s1/sweep.csv s2/sweep.csv | cmp - full/sweep.csv
//
// Flags:
//   --out DIR          output directory (required)
//   --devices LIST     pool sizes, e.g. 1,2,4          (default 1,2)
//   --router LIST      routing policies                (default round_robin)
//   --scheduler LIST   queue policies                  (default edf)
//   --governor LIST    governor vocabulary of lotus_serve (default performance);
//                      an element starting with fixed: takes the next element as
//                      its GPU level, so performance,fixed:5,3 is two governors
//   --rate LIST        per-stream mean rates [Hz]      (default 0.25)
//   --trace LIST       replay .ltrc traces instead of generating arrivals
//                      (mutually exclusive with --rate; streams come from
//                      each trace's stream table)
//   --device PRESET    orin | mi11                     (default orin)
//   --detector K       frcnn | mrcnn | yolo            (default frcnn)
//   --dataset D        kitti | visdrone                (default kitti)
//   --arrival KIND     periodic|poisson|burst|diurnal|attack (default poisson)
//   --streams N        streams per cell                (default 4)
//   --requests N       requests per stream             (default 150; 25 fast)
//   --slo MS           per-request deadline            (default 2x calibrated)
//   --burst N          requests per volley             (default 8)
//   --pretrain N       warm-up frames (learning governors; default 2500)
//   --seed S           sweep seed                      (default 42)
//   --jobs N           worker threads                  (default: all cores)
//   --shard k/N        run the k-th of N contiguous cell blocks
//
// Unknown flags, malformed values, empty axes and out-of-range shards are
// rejected with exit 2.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cli_common.hpp"
#include "telemetry/recorder.hpp"
#include "trace/record.hpp"
#include "util/build_info.hpp"
#include "util/csv.hpp"

using namespace lotus;

namespace {

const std::string kTool = "lotus_sweep";

struct Options {
    std::string out_dir;
    std::vector<std::string> devices{"1", "2"};
    std::vector<std::string> routers{"round_robin"};
    std::vector<std::string> schedulers{"edf"};
    std::vector<std::string> governors{"performance"};
    std::vector<std::string> rates{"0.25"};
    std::vector<std::string> traces;
    std::string device = "orin";
    std::string detector = "frcnn";
    /// Per-cell load; its rate is the --rate axis value of each cell.
    cli::StreamFlags load;
    std::size_t pretrain = 2500;
    cli::SeedFlag seed;
    std::size_t jobs = 0;
    std::size_t shard_k = 1;
    std::size_t shard_n = 1;
};

std::vector<std::string> split_list(const std::string& flag, const std::string& raw) {
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= raw.size()) {
        const auto comma = raw.find(',', start);
        const auto end = comma == std::string::npos ? raw.size() : comma;
        const auto item = raw.substr(start, end - start);
        if (item.empty()) cli::usage_error(kTool, flag + " has an empty list element");
        out.push_back(item);
        if (comma == std::string::npos) break;
        start = comma + 1;
    }
    if (out.empty()) cli::usage_error(kTool, flag + " wants a non-empty list");
    return out;
}

/// split_list for --governor: `fixed:<cpu>,<gpu>` holds a comma itself, so
/// an element starting with "fixed:" takes the next element as its GPU level.
std::vector<std::string> split_governors(const std::string& flag, const std::string& raw) {
    const auto items = split_list(flag, raw);
    std::vector<std::string> out;
    for (std::size_t i = 0; i < items.size(); ++i) {
        out.push_back(items[i]);
        if (items[i].rfind("fixed:", 0) == 0 && i + 1 < items.size()) {
            out.back() += "," + items[++i];
        }
    }
    return out;
}

Options parse(int argc, char** argv) {
    Options opt;
    bool rates_given = false;
    const auto need_value = [&](int& i) { return cli::flag_value(kTool, argc, argv, i); };
    const auto u64 = [&](const std::string& flag, const std::string& v) {
        return cli::parse_u64(kTool, flag, v);
    };
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        // --rate is a list axis here, so it is read before the load flags.
        if (flag != "--rate" && opt.load.parse_flag(kTool, argc, argv, i)) continue;
        if (flag == "--out") {
            opt.out_dir = need_value(i);
        } else if (flag == "--devices") {
            opt.devices = split_list(flag, need_value(i));
        } else if (flag == "--router") {
            opt.routers = split_list(flag, need_value(i));
        } else if (flag == "--scheduler") {
            opt.schedulers = split_list(flag, need_value(i));
        } else if (flag == "--governor") {
            opt.governors = split_governors(flag, need_value(i));
        } else if (flag == "--rate") {
            opt.rates = split_list(flag, need_value(i));
            rates_given = true;
        } else if (flag == "--trace") {
            opt.traces = split_list(flag, need_value(i));
        } else if (flag == "--device") {
            opt.device = need_value(i);
        } else if (flag == "--detector") {
            opt.detector = need_value(i);
        } else if (flag == "--pretrain") {
            opt.pretrain = static_cast<std::size_t>(u64(flag, need_value(i)));
        } else if (flag == "--seed") {
            cli::parse_seed(kTool, need_value(i), opt.seed);
        } else if (flag == "--jobs") {
            opt.jobs = static_cast<std::size_t>(u64(flag, need_value(i)));
            if (opt.jobs == 0) cli::usage_error(kTool, "--jobs must be >= 1");
        } else if (flag == "--shard") {
            const auto raw = need_value(i);
            const auto slash = raw.find('/');
            if (slash == std::string::npos) {
                cli::usage_error(kTool, "--shard wants k/N, got '" + raw + "'");
            }
            opt.shard_k = static_cast<std::size_t>(
                u64("--shard", raw.substr(0, slash)));
            opt.shard_n = static_cast<std::size_t>(
                u64("--shard", raw.substr(slash + 1)));
            if (opt.shard_n == 0 || opt.shard_k == 0 || opt.shard_k > opt.shard_n) {
                cli::usage_error(kTool, "--shard wants 1 <= k <= N, got '" + raw + "'");
            }
        } else if (flag == "--help" || flag == "-h") {
            std::printf("see the header comment of tools/lotus_sweep.cpp for usage\n");
            std::exit(0);
        } else {
            cli::usage_error(kTool, "unknown flag " + flag);
        }
    }
    if (opt.out_dir.empty()) cli::usage_error(kTool, "--out DIR is required");
    if (!opt.traces.empty() && rates_given) {
        cli::usage_error(kTool, "--rate and --trace are alternative arrival axes; "
                                "pass one of them");
    }
    return opt;
}

/// One cartesian cell: the axis values plus the scenario built from them.
struct Cell {
    std::size_t index = 0;
    std::string name;
    std::size_t devices = 0;
    std::string router;
    std::string scheduler;
    std::string governor;
    /// The arrival-axis token: the rate string, or the trace file stem.
    std::string arrival;
    std::unique_ptr<harness::Scenario> scenario;
};

std::vector<Cell> build_cells(const Options& opt) {
    const auto spec = cli::parse_device(kTool, opt.device);
    const auto kind = cli::parse_detector(kTool, opt.detector);
    const auto& dataset = opt.load.dataset;
    const double constraint = workload::latency_constraint_s(spec.name, kind, dataset);
    auto load = opt.load;
    if (load.slo_s == 0.0) load.slo_s = 2.0 * constraint;
    if (load.requests == 0) load.requests = harness::fast_mode() ? 25 : 150;

    // Validate schedulers/routers once, up front, so a typo fails before
    // any cell runs.
    for (const auto& s : opt.schedulers) {
        try {
            (void)serving::make_scheduler(s);
        } catch (const std::invalid_argument& e) {
            cli::usage_error(kTool, e.what());
        }
    }
    for (const auto& r : opt.routers) (void)cli::parse_router(kTool, r);

    const bool trace_axis = !opt.traces.empty();
    const auto& arrival_axis = trace_axis ? opt.traces : opt.rates;

    std::vector<Cell> cells;
    std::size_t index = 0;
    for (const auto& devices_token : opt.devices) {
        const auto pool = static_cast<std::size_t>(
            cli::parse_u64(kTool, "--devices", devices_token));
        if (pool == 0) cli::usage_error(kTool, "--devices entries must be >= 1");
        for (const auto& router : opt.routers) {
            for (const auto& scheduler : opt.schedulers) {
                for (const auto& governor : opt.governors) {
                    for (const auto& arrival_token : arrival_axis) {
                        Cell cell;
                        cell.index = index++;
                        cell.devices = pool;
                        cell.router = router;
                        cell.scheduler = scheduler;
                        cell.governor = governor;
                        cell.arrival =
                            trace_axis
                                ? std::filesystem::path(arrival_token).stem().string()
                                : arrival_token;
                        cell.name = "sweep/d" + devices_token + "/" + router + "/" +
                                    scheduler + "/" + governor + "/" + cell.arrival;

                        fleet::FleetConfig cfg;
                        cfg.devices = fleet::device_pool(spec, opt.device, pool);
                        cfg.detector = kind;
                        cfg.scheduler = scheduler;
                        cfg.router = router;
                        cfg.pretrain_iterations = opt.pretrain;
                        cfg.pretrain_constraint_s = constraint;
                        if (trace_axis) {
                            // The trace's stream table defines the streams;
                            // replay substitutes for the arrival processes.
                            cfg.streams =
                                trace::TraceArrivalSource(arrival_token).stream_specs();
                            cfg.replay_trace = arrival_token;
                        } else {
                            load.rate_hz = cli::parse_positive_double(kTool, "--rate",
                                                                      arrival_token);
                            cfg.streams = cli::identical_streams(load);
                        }

                        auto scenario = std::make_unique<harness::Scenario>(
                            runtime::static_experiment(spec, kind, dataset, 1, 0,
                                                       opt.seed.value));
                        scenario->name = cell.name;
                        scenario->title = "lotus_sweep cell " + cell.name;
                        scenario->fleet = std::move(cfg);
                        scenario->arms.push_back(
                            harness::governor_arm(cli::parse_governor(kTool, governor, spec)));
                        cell.scenario = std::move(scenario);
                        cells.push_back(std::move(cell));
                    }
                }
            }
        }
    }
    return cells;
}

} // namespace

int main(int argc, char** argv) {
    const auto opt = parse(argc, argv);
    auto cells = build_cells(opt);
    const std::size_t total = cells.size();

    // Contiguous shard [lo, hi): floor(k*C/N) boundaries cover every cell
    // exactly once across the N shards.
    const std::size_t lo = (opt.shard_k - 1) * total / opt.shard_n;
    const std::size_t hi = opt.shard_k * total / opt.shard_n;

    harness::HarnessConfig cfg;
    cfg.jobs = opt.jobs;
    cfg.seed = opt.seed.value;
    cfg.summary_only = true;
    const harness::ExperimentHarness harness(cfg);
    std::vector<const harness::Scenario*> batch;
    batch.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) batch.push_back(cells[i].scenario.get());
    std::fprintf(stderr, "%s: %zu of %zu cells (shard %zu/%zu), %zu jobs, seed %llu\n",
                 kTool.c_str(), hi - lo, total, opt.shard_k, opt.shard_n,
                 harness.config().jobs,
                 static_cast<unsigned long long>(harness.config().seed));

    std::vector<harness::EpisodeResult> results;
    try {
        results = harness.run(batch);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s\n", kTool.c_str(), e.what());
        return 1;
    }

    std::filesystem::create_directories(opt.out_dir);
    std::ofstream csv(opt.out_dir + "/sweep.csv", std::ios::binary);
    std::ofstream json(opt.out_dir + "/sweep.json", std::ios::binary);
    if (!csv || !json) {
        std::fprintf(stderr, "%s: cannot write into %s\n", kTool.c_str(),
                     opt.out_dir.c_str());
        return 1;
    }

    const std::vector<std::string> columns = {
        "cell",          "name",       "devices",   "router",
        "scheduler",     "governor",   "arrival",   "episode_seed",
        "requests",      "served",     "shed",      "missed",
        "miss_rate",     "shed_rate",  "p50_ms",    "p95_ms",
        "p99_ms",        "mean_wait_ms", "throughput_rps", "energy_per_req_j",
        "peak_temp_c",   "makespan_s", "total_energy_j", "migrations",
        "load_skew"};
    const auto csv_line = [&csv](const std::vector<std::string>& fields) {
        for (std::size_t i = 0; i < fields.size(); ++i) {
            if (i != 0) csv << ",";
            csv << util::csv_escape(fields[i]);
        }
        csv << "\n";
    };
    if (opt.shard_k == 1) {
        csv_line(columns);
        // Meta line: only the first shard carries it, so shard
        // concatenation reproduces the unsharded file byte-for-byte. The
        // declared cell count is the FULL cartesian size.
        std::string axes = "{\"devices\":[";
        const auto join = [](const std::vector<std::string>& items) {
            std::string out;
            for (std::size_t i = 0; i < items.size(); ++i) {
                if (i != 0) out += ",";
                out += telemetry::jstr(items[i]);
            }
            return out;
        };
        axes += join(opt.devices) + "],\"router\":[" + join(opt.routers);
        axes += "],\"scheduler\":[" + join(opt.schedulers);
        axes += "],\"governor\":[" + join(opt.governors);
        axes += "],\"arrival\":[" +
                join(opt.traces.empty() ? opt.rates : opt.traces) + "]}";
        json << "{" << util::build_info_json_fields()
             << ",\"generator\":\"lotus_sweep\",\"cells\":" << total
             << ",\"seed\":" << telemetry::jstr(std::to_string(opt.seed.value))
             << ",\"axes\":" << axes << "}\n";
    }

    for (std::size_t i = lo; i < hi; ++i) {
        const auto& cell = cells[i];
        const auto& r = results[i - lo];
        const auto& t = *r.fleet_trace;
        const auto agg = t.aggregate();
        const auto seed_str = std::to_string(r.episode_seed);

        csv_line({std::to_string(cell.index), cell.name,
                  std::to_string(cell.devices), cell.router, cell.scheduler,
                  cell.governor, cell.arrival, seed_str,
                  std::to_string(agg.requests), std::to_string(agg.served),
                  std::to_string(agg.shed), std::to_string(agg.missed),
                  util::format_double(agg.miss_rate, 4),
                  util::format_double(agg.shed_rate, 4),
                  util::format_double(agg.p50_ms, 3),
                  util::format_double(agg.p95_ms, 3),
                  util::format_double(agg.p99_ms, 3),
                  util::format_double(agg.mean_wait_ms, 3),
                  util::format_double(agg.throughput_rps, 4),
                  util::format_double(agg.energy_per_req_j, 3),
                  util::format_double(t.peak_temp_c(), 2),
                  util::format_double(t.makespan_s(), 3),
                  util::format_double(t.total_energy_j(), 3),
                  std::to_string(t.migrations()),
                  util::format_double(t.load_skew(), 4)});

        json << "{\"cell\":" << cell.index << ",\"name\":" << telemetry::jstr(cell.name)
             << ",\"devices\":" << cell.devices
             << ",\"router\":" << telemetry::jstr(cell.router)
             << ",\"scheduler\":" << telemetry::jstr(cell.scheduler)
             << ",\"governor\":" << telemetry::jstr(cell.governor)
             << ",\"arrival\":" << telemetry::jstr(cell.arrival)
             << ",\"episode_seed\":" << telemetry::jstr(seed_str) << ",\"summary\":{"
             << "\"requests\":" << agg.requests << ",\"served\":" << agg.served
             << ",\"shed\":" << agg.shed << ",\"missed\":" << agg.missed
             << ",\"miss_rate\":" << telemetry::jnum(agg.miss_rate)
             << ",\"shed_rate\":" << telemetry::jnum(agg.shed_rate)
             << ",\"p50_ms\":" << telemetry::jnum(agg.p50_ms)
             << ",\"p95_ms\":" << telemetry::jnum(agg.p95_ms)
             << ",\"p99_ms\":" << telemetry::jnum(agg.p99_ms)
             << ",\"mean_wait_ms\":" << telemetry::jnum(agg.mean_wait_ms)
             << ",\"throughput_rps\":" << telemetry::jnum(agg.throughput_rps)
             << ",\"energy_per_req_j\":" << telemetry::jnum(agg.energy_per_req_j)
             << ",\"peak_temp_c\":" << telemetry::jnum(t.peak_temp_c())
             << ",\"makespan_s\":" << telemetry::jnum(t.makespan_s())
             << ",\"total_energy_j\":" << telemetry::jnum(t.total_energy_j())
             << ",\"migrations\":" << t.migrations()
             << ",\"load_skew\":" << telemetry::jnum(t.load_skew()) << "}}\n";
    }
    try {
        util::close_checked(csv, opt.out_dir + "/sweep.csv");
        util::close_checked(json, opt.out_dir + "/sweep.json");
    } catch (const std::runtime_error& e) {
        std::fprintf(stderr, "%s: %s\n", kTool.c_str(), e.what());
        return 1;
    }
    std::fprintf(stderr, "%s: wrote %s/sweep.csv and %s/sweep.json\n", kTool.c_str(),
                 opt.out_dir.c_str(), opt.out_dir.c_str());
    return 0;
}
