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

#include <algorithm>
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

/// One list axis of the grid: the flag that sets it, its key in sweep.json
/// and its values.
struct Axis {
    std::string flag;
    std::string key;
    std::vector<std::string> values;
    bool given = false;
};

struct Options {
    std::string out_dir;
    /// Outermost first. A cell sets its value of each axis on a copy of
    /// `adhoc`, except a --trace value, which replaces the streams.
    std::vector<Axis> axes{{"--devices", "devices", {"1", "2"}},
                           {"--router", "router", {"round_robin"}},
                           {"--scheduler", "scheduler", {"edf"}},
                           {"--governor", "governor", {"performance"}},
                           {"--rate", "arrival", {"0.25"}}};
    /// Every cell's ad-hoc run before its axis values are set.
    cli::AdhocOptions adhoc;
    cli::HarnessFlags harness;
    std::size_t shard_k = 1;
    std::size_t shard_n = 1;
};

/// A comma list. `fixed:<cpu>,<gpu>` holds the separator itself, so an
/// element starting with "fixed:" takes the next element as its GPU level.
std::vector<std::string> split_list(const std::string& flag, const std::string& raw) {
    std::vector<std::string> out;
    bool gpu_level = false;
    std::size_t start = 0;
    while (start <= raw.size()) {
        const auto comma = raw.find(',', start);
        const auto end = comma == std::string::npos ? raw.size() : comma;
        const auto item = raw.substr(start, end - start);
        if (item.empty()) cli::usage_error(kTool, flag + " has an empty list element");
        if (gpu_level) {
            out.back() += "," + item;
        } else {
            out.push_back(item);
        }
        gpu_level = !gpu_level && item.rfind("fixed:", 0) == 0;
        if (comma == std::string::npos) break;
        start = comma + 1;
    }
    return out;
}

Options parse(int argc, char** argv) {
    Options opt;
    std::vector<std::string> traces;
    cli::ArgWalk args(kTool, argc, argv);
    while (args.next()) {
        const auto& flag = args.flag();
        const auto axis = std::find_if(opt.axes.begin(), opt.axes.end(),
                                       [&](const Axis& a) { return a.flag == flag; });
        if (axis != opt.axes.end()) {
            axis->values = split_list(flag, args.value());
            axis->given = true;
        } else if (flag == "--trace") {
            traces = split_list(flag, args.value());
        } else if (flag == "--out") {
            opt.out_dir = args.value();
        } else if (flag == "--shard") {
            const auto raw = args.value();
            const auto slash = raw.find('/');
            if (slash == std::string::npos) {
                args.error("--shard wants k/N, got '" + raw + "'");
            }
            opt.shard_k = static_cast<std::size_t>(
                cli::parse_u64(kTool, "--shard", raw.substr(0, slash)));
            opt.shard_n = static_cast<std::size_t>(
                cli::parse_u64(kTool, "--shard", raw.substr(slash + 1)));
            if (opt.shard_n == 0 || opt.shard_k == 0 || opt.shard_k > opt.shard_n) {
                args.error("--shard wants 1 <= k <= N, got '" + raw + "'");
            }
        } else if (!opt.adhoc.parse_flag(args) && !opt.harness.parse_flag(args)) {
            args.error("unknown flag " + flag);
        }
    }
    if (opt.out_dir.empty()) args.error("--out DIR is required");
    if (!traces.empty()) {
        if (opt.axes.back().given) {
            args.error("--rate and --trace are alternative arrival axes; pass one of them");
        }
        opt.axes.back() = {"--trace", "arrival", traces};
    }
    return opt;
}

/// One cartesian cell: the axis values plus the scenario built from them.
struct Cell {
    std::size_t index = 0;
    std::string name;
    std::size_t devices = 0;
    /// The cell's value on each axis, as given (a trace as its file stem).
    std::vector<std::string> values;
    std::unique_ptr<harness::Scenario> scenario;
};

std::vector<Cell> build_cells(const Options& opt) {
    std::size_t total = 1;
    for (const auto& axis : opt.axes) total *= axis.values.size();
    std::vector<Cell> cells(total);
    for (std::size_t index = 0; index < total; ++index) {
        auto& cell = cells[index];
        cell.index = index;
        auto adhoc = opt.adhoc;
        std::string replay;
        std::size_t stride = total;
        for (const auto& axis : opt.axes) {
            stride /= axis.values.size();
            const auto& value = axis.values[index / stride % axis.values.size()];
            if (axis.flag == "--trace") {
                replay = value;
                cell.values.push_back(std::filesystem::path(value).stem().string());
            } else {
                adhoc.set(kTool, axis.flag, value);
                cell.values.push_back(value);
            }
            cell.name += (cell.name.empty() ? "sweep/d" : "/") + cell.values.back();
        }
        cell.devices = adhoc.serving.devices;
        cell.scenario = std::make_unique<harness::Scenario>(
            cli::adhoc_scenario(kTool, adhoc, cell.name, "lotus_sweep cell " + cell.name));
        if (!replay.empty()) {
            // The trace's stream table defines the streams; replay
            // substitutes for the arrival processes.
            auto& cfg = *cell.scenario->fleet;
            cfg.streams = trace::stream_specs(trace::Reader(replay).info());
            cfg.replay_trace = replay;
        }
    }
    return cells;
}

/// Run the shard's cells and write its sweep.csv / sweep.json.
int sweep(const Options& opt) {
    auto cells = build_cells(opt);
    const std::size_t total = cells.size();

    // Contiguous shard [lo, hi): floor(k*C/N) boundaries cover every cell
    // exactly once across the N shards.
    const std::size_t lo = (opt.shard_k - 1) * total / opt.shard_n;
    const std::size_t hi = opt.shard_k * total / opt.shard_n;

    const harness::ExperimentHarness harness(
        {.jobs = opt.harness.jobs, .seed = opt.harness.seed.value, .summary_only = true});
    std::vector<const harness::Scenario*> batch;
    batch.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) batch.push_back(cells[i].scenario.get());
    std::fprintf(stderr, "%s: %zu of %zu cells (shard %zu/%zu), %zu jobs, seed %llu\n",
                 kTool.c_str(), hi - lo, total, opt.shard_k, opt.shard_n,
                 harness.config().jobs,
                 static_cast<unsigned long long>(harness.config().seed));

    const auto results = harness.run(batch);

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
        std::string axes = "{";
        for (const auto& axis : opt.axes) {
            if (axes.size() > 1) axes += "],";
            axes += telemetry::jstr(axis.key) + ":[";
            for (std::size_t i = 0; i < axis.values.size(); ++i) {
                if (i != 0) axes += ",";
                axes += telemetry::jstr(axis.values[i]);
            }
        }
        axes += "]}";
        json << "{" << util::build_info_json_fields()
             << ",\"generator\":\"lotus_sweep\",\"cells\":" << total
             << ",\"seed\":" << telemetry::jstr(std::to_string(opt.harness.seed.value))
             << ",\"axes\":" << axes << "}\n";
    }

    for (std::size_t i = lo; i < hi; ++i) {
        const auto& cell = cells[i];
        const auto& r = results[i - lo];
        const auto& t = *r.fleet_trace;
        const auto agg = t.aggregate();
        const auto seed_str = std::to_string(r.episode_seed);

        const auto& v = cell.values;
        csv_line({std::to_string(cell.index), cell.name, std::to_string(cell.devices), v[1],
                  v[2], v[3], v[4], seed_str,
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
             << ",\"devices\":" << cell.devices << ",\"router\":" << telemetry::jstr(v[1])
             << ",\"scheduler\":" << telemetry::jstr(v[2])
             << ",\"governor\":" << telemetry::jstr(v[3])
             << ",\"arrival\":" << telemetry::jstr(v[4])
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
    util::close_checked(csv, opt.out_dir + "/sweep.csv");
    util::close_checked(json, opt.out_dir + "/sweep.json");
    std::fprintf(stderr, "%s: wrote %s/sweep.csv and %s/sweep.json\n", kTool.c_str(),
                 opt.out_dir.c_str(), opt.out_dir.c_str());
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    const auto opt = parse(argc, argv);
    try {
        return sweep(opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s\n", kTool.c_str(), e.what());
        return 1;
    }
}
