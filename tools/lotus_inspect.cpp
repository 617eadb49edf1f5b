// lotus_inspect: query and diff aggregated telemetry trees.
//
// A "tree" is any directory holding telemetry output from lotus_run /
// lotus_serve --telemetry: every subdirectory containing a health.json is
// one episode (scenario/arm), keyed by its relative path. The tool reads
// only the aggregated artifacts (health.json, rollup.json) -- never the
// raw event streams -- so it stays fast on fleet-scale output.
//
// Usage:
//   lotus_inspect summary <tree>
//       One row per episode: the fleet-wide scoreboard (requests, SLO
//       attainment, latency quantiles, thermal envelope, breaches, skew).
//   lotus_inspect top <tree> [--by <metric>] [--limit <n>]
//       Worst per-device rows across all episodes, ranked by a scoreboard
//       metric (default miss_rate; "worst" respects the metric's
//       direction, so --by headroom_min_c ranks ascending).
//   lotus_inspect timeseries <tree> --metric <name> [--device D] [--stream S]
//       Windowed rollup series as CSV (episode,device,stream,window,
//       start_s,value). Stream metrics: requests served shed missed ok
//       late e2e_p50_ms e2e_p95_ms e2e_p99_ms queue_wait_p95_ms. Device
//       metrics: energy_j throttle_s headroom_min_c temp_p50_c temp_p95_c
//       temp_p99_c temp_max_c.
//   lotus_inspect diff <treeA> <treeB> [--pct <p>] [--abs-eps <e>]
//       Per-metric deltas between two runs over fleet, per-device and
//       per-stream scoreboard rows. A delta is significant when
//       |b - a| > max(abs_eps, |a| * pct / 100) (both default 0: any
//       change counts). Significant deltas classify by the metric's
//       direction (e.g. missed up = regression, attainment up =
//       improvement); request-count changes and missing episodes/rows are
//       always regressions. Exit 0 when no regressions, 1 otherwise.
//       Passing two regular files instead of directories diffs them as
//       lotus_sweep sweep.json outputs, cell by cell, under the same
//       direction rules -- the regress gate for parameter sweeps.
//
// Exit codes: 0 ok / no regressions, 1 regressions found, 2 usage or
// malformed tree.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/ascii.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"

namespace {

namespace fs = std::filesystem;
using lotus::util::JsonValue;

[[noreturn]] void usage_error(const std::string& message) {
    std::fprintf(stderr,
                 "lotus_inspect: %s\n(see the header of tools/lotus_inspect.cpp "
                 "for usage)\n",
                 message.c_str());
    std::exit(2);
}

struct Episode {
    std::string key; ///< relative path of the episode directory
    fs::path dir;
    JsonValue health;
};

/// Every directory under `root` holding a health.json, in sorted key
/// order (deterministic independent of filesystem enumeration order).
std::vector<Episode> load_tree(const std::string& root) {
    if (!fs::is_directory(root)) usage_error("'" + root + "' is not a directory");
    std::vector<fs::path> found;
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
        if (entry.is_regular_file() && entry.path().filename() == "health.json") {
            found.push_back(entry.path());
        }
    }
    std::sort(found.begin(), found.end());
    std::vector<Episode> episodes;
    episodes.reserve(found.size());
    for (const auto& path : found) {
        Episode ep;
        ep.dir = path.parent_path();
        ep.key = fs::relative(ep.dir, root).generic_string();
        if (ep.key == ".") ep.key = fs::path(root).filename().generic_string();
        try {
            ep.health = lotus::util::json_parse_file(path.string());
        } catch (const std::exception& e) {
            usage_error(std::string("bad health.json: ") + e.what());
        }
        episodes.push_back(std::move(ep));
    }
    if (episodes.empty()) {
        usage_error("no health.json under '" + root + "' (was the run made with --telemetry?)");
    }
    return episodes;
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

double field(const JsonValue& row, const std::string& key) {
    return row.number_or(key, kNaN);
}

std::string cell(double v) {
    if (std::isnan(v)) return "-";
    return lotus::util::format_double(v, 4);
}

// --- metric direction --------------------------------------------------------
// +1: higher is worse (latency, misses, heat). -1: lower is worse (served,
// attainment, headroom). 0: any change is a regression (workload identity).

const std::map<std::string, int>& metric_directions() {
    static const std::map<std::string, int> dirs = {
        {"requests", 0},          {"served", -1},
        {"shed", +1},             {"missed", +1},
        {"ok", -1},               {"late", +1},
        {"attainment", -1},       {"miss_rate", +1},
        {"shed_rate", +1},        {"e2e_p50_ms", +1},
        {"e2e_p95_ms", +1},       {"e2e_p99_ms", +1},
        {"queue_wait_p95_ms", +1}, {"energy_j", +1},
        {"throttle_s", +1},       {"peak_temp_c", +1},
        {"headroom_min_c", -1},   {"breaches", +1},
        {"load_skew", +1},        {"devices", 0},
        {"windows", 0},           {"p50_ms", +1},
        {"p95_ms", +1},           {"p99_ms", +1},
        {"mean_wait_ms", +1},     {"throughput_rps", -1},
        {"energy_per_req_j", +1}, {"migrations", +1},
        {"makespan_s", +1},       {"total_energy_j", +1},
    };
    return dirs;
}

int metric_direction(const std::string& metric) {
    const auto& dirs = metric_directions();
    const auto it = dirs.find(metric);
    if (it == dirs.end()) usage_error("unknown metric '" + metric + "'");
    return it->second;
}

// --- summary -----------------------------------------------------------------

int cmd_summary(const std::vector<Episode>& episodes) {
    lotus::util::TextTable table({"episode", "req", "served", "shed", "missed",
                                  "attain", "p50_ms", "p95_ms", "p99_ms",
                                  "peak_c", "headroom_c", "breach", "skew"});
    for (const auto& ep : episodes) {
        const auto& fleet = ep.health.at("fleet");
        table.add_row({ep.key, cell(field(fleet, "requests")),
                       cell(field(fleet, "served")), cell(field(fleet, "shed")),
                       cell(field(fleet, "missed")),
                       cell(field(fleet, "attainment")),
                       cell(field(fleet, "e2e_p50_ms")),
                       cell(field(fleet, "e2e_p95_ms")),
                       cell(field(fleet, "e2e_p99_ms")),
                       cell(field(fleet, "peak_temp_c")),
                       cell(field(fleet, "headroom_min_c")),
                       cell(field(fleet, "breaches")),
                       cell(field(fleet, "load_skew"))});
    }
    std::fputs(table.render("fleet health").c_str(), stdout);
    return 0;
}

// --- top ---------------------------------------------------------------------

int cmd_top(const std::vector<Episode>& episodes, const std::string& metric,
            std::size_t limit) {
    const int dir = metric_direction(metric);
    struct Row {
        std::string episode;
        std::string device;
        double value;
        const JsonValue* row;
    };
    std::vector<Row> rows;
    for (const auto& ep : episodes) {
        for (const auto& dev : ep.health.at("devices").items()) {
            const double v = field(dev, metric);
            if (std::isnan(v)) continue;
            rows.push_back({ep.key, dev.at("device").as_string(), v, &dev});
        }
    }
    if (rows.empty()) usage_error("metric '" + metric + "' has no values in this tree");
    // Worst-first: descending for higher-is-worse metrics, ascending for
    // lower-is-worse; (episode, device) breaks ties deterministically.
    std::stable_sort(rows.begin(), rows.end(), [dir](const Row& a, const Row& b) {
        if (a.value != b.value) {
            return dir < 0 ? a.value < b.value : a.value > b.value;
        }
        if (a.episode != b.episode) return a.episode < b.episode;
        return a.device < b.device;
    });
    if (rows.size() > limit) rows.resize(limit);

    lotus::util::TextTable table(
        {"episode", "device", metric, "req", "served", "missed", "breach"});
    for (const auto& r : rows) {
        table.add_row({r.episode, r.device, cell(r.value),
                       cell(field(*r.row, "requests")),
                       cell(field(*r.row, "served")),
                       cell(field(*r.row, "missed")),
                       cell(field(*r.row, "breaches"))});
    }
    std::fputs(table.render("worst by " + metric).c_str(), stdout);
    return 0;
}

// --- timeseries --------------------------------------------------------------

/// Pull `metric` out of one rollup window object, resolving quantile names
/// (e2e_p95_ms -> windows[i].e2e_ms.p95) into the window's quantile objects.
std::optional<double> window_metric(const JsonValue& win, const std::string& metric) {
    static const std::map<std::string, std::pair<std::string, std::string>> quantiles = {
        {"e2e_p50_ms", {"e2e_ms", "p50"}},
        {"e2e_p95_ms", {"e2e_ms", "p95"}},
        {"e2e_p99_ms", {"e2e_ms", "p99"}},
        {"queue_wait_p50_ms", {"queue_wait_ms", "p50"}},
        {"queue_wait_p95_ms", {"queue_wait_ms", "p95"}},
        {"queue_wait_p99_ms", {"queue_wait_ms", "p99"}},
        {"temp_p50_c", {"temp_c", "p50"}},
        {"temp_p95_c", {"temp_c", "p95"}},
        {"temp_p99_c", {"temp_c", "p99"}},
        {"temp_max_c", {"temp_c", "max"}},
    };
    const auto it = quantiles.find(metric);
    if (it != quantiles.end()) {
        const auto* q = win.find(it->second.first);
        if (!q) return std::nullopt;
        // An empty sample (e.g. a shed-only window's e2e) has no quantiles.
        if (q->number_or("count", 0.0) == 0.0) return std::nullopt;
        const double v = q->number_or(it->second.second, kNaN);
        if (std::isnan(v)) return std::nullopt;
        return v;
    }
    const auto* v = win.find(metric);
    if (!v || v->is_null()) return std::nullopt;
    return v->as_number();
}

int cmd_timeseries(const std::vector<Episode>& episodes, const std::string& metric,
                   const std::string& device_filter,
                   const std::string& stream_filter) {
    std::fputs("episode,device,stream,window,start_s,value\n", stdout);
    std::size_t emitted = 0;
    const auto emit_series = [&](const std::string& episode,
                                 const std::string& device,
                                 const std::string& stream, const JsonValue& series) {
        if (!device_filter.empty() && device != device_filter) return;
        if (!stream_filter.empty() && stream != stream_filter) return;
        for (const auto& win : series.at("windows").items()) {
            const auto value = window_metric(win, metric);
            if (!value) continue;
            std::fprintf(stdout, "%s,%s,%s,%lld,%s,%s\n", episode.c_str(),
                         device.c_str(), stream.c_str(),
                         static_cast<long long>(win.at("window").as_number()),
                         lotus::util::format_double(field(win, "start_s"), 6).c_str(),
                         lotus::util::format_double(*value, 6).c_str());
            ++emitted;
        }
    };
    for (const auto& ep : episodes) {
        JsonValue rollup;
        try {
            rollup = lotus::util::json_parse_file((ep.dir / "rollup.json").string());
        } catch (const std::exception& e) {
            usage_error(std::string("bad rollup.json: ") + e.what());
        }
        for (const auto& dev : rollup.at("devices").items()) {
            emit_series(ep.key, dev.at("device").as_string(), "", dev);
        }
        for (const auto& st : rollup.at("streams").items()) {
            emit_series(ep.key, st.at("device").as_string(),
                        st.at("stream").as_string(), st);
        }
    }
    if (emitted == 0) {
        usage_error("metric '" + metric + "' matched no rollup windows");
    }
    return 0;
}

// --- diff --------------------------------------------------------------------

struct DiffStats {
    std::size_t regressions = 0;
    std::size_t improvements = 0;
};

/// Compare two scoreboard rows metric by metric (the row's own keys drive
/// the walk, so new fields are diffed without a schema update here).
void diff_row(const std::string& where, const JsonValue& a, const JsonValue& b,
              double pct, double abs_eps, DiffStats& stats) {
    const auto& dirs = metric_directions();
    for (const auto& [key, va] : a.members()) {
        const auto dit = dirs.find(key);
        if (dit == dirs.end()) continue; // identity fields (device, stream)
        const double x = va.is_null() ? kNaN : va.as_number();
        const double y = b.number_or(key, kNaN);
        if (std::isnan(x) && std::isnan(y)) continue;
        const double delta = y - x;
        const bool significant =
            std::isnan(x) != std::isnan(y) ||
            std::abs(delta) > std::max(abs_eps, std::abs(x) * pct / 100.0);
        if (!significant) continue;
        const int dir = dit->second;
        // NaN transitions and direction-0 metrics are always regressions.
        const bool regression = std::isnan(x) || std::isnan(y) || dir == 0 ||
                                (dir > 0 ? delta > 0.0 : delta < 0.0);
        std::fprintf(stdout, "  %-12s %s: %s -> %s (%+g)\n",
                     regression ? "REGRESSION" : "improvement",
                     (where + " " + key).c_str(), cell(x).c_str(), cell(y).c_str(),
                     delta);
        if (regression) {
            ++stats.regressions;
        } else {
            ++stats.improvements;
        }
    }
}

/// Diff two keyed row arrays (devices by "device", streams by "stream").
void diff_rows(const std::string& episode, const std::string& kind,
               const JsonValue& a, const JsonValue& b, double pct, double abs_eps,
               DiffStats& stats) {
    std::map<std::string, const JsonValue*> rows_a;
    std::map<std::string, const JsonValue*> rows_b;
    for (const auto& row : a.items()) rows_a[row.at(kind).as_string()] = &row;
    for (const auto& row : b.items()) rows_b[row.at(kind).as_string()] = &row;
    for (const auto& [name, row] : rows_a) {
        const auto it = rows_b.find(name);
        if (it == rows_b.end()) {
            std::fprintf(stdout, "  REGRESSION   %s/%s %s: missing in B\n",
                         episode.c_str(), kind.c_str(), name.c_str());
            ++stats.regressions;
            continue;
        }
        diff_row(episode + "/" + name, *row, *it->second, pct, abs_eps, stats);
    }
    for (const auto& [name, row] : rows_b) {
        (void)row;
        if (rows_a.find(name) == rows_a.end()) {
            std::fprintf(stdout, "  REGRESSION   %s/%s %s: only in B\n",
                         episode.c_str(), kind.c_str(), name.c_str());
            ++stats.regressions;
        }
    }
}

int cmd_diff(const std::vector<Episode>& a, const std::vector<Episode>& b,
             double pct, double abs_eps) {
    std::map<std::string, const Episode*> eps_a;
    std::map<std::string, const Episode*> eps_b;
    for (const auto& ep : a) eps_a[ep.key] = &ep;
    for (const auto& ep : b) eps_b[ep.key] = &ep;

    DiffStats stats;
    for (const auto& [key, ep_a] : eps_a) {
        const auto it = eps_b.find(key);
        if (it == eps_b.end()) {
            std::fprintf(stdout, "  REGRESSION   episode %s: missing in B\n",
                         key.c_str());
            ++stats.regressions;
            continue;
        }
        const auto& ha = ep_a->health;
        const auto& hb = it->second->health;
        diff_row(key + "/fleet", ha.at("fleet"), hb.at("fleet"), pct, abs_eps, stats);
        diff_rows(key, "device", ha.at("devices"), hb.at("devices"), pct, abs_eps,
                  stats);
        diff_rows(key, "stream", ha.at("streams"), hb.at("streams"), pct, abs_eps,
                  stats);
    }
    for (const auto& [key, ep] : eps_b) {
        (void)ep;
        if (eps_a.find(key) == eps_a.end()) {
            std::fprintf(stdout, "  REGRESSION   episode %s: only in B\n",
                         key.c_str());
            ++stats.regressions;
        }
    }
    std::fprintf(stdout, "diff: %zu regressions, %zu improvements\n",
                 stats.regressions, stats.improvements);
    return stats.regressions == 0 ? 0 : 1;
}

// --- sweep diff --------------------------------------------------------------

/// Parse a lotus_sweep JSON Lines file: cell name -> summary row. The meta
/// line (no "cell" key) is skipped; malformed lines are usage errors.
std::map<std::string, JsonValue> load_sweep(const std::string& path) {
    std::ifstream in(path);
    if (!in) usage_error("cannot read '" + path + "'");
    std::map<std::string, JsonValue> cells;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty()) continue;
        JsonValue doc;
        try {
            doc = lotus::util::json_parse(line);
        } catch (const std::exception& e) {
            usage_error(path + ":" + std::to_string(lineno) + ": " + e.what());
        }
        if (doc.find("cell") == nullptr) continue; // meta line
        cells[doc.at("name").as_string()] = doc.at("summary");
    }
    if (cells.empty()) usage_error("no sweep cells in '" + path + "'");
    return cells;
}

/// Diff two sweep.json files cell by cell: the same per-metric direction
/// rules as the telemetry-tree diff, with missing/extra cells counting as
/// regressions. This is what regress-gates a sweep between two builds.
int cmd_diff_sweep(const std::string& path_a, const std::string& path_b, double pct,
                   double abs_eps) {
    const auto a = load_sweep(path_a);
    const auto b = load_sweep(path_b);
    DiffStats stats;
    for (const auto& [name, row] : a) {
        const auto it = b.find(name);
        if (it == b.end()) {
            std::fprintf(stdout, "  REGRESSION   cell %s: missing in B\n", name.c_str());
            ++stats.regressions;
            continue;
        }
        diff_row(name, row, it->second, pct, abs_eps, stats);
    }
    for (const auto& [name, row] : b) {
        (void)row;
        if (a.find(name) == a.end()) {
            std::fprintf(stdout, "  REGRESSION   cell %s: only in B\n", name.c_str());
            ++stats.regressions;
        }
    }
    std::fprintf(stdout, "diff: %zu regressions, %zu improvements\n", stats.regressions,
                 stats.improvements);
    return stats.regressions == 0 ? 0 : 1;
}

// --- argument parsing --------------------------------------------------------

double parse_nonneg(const std::string& flag, const std::string& value) {
    char* end = nullptr;
    const double out = std::strtod(value.c_str(), &end);
    if (value.empty() || end != value.c_str() + value.size() || !(out >= 0.0)) {
        usage_error(flag + " wants a non-negative number, got '" + value + "'");
    }
    return out;
}

} // namespace

int main(int argc, char** argv) {
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) usage_error("missing command (summary|top|timeseries|diff)");
    const std::string& command = args[0];

    std::vector<std::string> positional;
    std::string metric;
    std::string device_filter;
    std::string stream_filter;
    std::size_t limit = 10;
    double pct = 0.0;
    double abs_eps = 0.0;
    for (std::size_t i = 1; i < args.size(); ++i) {
        const auto& arg = args[i];
        const auto next = [&]() -> const std::string& {
            if (i + 1 >= args.size()) usage_error(arg + " wants a value");
            return args[++i];
        };
        if (arg == "--by" || arg == "--metric") {
            metric = next();
        } else if (arg == "--limit") {
            const auto& v = next();
            limit = static_cast<std::size_t>(parse_nonneg("--limit", v));
            if (limit == 0) usage_error("--limit wants a positive integer");
        } else if (arg == "--device") {
            device_filter = next();
        } else if (arg == "--stream") {
            stream_filter = next();
        } else if (arg == "--pct") {
            pct = parse_nonneg("--pct", next());
        } else if (arg == "--abs-eps") {
            abs_eps = parse_nonneg("--abs-eps", next());
        } else if (!arg.empty() && arg[0] == '-') {
            usage_error("unknown flag " + arg);
        } else {
            positional.push_back(arg);
        }
    }

    try {
        if (command == "summary") {
            if (positional.size() != 1) usage_error("summary wants one tree");
            return cmd_summary(load_tree(positional[0]));
        }
        if (command == "top") {
            if (positional.size() != 1) usage_error("top wants one tree");
            return cmd_top(load_tree(positional[0]),
                           metric.empty() ? "miss_rate" : metric, limit);
        }
        if (command == "timeseries") {
            if (positional.size() != 1) usage_error("timeseries wants one tree");
            if (metric.empty()) usage_error("timeseries wants --metric");
            return cmd_timeseries(load_tree(positional[0]), metric, device_filter,
                                  stream_filter);
        }
        if (command == "diff") {
            if (positional.size() != 2) {
                usage_error("diff wants two trees (or two sweep.json files)");
            }
            // Two regular files diff as lotus_sweep outputs; directories as
            // telemetry trees.
            if (fs::is_regular_file(positional[0]) &&
                fs::is_regular_file(positional[1])) {
                return cmd_diff_sweep(positional[0], positional[1], pct, abs_eps);
            }
            return cmd_diff(load_tree(positional[0]), load_tree(positional[1]), pct,
                            abs_eps);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "lotus_inspect: %s\n", e.what());
        return 2;
    }
    usage_error("unknown command '" + command + "'");
}
