#include "harness/sinks.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <set>

#include "platform/presets.hpp"
#include "prof/profiler.hpp"
#include "telemetry/recorder.hpp"
#include "util/ascii.hpp"
#include "util/build_info.hpp"
#include "util/csv.hpp"

namespace lotus::harness {

std::string artifact_name(std::string s) {
    for (auto& c : s) {
        if (!(std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '-' || c == '_')) {
            c = '_';
        }
    }
    return s;
}

namespace {

/// Largest latency constraint across an episode's schedule segments (the
/// reference line drawn in multi-domain figures).
double max_constraint_ms(const EpisodeResult& r) {
    double best = 0.0;
    for (const auto& seg : r.config.schedule.all()) {
        best = std::max(best, seg.latency_constraint_s * 1e3);
    }
    return best;
}

/// Largest SLO across a serving or fleet episode's streams.
double max_slo_ms(const EpisodeResult& r) {
    double best = 0.0;
    if (r.serving_config) {
        for (const auto& s : r.serving_config->streams) {
            best = std::max(best, s.slo_s * 1e3);
        }
    }
    if (r.fleet_config) {
        for (const auto& s : r.fleet_config->streams) {
            best = std::max(best, s.slo_s * 1e3);
        }
    }
    return best;
}

// --- JSON helpers ------------------------------------------------------------
// Hand-rolled emission with the telemetry layer's helpers: strings get RFC
// 8259 escaping; non-finite numbers (which JSON cannot represent) degrade to
// null.

using telemetry::jnum;
using telemetry::jstr;

std::string experiment_summary_json(const runtime::Summary& s) {
    std::string o = "{";
    o += "\"frames\":" + std::to_string(s.frames);
    o += ",\"mean_latency_ms\":" + jnum(s.mean_latency_s * 1e3);
    o += ",\"std_latency_ms\":" + jnum(s.std_latency_s * 1e3);
    o += ",\"satisfaction_rate\":" + jnum(s.satisfaction_rate);
    o += ",\"mean_device_temp_c\":" + jnum(s.mean_device_temp);
    o += ",\"max_device_temp_c\":" + jnum(s.max_device_temp);
    o += ",\"throttled_fraction\":" + jnum(s.throttled_fraction);
    o += ",\"mean_power_w\":" + jnum(s.mean_power_w);
    o += ",\"mean_proposals\":" + jnum(s.mean_proposals);
    o += "}";
    return o;
}

std::string serving_summary_json(const serving::ServingSummary& s) {
    std::string o = "{";
    o += "\"stream\":" + jstr(s.stream);
    o += ",\"requests\":" + std::to_string(s.requests);
    o += ",\"served\":" + std::to_string(s.served);
    o += ",\"shed\":" + std::to_string(s.shed);
    o += ",\"missed\":" + std::to_string(s.missed);
    o += ",\"p50_ms\":" + jnum(s.p50_ms);
    o += ",\"p95_ms\":" + jnum(s.p95_ms);
    o += ",\"p99_ms\":" + jnum(s.p99_ms);
    o += ",\"mean_wait_ms\":" + jnum(s.mean_wait_ms);
    o += ",\"miss_rate\":" + jnum(s.miss_rate);
    o += ",\"shed_rate\":" + jnum(s.shed_rate);
    o += ",\"throughput_rps\":" + jnum(s.throughput_rps);
    o += ",\"energy_per_req_j\":" + jnum(s.energy_per_req_j);
    o += ",\"mean_device_temp_c\":" + jnum(s.mean_device_temp_c);
    o += ",\"peak_device_temp_c\":" + jnum(s.peak_device_temp_c);
    o += "}";
    return o;
}

/// One row of the printed serving/fleet table: `head`, the summary's cells
/// from "req" to "E/req (J)", then `tail`.
std::vector<std::string> table_row(std::vector<std::string> head,
                                   const serving::ServingSummary& s,
                                   std::initializer_list<std::string> tail = {}) {
    head.insert(head.end(), {
        std::to_string(s.requests),
        std::to_string(s.served),
        std::to_string(s.shed),
        util::format_double(s.miss_rate * 100.0, 1),
        util::format_double(s.shed_rate * 100.0, 1),
        util::format_double(s.p50_ms, 1),
        util::format_double(s.p95_ms, 1),
        util::format_double(s.p99_ms, 1),
        util::format_double(s.mean_wait_ms, 1),
        util::format_double(s.throughput_rps, 2),
        util::format_double(s.peak_device_temp_c, 1),
        util::format_double(s.energy_per_req_j, 1),
    });
    head.insert(head.end(), tail);
    return head;
}

/// One row of the serving/fleet `_summary.csv`: `head`, the summary's cells
/// from "requests" to "peak_temp_c", then `tail`.
std::vector<std::string> csv_row(std::vector<std::string> head,
                                 const serving::ServingSummary& s,
                                 std::initializer_list<std::string> tail = {}) {
    head.insert(head.end(), {
        std::to_string(s.requests),
        std::to_string(s.served),
        std::to_string(s.shed),
        std::to_string(s.missed),
        util::format_double(s.p50_ms, 3),
        util::format_double(s.p95_ms, 3),
        util::format_double(s.p99_ms, 3),
        util::format_double(s.mean_wait_ms, 3),
        util::format_double(s.miss_rate, 4),
        util::format_double(s.shed_rate, 4),
        util::format_double(s.throughput_rps, 4),
        util::format_double(s.energy_per_req_j, 3),
        util::format_double(s.peak_device_temp_c, 2),
    });
    head.insert(head.end(), tail);
    return head;
}

} // namespace

void print_summary_table(const std::string& heading,
                         const std::vector<EpisodeResult>& results) {
    util::TextTable table({"method", "l-bar (ms)", "sigma_l (ms)", "R_L (%)",
                           "T_dev (C)", "P (W)", "throttled (%)", "paper l-bar",
                           "paper sigma", "paper R_L"});
    for (const auto& r : results) {
        const auto s = r.trace.summary();
        std::vector<std::string> row{
            r.arm,
            util::format_double(s.mean_latency_s * 1e3, 1),
            util::format_double(s.std_latency_s * 1e3, 1),
            util::format_double(s.satisfaction_rate * 100.0, 1),
            util::format_double(s.mean_device_temp, 1),
            util::format_double(s.mean_power_w, 1),
            util::format_double(s.throttled_fraction * 100.0, 1),
        };
        if (r.paper) {
            row.push_back(util::format_double(r.paper->mean_ms, 1));
            row.push_back(util::format_double(r.paper->std_ms, 1));
            row.push_back(util::format_double(r.paper->satisfaction * 100.0, 1));
        } else {
            row.insert(row.end(), {"-", "-", "-"});
        }
        table.add_row(std::move(row));
    }
    std::printf("%s", table.render(heading).c_str());
}

void print_serving_table(const std::string& heading,
                         const std::vector<EpisodeResult>& results) {
    util::TextTable table({"method", "stream", "req", "served", "shed", "miss (%)",
                           "shed (%)", "p50 (ms)", "p95 (ms)", "p99 (ms)", "wait (ms)",
                           "thrpt (rps)", "T_peak (C)", "E/req (J)"});
    for (const auto& r : results) {
        if (!r.serving_trace) continue;
        for (const auto& s : r.serving_trace->all_summaries()) {
            table.add_row(table_row({r.arm, s.stream}, s));
        }
    }
    std::printf("%s", table.render(heading).c_str());
}

void print_fleet_table(const std::string& heading,
                       const std::vector<EpisodeResult>& results) {
    util::TextTable table({"method", "scope", "req", "served", "shed", "miss (%)",
                           "shed (%)", "p50 (ms)", "p95 (ms)", "p99 (ms)", "wait (ms)",
                           "thrpt (rps)", "T_peak (C)", "E/req (J)", "migr", "skew"});
    for (const auto& r : results) {
        if (!r.fleet_trace) continue;
        const auto& t = *r.fleet_trace;
        const std::size_t devices = t.device_names().size();
        const auto rows = t.all_summaries();
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const auto& s = rows[i];
            const bool fleet_row = i == 0;
            const bool device_row = !fleet_row && i <= devices;
            table.add_row(table_row(
                {r.arm, device_row ? "dev:" + s.stream : s.stream}, s,
                {fleet_row ? std::to_string(t.migrations())
                           : (device_row ? std::to_string(t.device_stats(i - 1).migrations_out)
                                         : "-"),
                 fleet_row ? util::format_double(t.load_skew(), 3) : "-"}));
        }
    }
    std::printf("%s", table.render(heading).c_str());
}

void print_figure(const std::string& title, const std::vector<EpisodeResult>& results) {
    if (results.empty()) return;
    std::printf("%s\n%s\n", title.c_str(), std::string(title.size(), '=').c_str());

    const bool fleet = results.front().is_fleet();
    const bool serving = fleet || results.front().is_serving();
    const auto temps = [&](const EpisodeResult& r) {
        if (fleet) return r.fleet_trace->device_temps();
        return serving ? r.serving_trace->device_temps() : r.trace.device_temps();
    };
    const auto latencies = [&](const EpisodeResult& r) {
        if (fleet) return r.fleet_trace->e2e_ms();
        return serving ? r.serving_trace->e2e_ms() : r.trace.latencies_ms();
    };
    const double throttle_bound_c =
        platform::throttle_bound_celsius(results.front().config.device_spec);

    util::AsciiChart temp_chart(110, 14);
    for (const auto& r : results) {
        temp_chart.add_series({r.arm, util::downsample(temps(r), 110)});
    }
    temp_chart.add_reference_line(throttle_bound_c, "throttling bound");
    std::printf("%s\n",
                temp_chart.render("Device temperature over iterations", "deg C").c_str());

    double bound_ms = 0.0;
    for (const auto& r : results) {
        bound_ms = std::max(bound_ms, serving ? max_slo_ms(r) : max_constraint_ms(r));
    }
    util::AsciiChart lat_chart(110, 14);
    for (const auto& r : results) {
        lat_chart.add_series({r.arm, util::downsample(latencies(r), 110)});
    }
    lat_chart.add_reference_line(bound_ms, serving ? "max SLO" : "latency constraint");
    std::printf("%s\n",
                lat_chart
                    .render(serving ? "End-to-end latency over requests"
                                    : "Inference latency over iterations",
                            "ms")
                    .c_str());
}

void write_csv_traces(const std::string& dir, const std::string& stem,
                      const std::vector<EpisodeResult>& results, bool announce) {
    std::filesystem::create_directories(dir);

    // Sanitizing is lossy ("a,b" and "a.b" both map to "a_b"): keep the
    // trace files one-per-episode by suffixing repeats in declaration order.
    std::set<std::string> used;
    const auto unique_path = [&](const std::string& base) {
        std::string name = base;
        for (std::size_t n = 2; !used.insert(name).second; ++n) {
            name = base + "_" + std::to_string(n);
        }
        return dir + "/" + name + ".csv";
    };

    const bool fleet = !results.empty() && results.front().is_fleet();
    const bool serving = !results.empty() && results.front().is_serving();
    for (const auto& r : results) {
        const auto path = unique_path(artifact_name(stem) + "_" + artifact_name(r.arm));
        std::size_t rows = 0;
        if (r.fleet_trace) {
            r.fleet_trace->write_csv(path);
            rows = r.fleet_trace->size();
        } else if (r.serving_trace) {
            r.serving_trace->write_csv(path);
            rows = r.serving_trace->size();
        } else {
            r.trace.write_csv(path);
            rows = r.trace.size();
        }
        if (announce) {
            std::fprintf(stderr, "[csv] wrote %s (%zu rows)\n", path.c_str(), rows);
        }
    }

    // Episode-summary table: the one place scenario and arm names land
    // *inside* a CSV, so quoting matters (CsvWriter applies RFC 4180).
    const auto summary_path = dir + "/" + artifact_name(stem) + "_summary.csv";
    if (fleet) {
        util::CsvWriter csv(summary_path,
                            {"scenario", "arm", "scope", "label", "requests", "served",
                             "shed", "missed", "p50_ms", "p95_ms", "p99_ms",
                             "mean_wait_ms", "miss_rate", "shed_rate", "throughput_rps",
                             "energy_per_req_j", "peak_temp_c", "migrations",
                             "load_skew"});
        for (const auto& r : results) {
            if (!r.fleet_trace) continue;
            const auto& t = *r.fleet_trace;
            const std::size_t devices = t.device_names().size();
            const auto rows = t.all_summaries();
            for (std::size_t i = 0; i < rows.size(); ++i) {
                const auto& s = rows[i];
                const bool fleet_row = i == 0;
                const bool device_row = !fleet_row && i <= devices;
                csv.row(csv_row(
                    {r.scenario, r.arm,
                     fleet_row ? "fleet" : (device_row ? "device" : "stream"), s.stream},
                    s,
                    {fleet_row
                         ? std::to_string(t.migrations())
                         : (device_row ? std::to_string(t.device_stats(i - 1).migrations_out)
                                       : ""),
                     fleet_row ? util::format_double(t.load_skew(), 4) : ""}));
            }
        }
        csv.close();
    } else if (serving) {
        util::CsvWriter csv(summary_path,
                            {"scenario", "arm", "stream", "requests", "served", "shed",
                             "missed", "p50_ms", "p95_ms", "p99_ms", "mean_wait_ms",
                             "miss_rate", "shed_rate", "throughput_rps",
                             "energy_per_req_j", "peak_temp_c"});
        for (const auto& r : results) {
            if (!r.serving_trace) continue;
            for (const auto& s : r.serving_trace->all_summaries()) {
                csv.row(csv_row({r.scenario, r.arm, s.stream}, s));
            }
        }
        csv.close();
    } else {
        util::CsvWriter csv(summary_path,
                            {"scenario", "arm", "frames", "mean_latency_ms",
                             "std_latency_ms", "satisfaction_rate", "mean_device_temp_c",
                             "max_device_temp_c", "mean_power_w", "throttled_fraction"});
        for (const auto& r : results) {
            const auto s = r.trace.summary();
            csv.row(std::vector<std::string>{
                r.scenario,
                r.arm,
                std::to_string(s.frames),
                util::format_double(s.mean_latency_s * 1e3, 3),
                util::format_double(s.std_latency_s * 1e3, 3),
                util::format_double(s.satisfaction_rate, 4),
                util::format_double(s.mean_device_temp, 2),
                util::format_double(s.max_device_temp, 2),
                util::format_double(s.mean_power_w, 3),
                util::format_double(s.throttled_fraction, 4),
            });
        }
        csv.close();
    }
    if (announce) std::fprintf(stderr, "[csv] wrote %s\n", summary_path.c_str());
}

std::string scenario_json(const Scenario& scenario,
                          const std::vector<EpisodeResult>& results) {
    std::string o = "{";
    o += "\"scenario\":" + jstr(scenario.name);
    o += "," + util::build_info_json_fields();
    o += ",\"title\":" + jstr(scenario.title);
    o += ",\"mode\":" + jstr(scenario.is_fleet()
                                 ? "fleet"
                                 : (scenario.is_serving() ? "serving" : "experiment"));
    o += ",\"episodes\":[";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        if (i != 0) o += ",";
        o += "{\"arm\":" + jstr(r.arm);
        // uint64 seeds exceed JSON's exact-integer range; emit as a string.
        o += ",\"episode_seed\":" + jstr(std::to_string(r.episode_seed));
        if (r.fleet_trace) {
            const auto& t = *r.fleet_trace;
            const auto agg = t.aggregate();
            o += ",\"router\":" + jstr(r.fleet_config ? r.fleet_config->router : "");
            o += ",\"scheduler\":" + jstr(r.fleet_config ? r.fleet_config->scheduler : "");
            o += ",\"devices_n\":" + std::to_string(t.device_names().size());
            o += ",\"makespan_s\":" + jnum(t.makespan_s());
            o += ",\"total_energy_j\":" + jnum(t.total_energy_j());
            // Headline fleet signals, surfaced top-level so JSONL pipelines
            // need not dig into the aggregate object.
            o += ",\"peak_temp_c\":" + jnum(t.peak_temp_c());
            o += ",\"shed_rate\":" + jnum(agg.shed_rate);
            o += ",\"migrations\":" + std::to_string(t.migrations());
            o += ",\"load_skew\":" + jnum(t.load_skew());
            o += ",\"aggregate\":" + serving_summary_json(agg);
            o += ",\"devices\":[";
            for (std::size_t d = 0; d < t.device_names().size(); ++d) {
                if (d != 0) o += ",";
                const auto& stats = t.device_stats(d);
                auto dev = serving_summary_json(t.device_summary(d));
                // Splice the device-only facts into the summary object.
                dev.pop_back();
                dev += ",\"makespan_s\":" + jnum(stats.makespan_s);
                dev += ",\"energy_j\":" + jnum(stats.energy_j);
                dev += ",\"max_queue_depth\":" + std::to_string(stats.max_queue_depth);
                dev += ",\"migrations_out\":" + std::to_string(stats.migrations_out);
                dev += ",\"failed\":" + std::string(stats.failed ? "true" : "false");
                dev += "}";
                o += dev;
            }
            o += "],\"streams\":[";
            for (std::size_t s = 0; s < t.stream_names().size(); ++s) {
                if (s != 0) o += ",";
                o += serving_summary_json(t.stream_summary(s));
            }
            o += "]";
        } else if (r.serving_trace) {
            const auto agg = r.serving_trace->aggregate();
            o += ",\"scheduler\":" +
                 jstr(r.serving_config ? r.serving_config->scheduler : "");
            o += ",\"makespan_s\":" + jnum(r.serving_trace->makespan_s());
            o += ",\"total_energy_j\":" + jnum(r.serving_trace->total_energy_j());
            o += ",\"max_queue_depth\":" +
                 std::to_string(r.serving_trace->max_queue_depth());
            o += ",\"peak_temp_c\":" + jnum(agg.peak_device_temp_c);
            o += ",\"shed_rate\":" + jnum(agg.shed_rate);
            o += ",\"aggregate\":" + serving_summary_json(agg);
            o += ",\"streams\":[";
            const auto names = r.serving_trace->stream_names();
            for (std::size_t s = 0; s < names.size(); ++s) {
                if (s != 0) o += ",";
                o += serving_summary_json(r.serving_trace->stream_summary(s));
            }
            o += "]";
        } else {
            o += ",\"summary\":" + experiment_summary_json(r.trace.summary());
            if (r.paper) {
                o += ",\"paper\":{\"mean_ms\":" + jnum(r.paper->mean_ms);
                o += ",\"std_ms\":" + jnum(r.paper->std_ms);
                o += ",\"satisfaction\":" + jnum(r.paper->satisfaction) + "}";
            }
        }
        o += "}";
    }
    o += "]}";
    return o;
}

void print_profile_report(const std::string& scenario_name) {
    // Front ends may render scenarios from pool threads; serialize the
    // report+reset pair so two scenarios' reports cannot interleave on
    // stderr (or blend counters by resetting mid-report).
    static std::mutex mutex;
    const std::lock_guard<std::mutex> lock(mutex);
    std::fprintf(stderr, "[profile] %s\n%s", scenario_name.c_str(),
                 prof::report_text().c_str());
    prof::reset();
}

void TelemetrySink::consume(const Scenario& scenario,
                            const std::vector<EpisodeResult>& results) {
    const std::string base = dir_ + "/" + artifact_name(scenario.name);
    // Arm names are sanitized like CSV trace files; suffix repeats in
    // declaration order so every episode keeps its own directory.
    std::set<std::string> used;
    for (const auto& r : results) {
        if (!r.telemetry) continue;
        const std::string stem = artifact_name(r.arm);
        std::string name = stem;
        for (std::size_t n = 2; !used.insert(name).second; ++n) {
            name = stem + "_" + std::to_string(n);
        }
        const auto dir = base + "/" + name;
        r.telemetry->write(dir);
        if (announce_) {
            std::fprintf(stderr, "[telemetry] wrote %s (%zu events, %zu breaches)\n",
                         dir.c_str(), r.telemetry->event_count(),
                         r.telemetry->breach_count());
        }
    }
}

} // namespace lotus::harness
