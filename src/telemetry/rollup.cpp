#include "telemetry/rollup.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string_view>

#include "telemetry/recorder.hpp"
#include "util/build_info.hpp"
#include "util/stats.hpp"

namespace lotus::telemetry {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// util::percentiles over `values`, or NaN (emitted as null) for every
/// requested percentile when there are no samples.
std::vector<double> quantiles(const std::vector<double>& values,
                              const std::vector<double>& ps) {
    if (values.empty()) return std::vector<double>(ps.size(), kNaN);
    return util::percentiles(values, ps);
}

/// `,"key":` appended to `o`, for a key that needs no escaping.
void append_field_key(std::string& o, std::string_view key) {
    o += ",\"";
    o += key;
    o += "\":";
}

/// `,"key":v` appended to `o`.
void append_num_field(std::string& o, std::string_view key, double v) {
    append_field_key(o, key);
    append_jnum(o, v);
}

/// `,"key":n` appended to `o`.
template <class Int>
void append_int_field(std::string& o, std::string_view key, Int n) {
    append_field_key(o, key);
    append_int(o, n);
}

/// One per-window quantile object: sample count, exact extrema (p0/p100)
/// and p50/p95/p99, all from one sort; null fields when empty.
void append_quantiles(std::string& o, const std::vector<double>& values) {
    const auto q = quantiles(values, {0.0, 50.0, 95.0, 99.0, 100.0});
    o += "{\"count\":";
    append_int(o, values.size());
    append_num_field(o, "min", q[0]);
    append_num_field(o, "max", q[4]);
    append_num_field(o, "p50", q[1]);
    append_num_field(o, "p95", q[2]);
    append_num_field(o, "p99", q[3]);
    o += '}';
}

/// series[w] for a window at or after the series' last one -- the case of
/// every in-order sample -- found without a tree search.
template <class Series>
auto& window_at(Series& series, Rollup::WindowId w) {
    if (!series.empty()) {
        const auto last = std::prev(series.end());
        if (last->first == w) return last->second;
        if (last->first < w) return series.try_emplace(series.end(), w)->second;
    }
    return series[w];
}

void append(std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
}

/// One scoreboard row being accumulated: the merge target for any subset
/// of windows (a device, a stream, or the whole fleet).
struct Agg {
    std::uint64_t ok = 0;
    std::uint64_t late = 0;
    std::uint64_t shed = 0;
    std::vector<double> e2e_ms;
    std::vector<double> queue_wait_ms;
    double energy_j = 0.0;
    double throttle_s = 0.0;
    std::vector<double> temp_c;
    double headroom_min_c = std::numeric_limits<double>::infinity();
    std::uint64_t breaches = 0;

    [[nodiscard]] std::uint64_t requests() const { return ok + late + shed; }
    [[nodiscard]] std::uint64_t served() const { return ok + late; }
    [[nodiscard]] std::uint64_t missed() const { return late + shed; }

    void add(const Rollup::StreamWindow& w) {
        ok += w.ok;
        late += w.late;
        shed += w.shed;
        append(e2e_ms, w.e2e_ms);
        append(queue_wait_ms, w.queue_wait_ms);
    }
    void add(const Rollup::DeviceWindow& w) {
        energy_j += w.energy_j;
        throttle_s += w.throttle_s;
        append(temp_c, w.temp_c);
        headroom_min_c = std::min(headroom_min_c, w.headroom_min_c);
    }
    void add(const Agg& a) {
        ok += a.ok;
        late += a.late;
        shed += a.shed;
        append(e2e_ms, a.e2e_ms);
        append(queue_wait_ms, a.queue_wait_ms);
        energy_j += a.energy_j;
        throttle_s += a.throttle_s;
        append(temp_c, a.temp_c);
        headroom_min_c = std::min(headroom_min_c, a.headroom_min_c);
        breaches += a.breaches;
    }

    /// The shared scoreboard fields appended to `o`, each with a leading
    /// comma. Rates and quantiles are null when undefined (no requests / no
    /// samples) rather than fabricated.
    void append_fields(std::string& o) const {
        const auto n = requests();
        const double dn = static_cast<double>(n);
        append_int_field(o, "requests", n);
        append_int_field(o, "served", served());
        append_int_field(o, "shed", shed);
        append_int_field(o, "missed", missed());
        append_num_field(o, "attainment",
                         n > 0 ? static_cast<double>(n - missed()) / dn : kNaN);
        append_num_field(o, "miss_rate", n > 0 ? static_cast<double>(missed()) / dn : kNaN);
        append_num_field(o, "shed_rate", n > 0 ? static_cast<double>(shed) / dn : kNaN);
        const auto e2e = quantiles(e2e_ms, {50.0, 95.0, 99.0});
        append_num_field(o, "e2e_p50_ms", e2e[0]);
        append_num_field(o, "e2e_p95_ms", e2e[1]);
        append_num_field(o, "e2e_p99_ms", e2e[2]);
        append_num_field(o, "queue_wait_p95_ms", quantiles(queue_wait_ms, {95.0})[0]);
        append_num_field(o, "energy_j", energy_j);
        append_num_field(o, "throttle_s", throttle_s);
        append_num_field(
            o, "peak_temp_c",
            temp_c.empty() ? kNaN : *std::max_element(temp_c.begin(), temp_c.end()));
        append_num_field(o, "headroom_min_c", headroom_min_c); // inf -> null
        append_int_field(o, "breaches", breaches);
    }
};

} // namespace

Rollup::Rollup(double window_s) : window_s_(window_s) {
    if (!(window_s > 0.0)) {
        throw std::invalid_argument("Rollup: window_s must be positive");
    }
}

Rollup::WindowId Rollup::window_of(double t_s) const {
    return static_cast<WindowId>(std::floor(t_s / window_s_));
}

Rollup::DeviceSeries& Rollup::device_series(const std::string& device) {
    if (last_series_ == nullptr || *last_device_ != device) {
        const auto it = devices_.try_emplace(device).first;
        last_device_ = &it->first;
        last_series_ = &it->second;
    }
    return *last_series_;
}

void Rollup::record_request(const std::string& device, const std::string& stream,
                            double t_s, Outcome outcome, double e2e_ms,
                            double wait_ms) {
    auto& win = streams_[device][stream][window_of(t_s)];
    switch (outcome) {
        case Outcome::ok:
            ++win.ok;
            win.e2e_ms.push_back(e2e_ms);
            break;
        case Outcome::late:
            ++win.late;
            win.e2e_ms.push_back(e2e_ms);
            break;
        case Outcome::shed:
            ++win.shed;
            break;
    }
    win.queue_wait_ms.push_back(wait_ms);
}

void Rollup::record_device_span(const std::string& device, double from_s,
                                double to_s, std::size_t opp_level,
                                bool throttled, double energy_j) {
    if (!(to_s > from_s)) return;
    const double total = to_s - from_s;
    auto& series = device_series(device);
    double t = from_s;
    WindowId w = window_of(from_s);
    while (t < to_s) {
        const double wend = (static_cast<double>(w) + 1.0) * window_s_;
        const double seg_end = std::min(to_s, wend);
        const double seg = seg_end - t;
        if (seg > 0.0) {
            auto& win = window_at(series, w);
            win.opp_residency_s[opp_level] += seg;
            if (throttled) win.throttle_s += seg;
            win.energy_j += energy_j * (seg / total);
        }
        t = seg_end;
        ++w;
    }
}

void Rollup::record_temp_sample(const std::string& device, double t_s,
                                double temp_c, double headroom_c) {
    auto& win = window_at(device_series(device), window_of(t_s));
    win.temp_c.push_back(temp_c);
    win.headroom_min_c = std::min(win.headroom_min_c, headroom_c);
}

std::string Rollup::rollup_json() const {
    std::string o = "{";
    o += util::build_info_json_fields();
    append_num_field(o, "window_s", window_s_);
    o += ",\"devices\":[";
    bool first_dev = true;
    for (const auto& [device, series] : devices_) {
        if (!first_dev) o += ',';
        first_dev = false;
        o += "{\"device\":";
        append_jstr(o, device);
        o += ",\"windows\":[";
        bool first_win = true;
        for (const auto& [window, win] : series) {
            if (!first_win) o += ',';
            first_win = false;
            o += "{\"window\":";
            append_int(o, window);
            append_num_field(o, "start_s", static_cast<double>(window) * window_s_);
            append_num_field(o, "energy_j", win.energy_j);
            append_num_field(o, "throttle_s", win.throttle_s);
            o += ",\"opp_residency_s\":[";
            bool first_opp = true;
            for (const auto& [level, secs] : win.opp_residency_s) {
                if (!first_opp) o += ',';
                first_opp = false;
                o += '[';
                append_int(o, level);
                o += ',';
                append_jnum(o, secs);
                o += ']';
            }
            o += ']';
            append_num_field(o, "headroom_min_c", win.headroom_min_c);
            o += ",\"temp_c\":";
            append_quantiles(o, win.temp_c);
            o += '}';
        }
        o += "]}";
    }
    o += "],\"streams\":[";
    bool first_stream = true;
    for (const auto& [device, by_stream] : streams_) {
        for (const auto& [stream, series] : by_stream) {
            if (!first_stream) o += ',';
            first_stream = false;
            o += "{\"device\":";
            append_jstr(o, device);
            o += ",\"stream\":";
            append_jstr(o, stream);
            o += ",\"windows\":[";
            bool first_win = true;
            for (const auto& [window, win] : series) {
                if (!first_win) o += ',';
                first_win = false;
                o += "{\"window\":";
                append_int(o, window);
                append_num_field(o, "start_s", static_cast<double>(window) * window_s_);
                append_int_field(o, "ok", win.ok);
                append_int_field(o, "late", win.late);
                append_int_field(o, "shed", win.shed);
                append_int_field(o, "served", win.ok + win.late);
                append_int_field(o, "missed", win.late + win.shed);
                append_int_field(o, "requests", win.ok + win.late + win.shed);
                o += ",\"e2e_ms\":";
                append_quantiles(o, win.e2e_ms);
                o += ",\"queue_wait_ms\":";
                append_quantiles(o, win.queue_wait_ms);
                o += '}';
            }
            o += "]}";
        }
    }
    o += "]}";
    return o;
}

std::string Rollup::health_json(
    const std::map<std::string, std::uint64_t>& breaches_by_process) const {
    // Scoreboard rows: per device (request counts joined with physical
    // state), per stream (merged across devices), and the fleet total.
    std::map<std::string, Agg> by_device;
    std::map<std::string, Agg> by_stream;
    std::set<WindowId> window_ids;
    for (const auto& [device, by_stream_series] : streams_) {
        for (const auto& [stream, series] : by_stream_series) {
            for (const auto& [window, win] : series) {
                by_device[device].add(win);
                by_stream[stream].add(win);
                window_ids.insert(window);
            }
        }
    }
    for (const auto& [device, series] : devices_) {
        for (const auto& [window, win] : series) {
            by_device[device].add(win);
            window_ids.insert(window);
        }
    }
    for (auto& [device, agg] : by_device) {
        const auto it = breaches_by_process.find(device);
        if (it != breaches_by_process.end()) agg.breaches = it->second;
    }

    Agg fleet;
    for (const auto& [device, agg] : by_device) fleet.add(agg);
    // Breach processes with no rollup row (e.g. a track that never served
    // a request) still count toward the fleet total.
    for (const auto& [process, count] : breaches_by_process) {
        if (by_device.find(process) == by_device.end()) fleet.breaches += count;
    }

    // Load-balance skew over real devices (ones with physical series;
    // excludes pseudo-devices like the fleet router's shed ledger).
    util::RunningStats served_stats;
    for (const auto& [device, series] : devices_) {
        const auto it = by_device.find(device);
        const double served =
            it != by_device.end() ? static_cast<double>(it->second.served()) : 0.0;
        served_stats.add(served);
    }
    const double mean = served_stats.mean();
    const double skew = mean > 0.0 ? served_stats.stddev() / mean : 0.0;

    std::string o = "{";
    o += util::build_info_json_fields();
    append_num_field(o, "window_s", window_s_);
    append_int_field(o, "windows", window_ids.size());
    o += ",\"fleet\":{\"devices\":";
    append_int(o, devices_.size());
    fleet.append_fields(o);
    append_num_field(o, "load_skew", skew);
    o += "},\"devices\":[";
    bool first = true;
    for (const auto& [device, agg] : by_device) {
        if (!first) o += ',';
        first = false;
        o += "{\"device\":";
        append_jstr(o, device);
        agg.append_fields(o);
        o += '}';
    }
    o += "],\"streams\":[";
    first = true;
    for (const auto& [stream, agg] : by_stream) {
        if (!first) o += ',';
        first = false;
        o += "{\"stream\":";
        append_jstr(o, stream);
        agg.append_fields(o);
        o += '}';
    }
    o += "]}";
    return o;
}

} // namespace lotus::telemetry
