#pragma once
// Streaming fixed-window rollups: the aggregation layer between the raw
// telemetry recorder and fleet-scale analysis. Every request outcome,
// device power/OPP span and temperature sample is folded online into
// per-(sim-time window x device x stream) accumulators: integer counters,
// pro-rata energy/residency sums, and the exact samples behind each
// quantile (one double per request or temperature sample, far less than
// the event log the same recorder keeps).
//
// Window w covers sim time [w * window_s, (w + 1) * window_s); ids are
// floor(t / window_s). All keys live in std::map so every export walks in
// deterministic (device, stream, window) order -- rollup.json and
// health.json are byte-identical across --jobs counts for the same
// episode, like every other telemetry artifact.
//
// Every quantile -- per window in rollup.json and per scoreboard row in
// health.json -- comes from util::percentiles, the function and rank
// convention the serving summaries use. health.json merges windows by
// concatenating their samples; sorting makes the merge order irrelevant,
// so a row's e2e p50/p95/p99 equal the matching episode summary's bit for
// bit.

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace lotus::telemetry {

class Rollup {
public:
    enum class Outcome {
        ok,   ///< completed within its SLO
        late, ///< completed after its SLO (counts as served AND missed)
        shed, ///< dropped by admission control (counts as missed)
    };

    using WindowId = std::int64_t;

    /// Per-window request accounting for one (device, stream) pair.
    struct StreamWindow {
        std::uint64_t ok = 0;
        std::uint64_t late = 0;
        std::uint64_t shed = 0;
        std::vector<double> e2e_ms;        ///< completions only (ok + late)
        std::vector<double> queue_wait_ms; ///< every outcome, sheds included
    };

    /// Per-window physical accounting for one device.
    struct DeviceWindow {
        double energy_j = 0.0;
        double throttle_s = 0.0;
        /// Sim seconds spent at each OPP ladder level.
        std::map<std::size_t, double> opp_residency_s;
        std::vector<double> temp_c;
        /// Exact minimum thermal headroom (trip - temp) seen in-window;
        /// +inf (emitted as null) until the first sample lands.
        double headroom_min_c = std::numeric_limits<double>::infinity();
    };

    explicit Rollup(double window_s);
    // Not copyable: the last-device cache points into its own map.
    Rollup(const Rollup&) = delete;
    Rollup& operator=(const Rollup&) = delete;

    [[nodiscard]] double window_s() const noexcept { return window_s_; }

    /// Fold one request outcome in at its completion (or shed) time.
    /// e2e_ms is recorded only for completions; wait_ms for every outcome.
    void record_request(const std::string& device, const std::string& stream,
                        double t_s, Outcome outcome, double e2e_ms,
                        double wait_ms);

    /// Fold a device activity span [from_s, to_s) at one OPP level in,
    /// splitting the duration and the span's energy pro-rata across the
    /// windows it crosses. No-op when to_s <= from_s.
    void record_device_span(const std::string& device, double from_s,
                            double to_s, std::size_t opp_level, bool throttled,
                            double energy_j);

    /// Fold one temperature sample (and its thermal headroom) in.
    void record_temp_sample(const std::string& device, double t_s,
                            double temp_c, double headroom_c);

    using StreamSeries = std::map<WindowId, StreamWindow>;
    using DeviceSeries = std::map<WindowId, DeviceWindow>;

    [[nodiscard]] const std::map<std::string, std::map<std::string, StreamSeries>>&
    streams() const noexcept {
        return streams_;
    }
    [[nodiscard]] const std::map<std::string, DeviceSeries>& devices() const noexcept {
        return devices_;
    }

    /// rollup.json: the full windowed time series (counters, residency and
    /// count/min/max/p50/p95/p99 quantile objects per window),
    /// schema-stamped via util::build_info.
    [[nodiscard]] std::string rollup_json() const;

    /// health.json: the fleet health scoreboard -- per-device, per-stream
    /// and fleet-wide SLO attainment, latency quantiles over the merged
    /// window samples, thermal headroom minima, energy/throttle totals, breach
    /// counts (keyed by the recorder's per-process breach ledger) and
    /// load-balance skew (stddev/mean of per-device served, the
    /// FleetTrace::load_skew convention).
    [[nodiscard]] std::string health_json(
        const std::map<std::string, std::uint64_t>& breaches_by_process) const;

private:
    [[nodiscard]] WindowId window_of(double t_s) const;
    /// devices_[device], remembering it: consecutive spans and samples
    /// come from one device, so most calls skip the map lookup.
    DeviceSeries& device_series(const std::string& device);

    double window_s_;
    std::map<std::string, std::map<std::string, StreamSeries>> streams_;
    std::map<std::string, DeviceSeries> devices_;
    const std::string* last_device_ = nullptr; // key of last_series_ in devices_
    DeviceSeries* last_series_ = nullptr;
};

} // namespace lotus::telemetry
