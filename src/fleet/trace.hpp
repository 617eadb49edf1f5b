#pragma once
// Fleet-level request ledger and its summaries.
//
// The fleet analogue of serving::ServingTrace: one row per request with the
// device it landed on (and whether it got there by migration), summarised
// three ways -- fleet-wide, per device, per stream. Reuses the
// serving::ServingSummary vocabulary (p50/p95/p99, miss/shed rates,
// throughput, energy/request, peak temperature) so sinks speak one serving
// language, and adds the fleet-only signals: load-balance skew across the
// pool, migration counts, and the fleet peak temperature (max over devices,
// tracked across the whole run -- idle cooling included -- not just at
// request completions). As in ServingTrace, every summary is kept live as
// requests are added, and storing the rows is a separate choice.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serving/trace.hpp"

namespace lotus::fleet {

/// Ledger entry for one request: the serving record plus fleet routing
/// facts. device == kNoDevice marks a dispatcher-level shed (no live device
/// was available to take the request).
struct FleetRecord {
    serving::ServingRecord row;
    std::size_t device = 0;
    /// The request was re-routed at least once (off a throttled or failed
    /// device) before this terminal record.
    bool migrated = false;

    static constexpr std::size_t kNoDevice = static_cast<std::size_t>(-1);
};

/// Per-device facts the ledger rows cannot carry (set once by the engine).
struct DeviceStats {
    /// Device-local clock at the end of the run [s].
    double makespan_s = 0.0;
    /// Total device energy, idle included [J].
    double energy_j = 0.0;
    /// Peak device temperature over the whole run [deg C].
    double peak_temp_c = 0.0;
    std::size_t max_queue_depth = 0;
    std::uint64_t thermal_steps = 0;
    /// Requests re-routed *off* this device (throttle migration or failure
    /// drain).
    std::size_t migrations_out = 0;
    /// The device was withdrawn (FleetDevice::fail_at_s) during the run.
    bool failed = false;
};

class FleetTrace {
public:
    FleetTrace() = default;
    /// add() always feeds the fleet-wide, per-device and per-stream
    /// serving::SummaryAccumulators that every summary and load_skew read.
    /// `capture_rows` only decides whether the FleetRecord rows are stored
    /// too; without them the ledger (records(), write_csv, chart columns) is
    /// unavailable.
    FleetTrace(std::vector<std::string> device_names, std::vector<std::string> stream_names,
               bool capture_rows = true);

    void add(FleetRecord record);
    void reserve(std::size_t n) {
        if (capture_rows_) records_.reserve(n);
    }

    [[nodiscard]] bool capture_rows() const noexcept { return capture_rows_; }
    /// Requests added (counted in both capture modes).
    [[nodiscard]] std::size_t size() const noexcept { return aggregate_acc_.requests(); }
    [[nodiscard]] bool empty() const noexcept { return size() == 0; }
    [[nodiscard]] const std::vector<FleetRecord>& records() const noexcept {
        return records_;
    }
    [[nodiscard]] const std::vector<std::string>& device_names() const noexcept {
        return device_names_;
    }
    [[nodiscard]] const std::vector<std::string>& stream_names() const noexcept {
        return stream_names_;
    }

    void set_device_stats(std::size_t device, DeviceStats stats);
    [[nodiscard]] const DeviceStats& device_stats(std::size_t device) const;

    /// Wall-clock span of the fleet run (max over device makespans) [s].
    void set_makespan(double seconds) noexcept { makespan_s_ = seconds; }
    [[nodiscard]] double makespan_s() const noexcept { return makespan_s_; }

    /// Total pool energy, idle included [J].
    [[nodiscard]] double total_energy_j() const noexcept;
    /// Max over devices of the run-long peak temperature [deg C].
    [[nodiscard]] double peak_temp_c() const noexcept;
    /// Total requests re-routed off a device (throttle or failure).
    [[nodiscard]] std::size_t migrations() const noexcept;
    /// Load-balance skew: coefficient of variation (stddev / mean) of the
    /// per-device served counts, over devices that were never withdrawn.
    /// 0 = perfectly even; grows as placement concentrates load.
    [[nodiscard]] double load_skew() const;

    /// Fleet-wide summary (stream label "fleet"); energy/request charges the
    /// whole pool's energy, idle burn included.
    [[nodiscard]] serving::ServingSummary aggregate() const;
    /// Summary over one device (labelled with the device id); peak
    /// temperature is the run-long device peak, throughput uses the fleet
    /// makespan.
    [[nodiscard]] serving::ServingSummary device_summary(std::size_t device) const;
    /// Summary over one client stream, across all devices it landed on.
    [[nodiscard]] serving::ServingSummary stream_summary(std::size_t stream) const;
    /// Aggregate, then one summary per device, then one per stream.
    [[nodiscard]] std::vector<serving::ServingSummary> all_summaries() const;

    // Column extraction for charts (request completion order). Empty in
    // summary-only mode.
    [[nodiscard]] std::vector<double> e2e_ms() const;
    [[nodiscard]] std::vector<double> device_temps() const;

    /// Dump the per-request ledger (device + migration columns included).
    /// Throws std::logic_error in summary-only mode.
    void write_csv(const std::string& path) const;

private:
    std::vector<std::string> device_names_;
    std::vector<std::string> stream_names_;
    std::vector<FleetRecord> records_;
    std::vector<DeviceStats> device_stats_;
    bool capture_rows_ = true;
    serving::SummaryAccumulator aggregate_acc_;
    std::vector<serving::SummaryAccumulator> device_accs_;
    std::vector<serving::SummaryAccumulator> stream_accs_;
    double makespan_s_ = 0.0;
};

} // namespace lotus::fleet
