#pragma once
// Fleet-level request ledger and its summaries.
//
// The fleet view of serving::Ledger, the same ledger ServingTrace is a view
// of: one serving::ServingRecord per request, whose `device` and `migrated`
// fields say where it landed and whether it got there by migration. The
// ledger summarises fleet-wide and per stream; this view adds the per-device
// summaries and the fleet-only signals: load-balance skew across the pool,
// migration counts, and the fleet peak temperature (max over devices,
// tracked across the whole run -- idle cooling included -- not just at
// request completions). As in ServingTrace, every summary is kept live as
// requests are added, and storing the rows is a separate choice.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serving/trace.hpp"

namespace lotus::fleet {

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

class FleetTrace : public serving::Ledger {
public:
    FleetTrace() = default;
    /// add() always feeds the ledger's fleet-wide and per-stream
    /// accumulators and this view's per-device ones, which every summary and
    /// load_skew read. `capture_rows` only decides whether the rows are
    /// stored too (see serving::Ledger).
    FleetTrace(std::vector<std::string> device_names, std::vector<std::string> stream_names,
               bool capture_rows = true);

    /// Throws std::out_of_range on an unknown device index (other than
    /// serving::kNoDevice, a router-level shed) or stream index, before
    /// anything changes.
    void add(serving::ServingRecord record);

    [[nodiscard]] const std::vector<std::string>& device_names() const noexcept {
        return device_names_;
    }

    void set_device_stats(std::size_t device, DeviceStats stats);
    [[nodiscard]] const DeviceStats& device_stats(std::size_t device) const;

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
    /// Aggregate, then one summary per device, then one per stream.
    [[nodiscard]] std::vector<serving::ServingSummary> all_summaries() const;

    /// Dump the per-request ledger (device + migration columns included).
    /// Throws std::logic_error in summary-only mode.
    void write_csv(const std::string& path) const;

private:
    std::vector<std::string> device_names_;
    std::vector<DeviceStats> device_stats_;
    std::vector<serving::SummaryAccumulator> device_accs_;
};

} // namespace lotus::fleet
