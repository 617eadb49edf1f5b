#include "fleet/trace.hpp"

#include <algorithm>
#include <stdexcept>

#include "serving/request.hpp"
#include "util/stats.hpp"

namespace lotus::fleet {

FleetTrace::FleetTrace(std::vector<std::string> device_names,
                       std::vector<std::string> stream_names, bool capture_rows)
    : Ledger(std::move(stream_names), capture_rows),
      device_names_(std::move(device_names)),
      device_stats_(device_names_.size()),
      device_accs_(device_names_.size()) {}

void FleetTrace::add(serving::ServingRecord record) {
    if (record.device != serving::kNoDevice && record.device >= device_names_.size()) {
        throw std::out_of_range("FleetTrace::add: unknown device index");
    }
    Ledger::add(record); // checks the stream index before anything changes
    if (record.device != serving::kNoDevice) device_accs_[record.device].add(record);
}

void FleetTrace::set_device_stats(std::size_t device, DeviceStats stats) {
    device_stats_.at(device) = stats;
}

const DeviceStats& FleetTrace::device_stats(std::size_t device) const {
    return device_stats_.at(device);
}

double FleetTrace::total_energy_j() const noexcept {
    double total = 0.0;
    for (const auto& d : device_stats_) total += d.energy_j;
    return total;
}

double FleetTrace::peak_temp_c() const noexcept {
    double peak = 0.0;
    for (const auto& d : device_stats_) peak = std::max(peak, d.peak_temp_c);
    return peak;
}

std::size_t FleetTrace::migrations() const noexcept {
    std::size_t total = 0;
    for (const auto& d : device_stats_) total += d.migrations_out;
    return total;
}

double FleetTrace::load_skew() const {
    util::RunningStats stats;
    for (std::size_t d = 0; d < device_accs_.size(); ++d) {
        if (!device_stats_[d].failed) stats.add(static_cast<double>(device_accs_[d].served()));
    }
    const double mean = stats.mean();
    return mean > 0.0 ? stats.stddev() / mean : 0.0;
}

serving::ServingSummary FleetTrace::aggregate() const {
    auto s = summarize_all("fleet");
    // Charge the whole pool's energy (idle included) to the served load,
    // and report the run-long fleet peak rather than the completion-time
    // peak.
    if (s.served > 0 && total_energy_j() > 0.0) {
        s.energy_per_req_j = total_energy_j() / static_cast<double>(s.served);
    }
    s.peak_device_temp_c = std::max(s.peak_device_temp_c, peak_temp_c());
    return s;
}

serving::ServingSummary FleetTrace::device_summary(std::size_t device) const {
    if (device >= device_names_.size()) {
        throw std::out_of_range("FleetTrace::device_summary: unknown device index");
    }
    auto s = device_accs_[device].summarize(device_names_[device], makespan_s());
    const auto& stats = device_stats_[device];
    s.peak_device_temp_c = std::max(s.peak_device_temp_c, stats.peak_temp_c);
    if (s.served > 0 && stats.energy_j > 0.0) {
        s.energy_per_req_j = stats.energy_j / static_cast<double>(s.served);
    }
    return s;
}

std::vector<serving::ServingSummary> FleetTrace::all_summaries() const {
    std::vector<serving::ServingSummary> out{aggregate()};
    for (std::size_t d = 0; d < device_names_.size(); ++d) {
        out.push_back(device_summary(d));
    }
    append_stream_summaries(out);
    return out;
}

void FleetTrace::write_csv(const std::string& path) const {
    write_ledger_csv(path, {"device", "migrated"},
                     [this](const serving::ServingRecord& r, std::vector<std::string>& cells) {
                         cells.push_back(r.device == serving::kNoDevice ? "-"
                                                                         : device_names_[r.device]);
                         cells.push_back(r.migrated ? "1" : "0");
                     });
}

} // namespace lotus::fleet
