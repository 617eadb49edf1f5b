#include "fleet/trace.hpp"

#include <algorithm>
#include <stdexcept>

#include "runtime/trace.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

namespace lotus::fleet {

FleetTrace::FleetTrace(std::vector<std::string> device_names,
                       std::vector<std::string> stream_names, bool capture_rows)
    : device_names_(std::move(device_names)), stream_names_(std::move(stream_names)),
      device_stats_(device_names_.size()),
      capture_rows_(capture_rows),
      device_accs_(device_names_.size()),
      stream_accs_(stream_names_.size()) {}

void FleetTrace::add(FleetRecord record) {
    if (record.device != FleetRecord::kNoDevice && record.device >= device_names_.size()) {
        throw std::out_of_range("FleetTrace::add: unknown device index");
    }
    if (record.row.stream >= stream_names_.size()) {
        throw std::out_of_range("FleetTrace::add: unknown stream index");
    }
    aggregate_acc_.add(record.row);
    if (record.device != FleetRecord::kNoDevice) {
        device_accs_[record.device].add(record.row);
    }
    stream_accs_[record.row.stream].add(record.row);
    if (capture_rows_) records_.push_back(std::move(record));
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
    auto s = aggregate_acc_.summarize("fleet", makespan_s_);
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
    auto s = device_accs_[device].summarize(device_names_[device], makespan_s_);
    const auto& stats = device_stats_[device];
    s.peak_device_temp_c = std::max(s.peak_device_temp_c, stats.peak_temp_c);
    if (s.served > 0 && stats.energy_j > 0.0) {
        s.energy_per_req_j = stats.energy_j / static_cast<double>(s.served);
    }
    return s;
}

serving::ServingSummary FleetTrace::stream_summary(std::size_t stream) const {
    if (stream >= stream_names_.size()) {
        throw std::out_of_range("FleetTrace::stream_summary: unknown stream index");
    }
    return stream_accs_[stream].summarize(stream_names_[stream], makespan_s_);
}

std::vector<serving::ServingSummary> FleetTrace::all_summaries() const {
    std::vector<serving::ServingSummary> out;
    out.reserve(1 + device_names_.size() + stream_names_.size());
    out.push_back(aggregate());
    for (std::size_t d = 0; d < device_names_.size(); ++d) {
        out.push_back(device_summary(d));
    }
    for (std::size_t s = 0; s < stream_names_.size(); ++s) {
        out.push_back(stream_summary(s));
    }
    return out;
}

std::vector<double> FleetTrace::e2e_ms() const {
    std::vector<double> out;
    out.reserve(records_.size());
    for (const auto& r : records_) out.push_back(r.row.e2e_s * 1e3);
    return out;
}

std::vector<double> FleetTrace::device_temps() const {
    std::vector<double> out;
    out.reserve(records_.size());
    for (const auto& r : records_) {
        out.push_back(runtime::device_temp_c(r.row.cpu_temp, r.row.gpu_temp));
    }
    return out;
}

void FleetTrace::write_csv(const std::string& path) const {
    if (!capture_rows_) {
        throw std::logic_error(
            "FleetTrace::write_csv: summary-only trace holds no ledger rows");
    }
    util::CsvWriter csv(path, {"request_id", "stream", "device", "migrated", "arrival_s",
                               "start_s", "queue_wait_ms", "service_ms", "e2e_ms", "slo_ms",
                               "shed", "missed", "throttled", "proposals", "cpu_temp",
                               "gpu_temp", "energy_j"});
    for (const auto& r : records_) {
        csv.row(std::vector<std::string>{
            std::to_string(r.row.request_id),
            stream_names_[r.row.stream],
            r.device == FleetRecord::kNoDevice ? "-" : device_names_[r.device],
            r.migrated ? "1" : "0",
            util::format_double(r.row.arrival_s, 4),
            util::format_double(r.row.start_s, 4),
            util::format_double(r.row.queue_wait_s * 1e3, 3),
            util::format_double(r.row.service_s * 1e3, 3),
            util::format_double(r.row.e2e_s * 1e3, 3),
            util::format_double(r.row.slo_s * 1e3, 3),
            r.row.shed ? "1" : "0",
            r.row.missed ? "1" : "0",
            r.row.throttled ? "1" : "0",
            std::to_string(r.row.proposals),
            util::format_double(r.row.cpu_temp, 3),
            util::format_double(r.row.gpu_temp, 3),
            util::format_double(r.row.energy_j, 4),
        });
    }
    csv.close();
}

} // namespace lotus::fleet
