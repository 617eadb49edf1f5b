#include "runtime/trace.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/stats.hpp"

namespace lotus::runtime {

void Trace::add(TraceRow row) {
    rows_.push_back(std::move(row));
}

std::vector<double> Trace::latencies_ms() const {
    std::vector<double> out;
    out.reserve(rows_.size());
    for (const auto& r : rows_) out.push_back(r.latency_s * 1e3);
    return out;
}

std::vector<double> Trace::device_temps() const {
    std::vector<double> out;
    out.reserve(rows_.size());
    for (const auto& r : rows_) out.push_back(device_temp_c(r.cpu_temp, r.gpu_temp));
    return out;
}

std::vector<double> Trace::proposals() const {
    std::vector<double> out;
    out.reserve(rows_.size());
    for (const auto& r : rows_) out.push_back(static_cast<double>(r.proposals));
    return out;
}

Summary Trace::summary() const {
    return summary(0, rows_.size());
}

Summary Trace::summary(std::size_t first, std::size_t last) const {
    last = std::min(last, rows_.size());
    if (first >= last) throw std::invalid_argument("Trace::summary: empty range");

    util::RunningStats latency;
    util::RunningStats cpu_temp;
    util::RunningStats gpu_temp;
    util::RunningStats device_temp;
    util::RunningStats proposals;
    double max_dev_temp = -1e300;
    std::size_t satisfied = 0;
    std::size_t throttled = 0;
    double energy = 0.0;
    double wall = 0.0;

    for (std::size_t i = first; i < last; ++i) {
        const auto& r = rows_[i];
        latency.add(r.latency_s);
        cpu_temp.add(r.cpu_temp);
        gpu_temp.add(r.gpu_temp);
        const double dev = device_temp_c(r.cpu_temp, r.gpu_temp);
        device_temp.add(dev);
        max_dev_temp = std::max(max_dev_temp, dev);
        proposals.add(static_cast<double>(r.proposals));
        if (util::meets_limit(r.latency_s, r.constraint_s)) ++satisfied;
        if (r.throttled) ++throttled;
        energy += r.energy_j;
        wall += r.latency_s;
    }

    const auto n = last - first;
    Summary s;
    s.frames = n;
    s.mean_latency_s = latency.mean();
    s.std_latency_s = latency.stddev();
    s.satisfaction_rate = static_cast<double>(satisfied) / static_cast<double>(n);
    s.mean_cpu_temp = cpu_temp.mean();
    s.mean_gpu_temp = gpu_temp.mean();
    s.mean_device_temp = device_temp.mean();
    s.max_device_temp = max_dev_temp;
    s.throttled_fraction = static_cast<double>(throttled) / static_cast<double>(n);
    s.mean_power_w = wall > 0.0 ? energy / wall : 0.0;
    s.mean_proposals = proposals.mean();
    return s;
}

void Trace::write_csv(const std::string& path) const {
    util::CsvWriter csv(path, {"iteration", "start_time_s", "latency_ms", "stage1_ms",
                               "stage2_ms", "proposals", "cpu_temp", "gpu_temp", "cpu_level",
                               "gpu_level", "constraint_ms", "throttled", "energy_j",
                               "ambient_c", "dataset"});
    for (const auto& r : rows_) {
        csv.row(std::vector<std::string>{
            std::to_string(r.iteration),
            util::format_double(r.start_time_s, 4),
            util::format_double(r.latency_s * 1e3, 3),
            util::format_double(r.stage1_s * 1e3, 3),
            util::format_double(r.stage2_s * 1e3, 3),
            std::to_string(r.proposals),
            util::format_double(r.cpu_temp, 3),
            util::format_double(r.gpu_temp, 3),
            std::to_string(r.cpu_level),
            std::to_string(r.gpu_level),
            util::format_double(r.constraint_s * 1e3, 3),
            r.throttled ? "1" : "0",
            util::format_double(r.energy_j, 4),
            util::format_double(r.ambient_c, 2),
            r.dataset,
        });
    }
    csv.close();
}

} // namespace lotus::runtime
