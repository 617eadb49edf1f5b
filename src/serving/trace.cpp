#include "serving/trace.hpp"

#include <algorithm>
#include <stdexcept>

#include "runtime/trace.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

namespace lotus::serving {

void SummaryAccumulator::add(const ServingRecord& record) {
    ++requests_;
    const double dev = runtime::device_temp_c(record.cpu_temp, record.gpu_temp);
    device_temp_.add(dev);
    peak_device_temp_c_ = std::max(peak_device_temp_c_, dev);
    if (record.shed) {
        ++shed_;
    } else {
        ++served_;
        served_e2e_ms_.push_back(record.e2e_s * 1e3);
        wait_ms_.add(record.queue_wait_s * 1e3);
        served_energy_j_ += record.energy_j;
    }
    if (record.missed) ++missed_;
}

ServingSummary SummaryAccumulator::summarize(std::string label, double makespan_s) const {
    ServingSummary s;
    s.stream = std::move(label);
    s.requests = requests_;
    if (requests_ == 0) return s;

    s.served = served_;
    s.shed = shed_;
    s.missed = missed_;
    s.peak_device_temp_c = peak_device_temp_c_;
    if (!served_e2e_ms_.empty()) {
        const auto pct = util::percentiles(served_e2e_ms_, {50.0, 95.0, 99.0});
        s.p50_ms = pct[0];
        s.p95_ms = pct[1];
        s.p99_ms = pct[2];
    }
    s.mean_wait_ms = wait_ms_.mean();
    s.miss_rate = static_cast<double>(s.missed) / static_cast<double>(s.requests);
    s.shed_rate = static_cast<double>(s.shed) / static_cast<double>(s.requests);
    s.throughput_rps =
        makespan_s > 0.0 ? static_cast<double>(s.served) / makespan_s : 0.0;
    s.energy_per_req_j =
        s.served > 0 ? served_energy_j_ / static_cast<double>(s.served) : 0.0;
    s.mean_device_temp_c = device_temp_.mean();
    return s;
}

ServingTrace::ServingTrace(std::vector<std::string> stream_names, bool capture_rows)
    : stream_names_(std::move(stream_names)),
      capture_rows_(capture_rows),
      stream_accs_(stream_names_.size()) {}

void ServingTrace::add(ServingRecord record) {
    if (record.stream >= stream_names_.size()) {
        throw std::out_of_range("ServingTrace::add: unknown stream index");
    }
    aggregate_acc_.add(record);
    stream_accs_[record.stream].add(record);
    if (capture_rows_) records_.push_back(std::move(record));
}

ServingSummary ServingTrace::stream_summary(std::size_t stream) const {
    if (stream >= stream_names_.size()) {
        throw std::out_of_range("ServingTrace::stream_summary: unknown stream index");
    }
    return stream_accs_[stream].summarize(stream_names_[stream], makespan_s_);
}

ServingSummary ServingTrace::aggregate() const {
    auto s = aggregate_acc_.summarize("all", makespan_s_);
    // Charge the whole device energy (idle included) to the served load.
    if (s.served > 0 && total_energy_j_ > 0.0) {
        s.energy_per_req_j = total_energy_j_ / static_cast<double>(s.served);
    }
    return s;
}

std::vector<ServingSummary> ServingTrace::all_summaries() const {
    std::vector<ServingSummary> out;
    out.reserve(stream_names_.size() + 1);
    out.push_back(aggregate());
    for (std::size_t i = 0; i < stream_names_.size(); ++i) {
        out.push_back(stream_summary(i));
    }
    return out;
}

std::vector<double> ServingTrace::e2e_ms() const {
    std::vector<double> out;
    out.reserve(records_.size());
    for (const auto& r : records_) out.push_back(r.e2e_s * 1e3);
    return out;
}

std::vector<double> ServingTrace::device_temps() const {
    std::vector<double> out;
    out.reserve(records_.size());
    for (const auto& r : records_) out.push_back(runtime::device_temp_c(r.cpu_temp, r.gpu_temp));
    return out;
}

void ServingTrace::write_csv(const std::string& path) const {
    if (!capture_rows_) {
        throw std::logic_error(
            "ServingTrace::write_csv: summary-only trace holds no ledger rows");
    }
    util::CsvWriter csv(path, {"request_id", "stream", "arrival_s", "start_s",
                               "queue_wait_ms", "service_ms", "e2e_ms", "slo_ms", "shed",
                               "missed", "throttled", "proposals", "cpu_temp", "gpu_temp",
                               "energy_j"});
    for (const auto& r : records_) {
        csv.row(std::vector<std::string>{
            std::to_string(r.request_id),
            stream_names_[r.stream],
            util::format_double(r.arrival_s, 4),
            util::format_double(r.start_s, 4),
            util::format_double(r.queue_wait_s * 1e3, 3),
            util::format_double(r.service_s * 1e3, 3),
            util::format_double(r.e2e_s * 1e3, 3),
            util::format_double(r.slo_s * 1e3, 3),
            r.shed ? "1" : "0",
            r.missed ? "1" : "0",
            r.throttled ? "1" : "0",
            std::to_string(r.proposals),
            util::format_double(r.cpu_temp, 3),
            util::format_double(r.gpu_temp, 3),
            util::format_double(r.energy_j, 4),
        });
    }
    csv.close();
}

} // namespace lotus::serving
