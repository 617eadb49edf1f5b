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

Ledger::Ledger(std::vector<std::string> stream_names, bool capture_rows)
    : stream_names_(std::move(stream_names)),
      capture_rows_(capture_rows),
      stream_accs_(stream_names_.size()) {}

void Ledger::add(ServingRecord record) {
    if (record.stream >= stream_names_.size()) {
        throw std::out_of_range("Ledger::add: unknown stream index");
    }
    aggregate_acc_.add(record);
    stream_accs_[record.stream].add(record);
    if (capture_rows_) records_.push_back(std::move(record));
}

ServingSummary Ledger::stream_summary(std::size_t stream) const {
    if (stream >= stream_names_.size()) {
        throw std::out_of_range("Ledger::stream_summary: unknown stream index");
    }
    return stream_accs_[stream].summarize(stream_names_[stream], makespan_s_);
}

ServingSummary Ledger::summarize_all(std::string label) const {
    return aggregate_acc_.summarize(std::move(label), makespan_s_);
}

void Ledger::append_stream_summaries(std::vector<ServingSummary>& out) const {
    for (std::size_t s = 0; s < stream_names_.size(); ++s) out.push_back(stream_summary(s));
}

std::vector<double> Ledger::e2e_ms() const {
    std::vector<double> out;
    out.reserve(records_.size());
    for (const auto& r : records_) out.push_back(r.e2e_s * 1e3);
    return out;
}

std::vector<double> Ledger::device_temps() const {
    std::vector<double> out;
    out.reserve(records_.size());
    for (const auto& r : records_) out.push_back(runtime::device_temp_c(r.cpu_temp, r.gpu_temp));
    return out;
}

void Ledger::write_ledger_csv(const std::string& path,
                              const std::vector<std::string>& view_columns,
                              const ViewCells& view_cells) const {
    if (!capture_rows_) {
        throw std::logic_error("Ledger::write_ledger_csv: summary-only trace holds no rows");
    }
    std::vector<std::string> columns = {"request_id", "stream"};
    columns.insert(columns.end(), view_columns.begin(), view_columns.end());
    columns.insert(columns.end(), {"arrival_s", "start_s", "queue_wait_ms", "service_ms",
                                   "e2e_ms", "slo_ms", "shed", "missed", "throttled",
                                   "proposals", "cpu_temp", "gpu_temp", "energy_j"});
    util::CsvWriter csv(path, columns);
    std::vector<std::string> cells;
    for (const auto& r : records_) {
        cells = {std::to_string(r.request_id), stream_names_[r.stream]};
        if (view_cells) view_cells(r, cells);
        cells.insert(cells.end(), {util::format_double(r.arrival_s, 4),
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
                                   util::format_double(r.energy_j, 4)});
        csv.row(cells);
    }
    csv.close();
}

ServingSummary ServingTrace::aggregate() const {
    auto s = summarize_all("all");
    // Charge the whole device energy (idle included) to the served load.
    if (s.served > 0 && total_energy_j_ > 0.0) {
        s.energy_per_req_j = total_energy_j_ / static_cast<double>(s.served);
    }
    return s;
}

std::vector<ServingSummary> ServingTrace::all_summaries() const {
    std::vector<ServingSummary> out{aggregate()};
    append_stream_summaries(out);
    return out;
}

void ServingTrace::write_csv(const std::string& path) const {
    write_ledger_csv(path, {}, {});
}

} // namespace lotus::serving
