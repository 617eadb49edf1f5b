#pragma once
// Per-request serving traces and their SLO-centric summaries.
//
// The serving analogue of runtime::Trace. Where the experiment trace is a
// per-iteration latency series, the serving trace is a per-request ledger:
// when did the request arrive, how long did it queue, was it shed, did it
// meet its deadline -- per stream and in aggregate. The summaries speak the
// language of serving systems (p50/p95/p99, miss rate, shed rate,
// throughput) rather than the paper's (mean, sigma, R_L). Every summary is
// kept live as requests are added; storing the rows is a separate choice.
//
// One Ledger sits under both ServingTrace and fleet::FleetTrace: one row
// type, one stream check, one set of live stream summaries, one set of
// chart columns and CSV cells. The two traces differ only in their views --
// ServingTrace adds the single device's totals, FleetTrace the per-device
// ones.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace lotus::serving {

/// Ledger entry for one request (served or shed).
struct ServingRecord {
    std::size_t request_id = 0;
    /// Index into the stream-name table of the owning trace.
    std::size_t stream = 0;
    /// Index of the device that served (or shed) the request: 0 on a single
    /// device, kNoDevice (request.hpp) for a fleet router-level shed.
    std::size_t device = 0;
    double arrival_s = 0.0;
    /// Dispatch time for served requests; shed time for shed ones.
    double start_s = 0.0;
    double queue_wait_s = 0.0;
    /// Device-side execution latency; 0 for shed requests.
    double service_s = 0.0;
    /// End-to-end latency (wait + service); for shed requests, the wait
    /// accumulated until the drop.
    double e2e_s = 0.0;
    double slo_s = 0.0;
    bool shed = false;
    /// SLO violated: shed, or served with e2e_s > slo_s.
    bool missed = false;
    bool throttled = false;
    /// The fleet re-routed the request at least once (off a throttled or
    /// failed device) before this terminal row; always false on one device.
    bool migrated = false;
    int proposals = 0;
    double cpu_temp = 0.0; // at completion (or shed time)
    double gpu_temp = 0.0;
    double energy_j = 0.0;
};

/// SLO metrics over one stream (or the aggregate, stream == "all").
struct ServingSummary {
    std::string stream;
    std::size_t requests = 0;
    std::size_t served = 0;
    std::size_t shed = 0;
    std::size_t missed = 0;
    /// End-to-end latency percentiles over *served* requests [ms].
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double mean_wait_ms = 0.0;
    /// missed / requests (shed requests count as misses).
    double miss_rate = 0.0;
    double shed_rate = 0.0;
    /// served / makespan [requests/s].
    double throughput_rps = 0.0;
    /// Mean per-served-request energy [J] (execution only for streams; the
    /// aggregate uses total device energy, idle included).
    double energy_per_req_j = 0.0;
    double mean_device_temp_c = 0.0;
    double peak_device_temp_c = 0.0;
};

/// The one summary arithmetic of the serving and fleet ledgers. Traces feed
/// it every record live, in ledger order, as requests complete, and read
/// every summary from it -- whether or not they also store the rows. Only
/// the served end-to-end latencies are retained (percentiles need the full
/// sample); everything else is O(1) state.
class SummaryAccumulator {
public:
    void add(const ServingRecord& record);
    /// Summary over everything added so far.
    [[nodiscard]] ServingSummary summarize(std::string label, double makespan_s) const;

    [[nodiscard]] std::size_t requests() const noexcept { return requests_; }
    [[nodiscard]] std::size_t served() const noexcept { return served_; }

private:
    std::size_t requests_ = 0;
    std::size_t served_ = 0;
    std::size_t shed_ = 0;
    std::size_t missed_ = 0;
    std::vector<double> served_e2e_ms_;
    util::RunningStats wait_ms_;
    util::RunningStats device_temp_;
    double peak_device_temp_c_ = 0.0;
    double served_energy_j_ = 0.0;
};

/// The per-request ledger under ServingTrace and fleet::FleetTrace: the
/// stream names, the optional rows, stream-index validation, the live
/// aggregate and per-stream accumulators, the makespan, and the row views
/// both traces share (chart columns, CSV cells).
class Ledger {
public:
    Ledger() = default;
    /// add() always feeds the aggregate and per-stream accumulators that
    /// every summary reads. `capture_rows` only decides whether the rows are
    /// stored too; without them the per-request ledger (records(), CSV
    /// dumps, chart columns) is unavailable.
    explicit Ledger(std::vector<std::string> stream_names, bool capture_rows = true);

    void reserve(std::size_t n) {
        if (capture_rows_) records_.reserve(n);
    }

    [[nodiscard]] bool capture_rows() const noexcept { return capture_rows_; }
    /// Requests added (counted in both capture modes).
    [[nodiscard]] std::size_t size() const noexcept { return aggregate_acc_.requests(); }
    [[nodiscard]] bool empty() const noexcept { return size() == 0; }
    [[nodiscard]] const std::vector<ServingRecord>& records() const noexcept {
        return records_;
    }
    [[nodiscard]] const std::vector<std::string>& stream_names() const noexcept {
        return stream_names_;
    }

    /// Wall-clock span of the run [s]; set once by the engine.
    void set_makespan(double seconds) noexcept { makespan_s_ = seconds; }
    [[nodiscard]] double makespan_s() const noexcept { return makespan_s_; }

    /// Summary over one stream index.
    [[nodiscard]] ServingSummary stream_summary(std::size_t stream) const;

    // Column extraction for charts (request order == completion order).
    // Empty in summary-only mode.
    [[nodiscard]] std::vector<double> e2e_ms() const;
    [[nodiscard]] std::vector<double> device_temps() const;

protected:
    /// Feeds `record` to the aggregate and its stream's accumulator and
    /// stores it when capturing rows. Throws std::out_of_range on an unknown
    /// stream index, before anything changes. Protected so that rows enter
    /// through a trace's add(): FleetTrace's also feeds its device
    /// accumulators.
    void add(ServingRecord record);
    /// Summary over every request added, labelled `label`.
    [[nodiscard]] ServingSummary summarize_all(std::string label) const;
    /// Appends one summary per stream, in stream order.
    void append_stream_summaries(std::vector<ServingSummary>& out) const;

    /// Appends one row's cells for a trace's own CSV columns.
    using ViewCells = std::function<void(const ServingRecord&, std::vector<std::string>&)>;
    /// Dumps the rows as CSV: request_id, stream, the trace's `view_columns`
    /// (filled by `view_cells`), then arrival_s through energy_j. Throws
    /// std::logic_error in summary-only mode (there is no ledger to dump).
    void write_ledger_csv(const std::string& path, const std::vector<std::string>& view_columns,
                          const ViewCells& view_cells) const;

private:
    std::vector<std::string> stream_names_;
    std::vector<ServingRecord> records_;
    bool capture_rows_ = true;
    SummaryAccumulator aggregate_acc_;
    std::vector<SummaryAccumulator> stream_accs_;
    double makespan_s_ = 0.0;
};

/// The single-device view of the ledger: total device energy, the deepest
/// queue and the thermal steps, and the "all" aggregate.
class ServingTrace : public Ledger {
public:
    using Ledger::Ledger;
    using Ledger::add;

    /// Total device energy [J] (idle included); set once by the serving
    /// engine.
    void set_total_energy(double joules) noexcept { total_energy_j_ = joules; }
    [[nodiscard]] double total_energy_j() const noexcept { return total_energy_j_; }
    void set_max_queue_depth(std::size_t depth) noexcept { max_queue_depth_ = depth; }
    [[nodiscard]] std::size_t max_queue_depth() const noexcept { return max_queue_depth_; }
    /// Thermal integration steps the device spent over the run (set by the
    /// serving engine; bench_overhead's stepper comparison reads it).
    void set_thermal_steps(std::uint64_t steps) noexcept { thermal_steps_ = steps; }
    [[nodiscard]] std::uint64_t thermal_steps() const noexcept { return thermal_steps_; }

    /// Summary over all requests (stream name "all"; energy-per-request uses
    /// the total device energy, so idle burn is charged to the workload).
    [[nodiscard]] ServingSummary aggregate() const;
    /// Aggregate first, then one summary per stream.
    [[nodiscard]] std::vector<ServingSummary> all_summaries() const;

    /// Dump the per-request ledger as CSV. Throws std::logic_error in
    /// summary-only mode (there is no ledger to dump).
    void write_csv(const std::string& path) const;

private:
    double total_energy_j_ = 0.0;
    std::size_t max_queue_depth_ = 0;
    std::uint64_t thermal_steps_ = 0;
};

} // namespace lotus::serving
