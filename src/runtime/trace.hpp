#pragma once
// Per-iteration experiment traces and their paper-style summaries.
//
// A Trace is the raw material of every figure and table: the latency series
// of Figs. 4-7, the temperature series (the paper plots the average of CPU
// and GPU temperature), and the l-bar / sigma_l / R_L columns of Tables 1-2.

#include <cstddef>
#include <string>
#include <vector>

#include "runtime/engine.hpp"

namespace lotus::runtime {

/// The "device temperature" the paper plots in Figs. 4-7: the mean of the
/// CPU and GPU temperatures. Every ledger (experiment, serving, fleet)
/// derives its per-row device temperature here.
[[nodiscard]] constexpr double device_temp_c(double cpu_temp, double gpu_temp) noexcept {
    return 0.5 * (cpu_temp + gpu_temp);
}

struct TraceRow {
    std::size_t iteration = 0;
    double start_time_s = 0.0;
    double latency_s = 0.0;
    double stage1_s = 0.0;
    double stage2_s = 0.0;
    int proposals = 0;
    double cpu_temp = 0.0;
    double gpu_temp = 0.0;
    std::size_t cpu_level = 0;
    std::size_t gpu_level = 0;
    double constraint_s = 0.0;
    bool throttled = false;
    double energy_j = 0.0;
    double ambient_c = 0.0;
    std::string dataset;
};

/// Aggregates reported in the paper's tables (plus a few extras used by
/// EXPERIMENTS.md and the examples).
struct Summary {
    std::size_t frames = 0;
    double mean_latency_s = 0.0;
    double std_latency_s = 0.0;
    /// Fraction of frames with util::meets_limit(latency, constraint) (R_L).
    double satisfaction_rate = 0.0;
    double mean_cpu_temp = 0.0;
    double mean_gpu_temp = 0.0;
    /// Mean of the per-frame (CPU+GPU)/2 temperature -- the "device
    /// temperature" plotted in Figs. 4-7.
    double mean_device_temp = 0.0;
    double max_device_temp = 0.0;
    double throttled_fraction = 0.0;
    double mean_power_w = 0.0;
    double mean_proposals = 0.0;
};

class Trace {
public:
    void add(TraceRow row);
    void reserve(std::size_t n) { rows_.reserve(n); }

    [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }
    [[nodiscard]] bool empty() const noexcept { return rows_.empty(); }
    [[nodiscard]] const TraceRow& operator[](std::size_t i) const { return rows_[i]; }
    [[nodiscard]] const std::vector<TraceRow>& rows() const noexcept { return rows_; }

    // Column extraction (for charts and stats).
    [[nodiscard]] std::vector<double> latencies_ms() const;
    [[nodiscard]] std::vector<double> device_temps() const;
    [[nodiscard]] std::vector<double> proposals() const;

    /// Summary over all rows (satisfaction uses each row's own constraint).
    [[nodiscard]] Summary summary() const;
    /// Summary over the half-open iteration range [first, last).
    [[nodiscard]] Summary summary(std::size_t first, std::size_t last) const;

    /// Dump all rows as CSV (for external re-plotting).
    void write_csv(const std::string& path) const;

private:
    std::vector<TraceRow> rows_;
};

} // namespace lotus::runtime
