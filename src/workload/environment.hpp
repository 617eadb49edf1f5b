#pragma once
// Dynamic evaluation environments (Sec. 5.2.2).
//
// * AmbientProfile: ambient temperature as a function of iteration index --
//   constant for the static experiments, warm/cold/warm zones for Fig. 7a,
//   or arbitrary piecewise/custom profiles for the examples.
// * DomainSchedule: which dataset (and latency constraint) is active at each
//   iteration -- constant normally, KITTI -> VisDrone mid-run for Fig. 7b.

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace lotus::workload {

/// Ambient temperature [deg C] per iteration.
class AmbientProfile {
public:
    /// Constant ambient (the paper's "static external environment", 25 C).
    [[nodiscard]] static AmbientProfile constant(double celsius);

    /// Piecewise-constant zones: each entry is (first_iteration, celsius);
    /// entries must be ascending and start at iteration 0.
    [[nodiscard]] static AmbientProfile zones(
        std::vector<std::pair<std::size_t, double>> breakpoints);

    /// Fully custom profile.
    [[nodiscard]] static AmbientProfile custom(std::function<double(std::size_t)> fn,
                                               std::string description);

    [[nodiscard]] double at(std::size_t iteration) const;
    [[nodiscard]] const std::string& description() const noexcept { return description_; }

private:
    AmbientProfile(std::function<double(std::size_t)> fn, std::string description);

    std::function<double(std::size_t)> fn_;
    std::string description_;
};

/// One contiguous run segment: a dataset plus its latency constraint [s].
struct DomainSegment {
    std::size_t first_iteration = 0;
    std::string dataset;
    double latency_constraint_s = 0.0;
};

/// Piecewise dataset/constraint schedule (Fig. 7b switches domains mid-run).
class DomainSchedule {
public:
    /// Single-dataset schedule.
    [[nodiscard]] static DomainSchedule constant(std::string dataset,
                                                 double latency_constraint_s);

    /// Multi-segment schedule; segments must be ascending and start at 0.
    [[nodiscard]] static DomainSchedule segments(std::vector<DomainSegment> segs);

    [[nodiscard]] const DomainSegment& at(std::size_t iteration) const;
    [[nodiscard]] const std::vector<DomainSegment>& all() const noexcept { return segments_; }

private:
    explicit DomainSchedule(std::vector<DomainSegment> segs);

    std::vector<DomainSegment> segments_;
};

} // namespace lotus::workload
