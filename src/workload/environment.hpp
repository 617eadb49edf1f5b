#pragma once
// Dynamic evaluation environments (Sec. 5.2.2).
//
// * AmbientProfile: ambient temperature as a function of iteration index --
//   constant for the static experiments, warm/cold/warm zones for Fig. 7a,
//   or a table of flat and linear-ramp segments (the drone mission, the
//   heatwave). A profile is plain data: it can be read, compared and
//   printed, and its segment boundaries are the run's phase boundaries.
// * DomainSchedule: which dataset (and latency constraint) is active at each
//   iteration -- constant normally, KITTI -> VisDrone mid-run for Fig. 7b.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace lotus::workload {

/// One segment of an AmbientProfile, in effect from `first_iteration` until
/// the next segment's. A flat segment (span == 0) holds `from_c`. A ramp
/// at iteration i of an n-iteration run is
///     from_c + (to_c - from_c) * (i / n - start) / span,
/// so it leaves from_c at run fraction `start` and reaches to_c at
/// start + span. `span` is data, not the difference of two boundaries,
/// because e.g. 7/18 - 1/6 is not 2/9 in binary64.
struct AmbientSegment {
    /// Run fraction where the segment begins (and a ramp is at from_c).
    double start = 0.0;
    double from_c = 0.0;
    double to_c = 0.0;
    /// Run fraction a ramp takes from from_c to to_c; 0 for a flat segment.
    double span = 0.0;
    /// Filled in by the profile: the first iteration i with i / n >= start
    /// (zones give it directly).
    std::size_t first_iteration = 0;
};

/// Ambient temperature [deg C] per iteration: a table of segments.
class AmbientProfile {
public:
    /// Constant ambient (the paper's "static external environment", 25 C).
    [[nodiscard]] static AmbientProfile constant(double celsius);

    /// Piecewise-constant zones: each entry is (first_iteration, celsius);
    /// entries must be ascending and start at iteration 0.
    [[nodiscard]] static AmbientProfile zones(
        std::vector<std::pair<std::size_t, double>> breakpoints);

    /// Flat and ramp segments placed by run fraction of an `iterations`-long
    /// run. Starts must ascend from 0 within [0, 1], values be finite, a
    /// flat segment have to_c == from_c and a ramp a finite span > 0;
    /// throws std::invalid_argument otherwise.
    [[nodiscard]] static AmbientProfile piecewise(std::size_t iterations,
                                                  std::vector<AmbientSegment> segments,
                                                  std::string description);

    [[nodiscard]] double at(std::size_t iteration) const;
    [[nodiscard]] const std::vector<AmbientSegment>& segments() const noexcept {
        return segments_;
    }
    [[nodiscard]] const std::string& description() const noexcept { return description_; }

private:
    AmbientProfile(double iterations, std::vector<AmbientSegment> segments,
                   std::string description);

    /// Run length n the ramps are normalised by (unused without ramps).
    double iterations_;
    std::vector<AmbientSegment> segments_;
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
