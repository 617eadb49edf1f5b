#include "workload/environment.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace lotus::workload {

AmbientProfile::AmbientProfile(double iterations, std::vector<AmbientSegment> segments,
                               std::string description)
    : iterations_(iterations), segments_(std::move(segments)),
      description_(std::move(description)) {}

AmbientProfile AmbientProfile::constant(double celsius) {
    std::ostringstream d;
    d << "constant " << celsius << " C";
    return AmbientProfile(0.0, {{.from_c = celsius, .to_c = celsius}}, d.str());
}

AmbientProfile AmbientProfile::zones(std::vector<std::pair<std::size_t, double>> breakpoints) {
    if (breakpoints.empty() || breakpoints.front().first != 0) {
        throw std::invalid_argument("AmbientProfile::zones: must start at iteration 0");
    }
    for (std::size_t i = 1; i < breakpoints.size(); ++i) {
        if (breakpoints[i].first <= breakpoints[i - 1].first) {
            throw std::invalid_argument("AmbientProfile::zones: breakpoints must ascend");
        }
    }
    std::ostringstream d;
    d << "zones:";
    std::vector<AmbientSegment> segments;
    segments.reserve(breakpoints.size());
    for (const auto& [first, c] : breakpoints) {
        d << " @" << first << "->" << c << "C";
        segments.push_back({.from_c = c, .to_c = c, .first_iteration = first});
    }
    return AmbientProfile(0.0, std::move(segments), d.str());
}

AmbientProfile AmbientProfile::piecewise(std::size_t iterations,
                                         std::vector<AmbientSegment> segments,
                                         std::string description) {
    const auto fail = [](const std::string& why) {
        throw std::invalid_argument("AmbientProfile::piecewise: " + why);
    };
    if (iterations == 0) fail("needs a run of at least one iteration");
    if (segments.empty() || segments.front().start != 0.0) fail("must start at fraction 0");
    const double n = static_cast<double>(iterations);
    for (std::size_t k = 0; k < segments.size(); ++k) {
        auto& seg = segments[k];
        if (!(seg.start >= 0.0 && seg.start <= 1.0)) fail("starts must lie in [0, 1]");
        if (k > 0 && !(seg.start > segments[k - 1].start)) fail("starts must ascend");
        if (!std::isfinite(seg.from_c) || !std::isfinite(seg.to_c) ||
            !std::isfinite(seg.span) || seg.span < 0.0) {
            fail("segment " + std::to_string(k) + " has a non-finite value or negative span");
        }
        if (seg.span == 0.0 && seg.to_c != seg.from_c) {
            fail("flat segment " + std::to_string(k) + " must have to_c == from_c");
        }
        // The first iteration whose run fraction i / n, computed as at()
        // computes it, reaches the start.
        std::size_t i = k > 0 ? segments[k - 1].first_iteration : 0;
        while (static_cast<double>(i) / n < seg.start) ++i;
        seg.first_iteration = i;
    }
    return AmbientProfile(n, std::move(segments), std::move(description));
}

double AmbientProfile::at(std::size_t iteration) const {
    const auto* seg = &segments_.front();
    for (const auto& s : segments_) {
        if (iteration >= s.first_iteration) seg = &s;
    }
    if (seg->span == 0.0) return seg->from_c;
    const double t = static_cast<double>(iteration) / iterations_;
    return seg->from_c + (seg->to_c - seg->from_c) * (t - seg->start) / seg->span;
}

DomainSchedule::DomainSchedule(std::vector<DomainSegment> segs) : segments_(std::move(segs)) {}

DomainSchedule DomainSchedule::constant(std::string dataset, double latency_constraint_s) {
    if (latency_constraint_s <= 0.0) {
        throw std::invalid_argument("DomainSchedule: constraint must be > 0");
    }
    return DomainSchedule({DomainSegment{0, std::move(dataset), latency_constraint_s}});
}

DomainSchedule DomainSchedule::segments(std::vector<DomainSegment> segs) {
    if (segs.empty() || segs.front().first_iteration != 0) {
        throw std::invalid_argument("DomainSchedule: must start at iteration 0");
    }
    for (std::size_t i = 0; i < segs.size(); ++i) {
        if (segs[i].latency_constraint_s <= 0.0) {
            throw std::invalid_argument("DomainSchedule: constraint must be > 0");
        }
        if (i > 0 && segs[i].first_iteration <= segs[i - 1].first_iteration) {
            throw std::invalid_argument("DomainSchedule: segments must ascend");
        }
    }
    return DomainSchedule(std::move(segs));
}

const DomainSegment& DomainSchedule::at(std::size_t iteration) const {
    const DomainSegment* seg = &segments_.front();
    for (const auto& s : segments_) {
        if (iteration >= s.first_iteration) seg = &s;
    }
    return *seg;
}

} // namespace lotus::workload
