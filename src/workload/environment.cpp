#include "workload/environment.hpp"

#include <sstream>
#include <stdexcept>

namespace lotus::workload {

AmbientProfile::AmbientProfile(std::function<double(std::size_t)> fn, std::string description)
    : fn_(std::move(fn)), description_(std::move(description)) {}

AmbientProfile AmbientProfile::constant(double celsius) {
    std::ostringstream d;
    d << "constant " << celsius << " C";
    return AmbientProfile([celsius](std::size_t) { return celsius; }, d.str());
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
    for (const auto& [it, c] : breakpoints) d << " @" << it << "->" << c << "C";
    return AmbientProfile(
        [bp = std::move(breakpoints)](std::size_t iteration) {
            double value = bp.front().second;
            for (const auto& [first, celsius] : bp) {
                if (iteration >= first) value = celsius;
            }
            return value;
        },
        d.str());
}

AmbientProfile AmbientProfile::custom(std::function<double(std::size_t)> fn,
                                      std::string description) {
    if (!fn) throw std::invalid_argument("AmbientProfile::custom: null function");
    return AmbientProfile(std::move(fn), std::move(description));
}

double AmbientProfile::at(std::size_t iteration) const {
    return fn_(iteration);
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
