#include "rl/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace lotus::rl {

ExponentialDecay::ExponentialDecay(double start, double end, double rate)
    : start_(start), end_(end), rate_(rate) {
    if (start < end) throw std::invalid_argument("ExponentialDecay: start < end");
    if (rate <= 0.0 || rate >= 1.0) throw std::invalid_argument("ExponentialDecay: rate out of (0,1)");
}

double ExponentialDecay::at(std::size_t step) const noexcept {
    return end_ + (start_ - end_) * std::pow(rate_, static_cast<double>(step));
}

SinusoidalTriggerDecay::SinusoidalTriggerDecay(double eps0, double floor,
                                               std::size_t total_triggers)
    : eps0_(eps0), floor_(floor), total_(total_triggers) {
    if (eps0 < 0.0 || eps0 > 1.0) throw std::invalid_argument("eps0 out of [0,1]");
    if (floor < 0.0 || floor > eps0) throw std::invalid_argument("floor out of [0,eps0]");
    if (total_triggers == 0) throw std::invalid_argument("total_triggers must be > 0");
}

double SinusoidalTriggerDecay::value() const noexcept {
    const double k = static_cast<double>(std::min(triggers_, total_));
    const double frac = k / static_cast<double>(total_);
    return floor_ + (eps0_ - floor_) * std::cos(std::numbers::pi / 2.0 * frac);
}

void SinusoidalTriggerDecay::trigger() noexcept {
    if (triggers_ < total_) ++triggers_;
}

} // namespace lotus::rl
