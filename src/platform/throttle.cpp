#include "platform/throttle.hpp"

#include <algorithm>
#include <stdexcept>

namespace lotus::platform {

ThermalThrottler::ThermalThrottler(ThrottleParams params)
    : params_(params), cap_(params.num_levels == 0 ? 0 : params.num_levels - 1) {
    if (params_.num_levels == 0) {
        throw std::invalid_argument("ThermalThrottler: zero levels");
    }
    if (params_.clamp_level >= params_.num_levels) {
        throw std::invalid_argument("ThermalThrottler: clamp_level out of range");
    }
    if (params_.poll_interval_s <= 0.0) {
        throw std::invalid_argument("ThermalThrottler: poll interval must be > 0");
    }
    if (params_.hysteresis_k < 0.0) {
        throw std::invalid_argument("ThermalThrottler: negative hysteresis");
    }
}

void ThermalThrottler::poll(double now, double temp_celsius) {
    // One decision per elapsed polling interval. If the simulation jumped
    // several intervals (a long frame), the kernel would have polled during
    // that window too, so apply the decision repeatedly (same epsilon as
    // update()).
    while (now - last_poll_ >= params_.poll_interval_s - 1e-12) {
        last_poll_ += params_.poll_interval_s;
        if (temp_celsius >= params_.trip_celsius) {
            if (!hot_) {
                ++trips_;
                hot_ = true;
            }
            cap_ = std::min(cap_, params_.clamp_level);
        } else if (temp_celsius <= params_.trip_celsius - params_.hysteresis_k) {
            hot_ = false;
            if (cap_ + 1 < params_.num_levels) ++cap_;
        }
        // Inside the hysteresis band: hold the current cap.
    }
}

void ThermalThrottler::reset() {
    cap_ = params_.num_levels - 1;
    last_poll_ = 0.0;
    trips_ = 0;
    hot_ = false;
}

} // namespace lotus::platform
