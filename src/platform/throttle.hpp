#pragma once
// Thermal throttling, Jetson/Android style.
//
// When a die temperature reaches its trip point, the platform's thermal
// management clamps the domain to a *low* frequency level immediately -- the
// paper's motivation states it plainly: "if the device temperature goes
// above a threshold, thermal throttling will be activated to decrease the
// frequency to a very low level" (Sec. 1). The clamp holds until the zone
// cools below (trip - hysteresis); the cap is then released one OPP level
// per polling interval. The resulting deep trip/recover limit cycle under a
// naive governor is the large latency oscillation of Figs. 4-6 ("default"),
// and avoiding it entirely is what the learning governors are rewarded for.

#include <cstddef>

namespace lotus::platform {

struct ThrottleParams {
    /// Trip temperature [deg C] at which the hard clamp engages.
    double trip_celsius = 85.0;
    /// The zone must cool this far below the trip before the clamp releases.
    double hysteresis_k = 8.0;
    /// Polling interval of the thermal governor [s].
    double poll_interval_s = 0.1;
    /// OPP level the domain is clamped to while hot.
    std::size_t clamp_level = 1;
    /// Number of OPP levels in the domain this throttler caps.
    std::size_t num_levels = 1;
};

/// Per-domain throttler; `update` is called with the simulation time and the
/// current zone temperature and returns the (possibly changed) level cap.
class ThermalThrottler {
public:
    explicit ThermalThrottler(ThrottleParams params);

    /// Advance to time `now` [s]. At each elapsed polling interval: clamp
    /// hard if at/above trip, hold inside the hysteresis band, release one
    /// level per interval below it. The device calls this after every
    /// thermal segment and most segments reach no poll, so that check is
    /// inline. The epsilon absorbs floating-point residue when callers step
    /// time in exact multiples of the polling interval.
    std::size_t update(double now, double temp_celsius) {
        if (now - last_poll_ >= params_.poll_interval_s - 1e-12) poll(now, temp_celsius);
        return cap_;
    }

    /// Highest OPP level currently allowed.
    [[nodiscard]] std::size_t cap() const noexcept { return cap_; }

    /// Absolute time of the next polling decision [s]; the device's
    /// event-driven advance loop splits its integration segments here so
    /// that the temperature each poll reads is evaluated at the exact poll
    /// instant.
    [[nodiscard]] double next_poll_s() const noexcept {
        return last_poll_ + params_.poll_interval_s;
    }

    /// True while the cap is below the top level.
    [[nodiscard]] bool engaged() const noexcept { return cap_ + 1 < params_.num_levels; }

    /// Number of distinct trip events so far.
    [[nodiscard]] std::size_t trip_events() const noexcept { return trips_; }

    void reset();

    [[nodiscard]] const ThrottleParams& params() const noexcept { return params_; }

private:
    /// Apply every polling decision due by `now`.
    void poll(double now, double temp_celsius);

    ThrottleParams params_;
    std::size_t cap_;
    double last_poll_ = 0.0;
    std::size_t trips_ = 0;
    bool hot_ = false;
};

} // namespace lotus::platform
