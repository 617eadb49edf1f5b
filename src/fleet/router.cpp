#include "fleet/router.hpp"

#include <algorithm>
#include <stdexcept>

namespace lotus::fleet {

namespace {

/// Argmin over available devices of a score functor; ties break on the
/// device index (scan order), so routing is a pure function of the views.
template <typename Score>
std::size_t pick_min(const std::vector<DeviceView>& views, Score&& score) {
    std::size_t best = serving::kNoDevice;
    double best_score = 0.0;
    for (const auto& v : views) {
        if (!v.available) continue;
        const double s = score(v);
        if (best == serving::kNoDevice || s < best_score) {
            best = v.index;
            best_score = s;
        }
    }
    return best;
}

} // namespace

std::size_t RoundRobinRouter::route(const std::vector<DeviceView>& views,
                                    const serving::Request& request, double now_s) {
    (void)request;
    (void)now_s;
    if (views.empty()) return serving::kNoDevice;
    // Rotate regardless of availability so a device rejoining the pool slots
    // back into the same cadence; skip unavailable slots for this pick.
    for (std::size_t probe = 0; probe < views.size(); ++probe) {
        const std::size_t i = (cursor_ + probe) % views.size();
        if (views[i].available) {
            cursor_ = (i + 1) % views.size();
            return views[i].index;
        }
    }
    return serving::kNoDevice;
}

std::size_t LeastQueueRouter::route(const std::vector<DeviceView>& views,
                                    const serving::Request& request, double now_s) {
    (void)request;
    (void)now_s;
    // Join-shortest-queue on backlog seconds (not raw depth): in a
    // heterogeneous pool, 3 requests queued on a phone are a longer wait
    // than 5 on an Orin.
    return pick_min(views, [](const DeviceView& v) { return v.backlog_s; });
}

std::size_t ThermalAwareRouter::route(const std::vector<DeviceView>& views,
                                      const serving::Request& request, double now_s) {
    (void)request;
    (void)now_s;
    // Maximise headroom-to-throttle minus the backlog penalty (negated for
    // pick_min). A hot-but-idle device loses to a cool one; a cool device
    // drowning in backlog loses to a warm idle one.
    return pick_min(views, [this](const DeviceView& v) {
        return -(v.headroom_c - backlog_weight_ * v.backlog_s);
    });
}

std::size_t LotusFleetRouter::route(const std::vector<DeviceView>& views,
                                    const serving::Request& request, double now_s) {
    (void)request;
    // Predicted completion of the request on each device, in seconds past
    // the routing instant: the backlog (busy remainder + queue drain at the
    // governor-sustained pace) plus the request's own service. Devices
    // flirting with their trip point pay a thermal penalty -- their *next*
    // frames will be slower than the EWMA admits once the throttler clamps.
    (void)now_s;
    return pick_min(views, [this](const DeviceView& v) {
        const double finish_s = v.backlog_s + v.expected_service_s;
        const double deficit_c =
            std::max(0.0, soft_margin_ - v.headroom_c) + (v.throttled ? soft_margin_ : 0.0);
        return finish_s + penalty_per_c_ * deficit_c;
    });
}

std::unique_ptr<Router> make_router(const std::string& name) {
    if (name == "round_robin" || name == "rr") return std::make_unique<RoundRobinRouter>();
    if (name == "least_queue" || name == "jsq") return std::make_unique<LeastQueueRouter>();
    if (name == "thermal_aware") return std::make_unique<ThermalAwareRouter>();
    if (name == "lotus_fleet") return std::make_unique<LotusFleetRouter>();
    std::string known;
    for (const auto& n : router_names()) known += known.empty() ? n : " | " + n;
    throw std::invalid_argument("unknown router '" + name + "' (" + known + ")");
}

const std::vector<std::string>& router_names() {
    static const std::vector<std::string> names = {"round_robin", "least_queue",
                                                   "thermal_aware", "lotus_fleet"};
    return names;
}

} // namespace lotus::fleet
