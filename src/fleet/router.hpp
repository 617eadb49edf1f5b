#pragma once
// Routing policies: which device of the pool serves the next request.
//
// The router is the fleet-level control knob, the placement analogue of the
// per-device DVFS governor. It sees a snapshot of every device -- local
// clock, temperatures, headroom to the throttle trip, queue depth and the
// governor-informed service-time estimate -- and picks one. Four built-ins:
//
//  * round_robin   -- rotate through the pool; the placement baseline every
//                     load balancer starts at. Blind to queues and heat.
//  * least_queue   -- join-shortest-queue on estimated backlog seconds; the
//                     classic latency-optimal heuristic for homogeneous
//                     pools, blind to heat.
//  * thermal_aware -- route away from hot dies: score each device by its
//                     headroom to the throttle trip minus a backlog
//                     penalty, so load steers toward cool devices without
//                     drowning them ("Play It Cool" at fleet scale:
//                     shifting work prevents throttling before it happens).
//  * lotus_fleet   -- minimise the *predicted completion time* of the
//                     request: busy remainder + backlog + expected service
//                     (the per-device EWMA reflects the pace the device's
//                     LOTUS governor is actually sustaining), plus a
//                     penalty once a device is throttled or inside the
//                     soft thermal margin. Placement informed by the same
//                     signals the per-device agents act on.
//
// Every policy is a deterministic pure function of (its own state, the
// views, the request): ties break on the device index, so a fleet run
// replays byte-identically at any --jobs count.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "serving/request.hpp"

namespace lotus::fleet {

/// Dispatcher-visible snapshot of one device at a routing instant.
struct DeviceView {
    std::size_t index = 0;
    /// Device-local simulated clock [s]; ahead of the routing instant when
    /// the device is busy working through its queue.
    double now_s = 0.0;
    double cpu_temp_c = 0.0;
    double gpu_temp_c = 0.0;
    /// min over domains of (throttle trip - current temperature) [K];
    /// negative once a domain is past its trip.
    double headroom_c = 0.0;
    bool throttled = false;
    /// Requests queued on (or routed to but not yet started by) the device.
    std::size_t queue_depth = 0;
    /// Governor-informed service-time estimate [s]: EWMA of the device's
    /// recent execution latencies, seeded with its calibrated single-frame
    /// pace before the first completion.
    double expected_service_s = 0.0;
    /// Estimated seconds of work in front of a newly routed request: busy
    /// remainder past the routing instant plus queue_depth * expected
    /// service.
    double backlog_s = 0.0;
    /// False when the device must not be picked (failed / held out, or the
    /// source of a migration).
    bool available = true;
};

class Router {
public:
    virtual ~Router() = default;

    [[nodiscard]] virtual std::string name() const = 0;

    /// Pick the device that serves `request`, routed at simulated time
    /// `now_s`. Views cover the whole pool in index order; unavailable
    /// devices must not be picked. Returns serving::kNoDevice when no
    /// device is available.
    [[nodiscard]] virtual std::size_t route(const std::vector<DeviceView>& views,
                                            const serving::Request& request,
                                            double now_s) = 0;
};

class RoundRobinRouter final : public Router {
public:
    [[nodiscard]] std::string name() const override { return "round_robin"; }
    [[nodiscard]] std::size_t route(const std::vector<DeviceView>& views,
                                    const serving::Request& request,
                                    double now_s) override;

private:
    std::size_t cursor_ = 0;
};

class LeastQueueRouter final : public Router {
public:
    [[nodiscard]] std::string name() const override { return "least_queue"; }
    [[nodiscard]] std::size_t route(const std::vector<DeviceView>& views,
                                    const serving::Request& request,
                                    double now_s) override;
};

class ThermalAwareRouter final : public Router {
public:
    /// `backlog_weight_c_per_s` converts backlog seconds into equivalent
    /// degrees of headroom: a device with w more degrees of headroom
    /// absorbs 1/w more seconds of backlog before losing the pick.
    explicit ThermalAwareRouter(double backlog_weight_c_per_s = 4.0)
        : backlog_weight_(backlog_weight_c_per_s) {}

    [[nodiscard]] std::string name() const override { return "thermal_aware"; }
    [[nodiscard]] std::size_t route(const std::vector<DeviceView>& views,
                                    const serving::Request& request,
                                    double now_s) override;

private:
    double backlog_weight_;
};

class LotusFleetRouter final : public Router {
public:
    /// Devices inside `soft_margin_c` of their throttle trip (or already
    /// throttled) pay `penalty_s_per_c` seconds of predicted completion per
    /// missing degree.
    explicit LotusFleetRouter(double soft_margin_c = 5.0, double penalty_s_per_c = 0.5)
        : soft_margin_(soft_margin_c), penalty_per_c_(penalty_s_per_c) {}

    [[nodiscard]] std::string name() const override { return "lotus_fleet"; }
    [[nodiscard]] std::size_t route(const std::vector<DeviceView>& views,
                                    const serving::Request& request,
                                    double now_s) override;

private:
    double soft_margin_;
    double penalty_per_c_;
};

/// Factory over the built-in policies: "round_robin" | "least_queue" |
/// "thermal_aware" | "lotus_fleet" (also accepts "rr" and "jsq"). Throws
/// std::invalid_argument on anything else.
[[nodiscard]] std::unique_ptr<Router> make_router(const std::string& name);

/// Canonical policy names, for CLI help and validation messages.
[[nodiscard]] const std::vector<std::string>& router_names();

} // namespace lotus::fleet
