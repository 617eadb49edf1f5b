#pragma once
// Fleet configuration: a heterogeneous pool of edge devices behind one
// dispatcher.
//
// LOTUS manages thermals and latency on *one* device; a production
// deployment puts many such devices behind a request dispatcher. A
// FleetConfig describes that deployment: the load half every serving run
// shares (serving::LoadConfig -- the client streams whose merged request
// timeline the dispatcher routes, the per-device queueing policy, warm-up
// and seed), N devices (heterogeneous specs allowed -- an Orin Nano rack
// mixed with repurposed phones), and the routing policy that decides
// *which* device each request lands on (see fleet/router.hpp). Each device
// runs its own governor instance -- per-device LOTUS agents -- so
// fleet-level placement composes with device-level DVFS control instead of
// replacing it.

#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "platform/device.hpp"
#include "serving/request.hpp"

namespace lotus::fleet {

/// One device slot in the pool. (Constructed from its DeviceSpec because
/// DeviceSpec has no empty state, like the other config shells in the repo.)
struct FleetDevice {
    FleetDevice(std::string id_, platform::DeviceSpec spec_)
        : id(std::move(id_)), spec(std::move(spec_)) {}

    /// Unique id within the fleet (namespaces seed derivation, labels
    /// traces); e.g. "orin0".
    std::string id;
    platform::DeviceSpec spec;
    /// Per-device ambient override [deg C], written into the slot's
    /// initial_ambient_celsius; NaN means the spec's own. (A rack corner
    /// with bad airflow, a phone left in the sun.)
    double ambient_celsius = std::numeric_limits<double>::quiet_NaN();
    /// Simulated time at which the device is withdrawn from routing
    /// (failure / maintenance holdout); its still-queued requests are
    /// re-routed to the surviving pool. +infinity = never.
    double fail_at_s = std::numeric_limits<double>::infinity();
    /// Per-device pre-training latency constraint [s]; 0 falls back to
    /// LoadConfig::warm_up_constraint_s(). Heterogeneous pools need this: a
    /// phone's single-frame pace is ~4x an Orin's.
    double pretrain_constraint_s = 0.0;

    [[nodiscard]] bool ambient_overridden() const noexcept {
        return !std::isnan(ambient_celsius);
    }
};

/// The full fleet experiment: N devices behind a router, fed by the merged
/// request timeline of the configured streams. The shared load half
/// (serving::LoadConfig) runs per device: its scheduler is each device's
/// queue policy, and each learning governor warms up on its own
/// device-id-namespaced stream.
struct FleetConfig : serving::LoadConfig {
    std::vector<FleetDevice> devices;
    /// Routing policy: "round_robin", "least_queue", "thermal_aware" or
    /// "lotus_fleet" (see fleet/router.hpp).
    std::string router = "round_robin";
    /// Re-route the still-queued requests of a device whose frame just
    /// tripped throttle -- the fleet-level analogue of shifting work off a
    /// hot compute resource before it degrades further.
    bool migrate_on_throttle = false;
};

/// Convenience builder for a pool slot.
[[nodiscard]] FleetDevice make_device(std::string id, platform::DeviceSpec spec);

/// A homogeneous pool of n copies of `spec`, ids <prefix>0..<prefix>n-1.
[[nodiscard]] std::vector<FleetDevice> device_pool(const platform::DeviceSpec& spec,
                                                   const std::string& prefix, std::size_t n);

} // namespace lotus::fleet
