#pragma once
// Fleet configuration: a heterogeneous pool of edge devices behind one
// dispatcher.
//
// LOTUS manages thermals and latency on *one* device; a production
// deployment puts many such devices behind a request dispatcher. A
// FleetConfig describes that deployment: N devices (heterogeneous specs
// allowed -- an Orin Nano rack mixed with repurposed phones), the client
// streams whose merged request timeline the dispatcher routes, the
// per-device queueing policy, and the routing policy that decides *which*
// device each request lands on (see fleet/router.hpp). Each device runs its
// own governor instance -- per-device LOTUS agents -- so fleet-level
// placement composes with device-level DVFS control instead of replacing
// it.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "detector/model.hpp"
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
    /// Per-device ambient override [deg C]; NaN means the fleet ambient.
    /// (A rack corner with bad airflow, a phone left in the sun.)
    double ambient_celsius = std::numeric_limits<double>::quiet_NaN();
    /// Simulated time at which the device is withdrawn from routing
    /// (failure / maintenance holdout); its still-queued requests are
    /// re-routed to the surviving pool. +infinity = never.
    double fail_at_s = std::numeric_limits<double>::infinity();
    /// Per-device pre-training latency constraint [s]; 0 falls back to the
    /// fleet-level FleetConfig::pretrain_constraint_s. Heterogeneous pools
    /// need this: a phone's single-frame pace is ~4x an Orin's.
    double pretrain_constraint_s = 0.0;

    [[nodiscard]] bool ambient_overridden() const noexcept {
        return !std::isnan(ambient_celsius);
    }
};

/// The full fleet experiment: N devices behind a router, fed by the merged
/// request timeline of the configured streams.
struct FleetConfig {
    std::vector<FleetDevice> devices;
    detector::DetectorKind detector = detector::DetectorKind::faster_rcnn;
    std::vector<serving::StreamSpec> streams;
    /// Per-device queue policy: "fifo", "edf" or "edf_admit".
    std::string scheduler = "edf";
    /// Routing policy: "round_robin", "least_queue", "thermal_aware" or
    /// "lotus_fleet" (see fleet/router.hpp).
    std::string router = "round_robin";
    /// Re-route the still-queued requests of a device whose frame just
    /// tripped throttle -- the fleet-level analogue of shifting work off a
    /// hot compute resource before it degrades further.
    bool migrate_on_throttle = false;
    /// Unrecorded warm-up frames per learning governor, one independent
    /// (device-id-namespaced) stream per device.
    std::size_t pretrain_iterations = 0;
    /// Fleet-default pre-training constraint [s]; 0 means stream 0's SLO.
    double pretrain_constraint_s = 0.0;
    std::uint64_t seed = 42;
    double ambient_celsius = 25.0;
    /// Store the per-request ledger rows (FleetTrace). Summaries come from
    /// the same live accumulators either way; turn off when no CSV dump or
    /// chart column extraction needs the rows.
    bool capture_rows = true;
    /// Path of a recorded .ltrc trace to replay instead of generating the
    /// timeline from the streams' arrival processes (see
    /// serving::ServingConfig::replay_trace). Empty generates analytically.
    std::string replay_trace;
};

/// Convenience builder for a pool slot.
[[nodiscard]] FleetDevice make_device(std::string id, platform::DeviceSpec spec);

/// A homogeneous pool of n copies of `spec`, ids <prefix>0..<prefix>n-1.
[[nodiscard]] std::vector<FleetDevice> device_pool(const platform::DeviceSpec& spec,
                                                   const std::string& prefix, std::size_t n);

} // namespace lotus::fleet
