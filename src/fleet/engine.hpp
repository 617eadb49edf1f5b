#pragma once
// FleetEngine: routes the merged request timeline across a pool of devices.
//
// The fleet analogue of serving::ServingEngine. Where the serving engine
// multiplexes N streams onto ONE device, the fleet engine puts a dispatcher
// in front of N devices: every request is routed -- at its arrival instant,
// against a snapshot of the whole pool -- to exactly one device, queues
// there under the per-device scheduling policy, and executes on that
// device's own EdgeDevice + InferenceEngine under that device's own
// governor instance (per-device LOTUS agents; governor seeds are
// device-id-namespaced via util::derive_seed so identical twins diverge).
//
// Time model: each device owns its local clock (the PR 3 single-advance
// authority, EdgeDevice::advance); the dispatcher interleaves per-device
// progress in global event order. Events are processed earliest-first with
// deterministic tie-breaks:
//
//  * an arrival at time t is routed before any dispatch at time t (the
//    same rule the single-device engine applies when it pulls arrivals
//    into the queue before scheduling);
//  * dispatches tie-break on the device index;
//  * a device whose queue is empty idles -- and cools, with kernel
//    governors ticking -- up to the next routing instant, so the router
//    always reads pool temperatures evaluated at the arrival it is
//    placing.
//
// A device past its FleetDevice::fail_at_s is withdrawn: it takes no new
// routes and its still-queued requests are re-routed to the survivors
// (marked migrated). With FleetConfig::migrate_on_throttle, a frame that
// trips throttle likewise drains the device's queue to the rest of the
// pool -- work shifts away from a hot die before the backlog bakes on it.
//
// Each pool slot is a serving::Station (serving/engine.hpp), the same
// per-device serve step ServingEngine runs once: device start-up, the
// `<id>/pretrain/<dataset>` warm-up, served and shed ledger rows and the
// expected-service EWMA. What stays fleet-only: routing, staging, migration,
// failure drains (and their router instants), the expected-service prior
// seeded from the pretrain constraint, and governor seeds derived per device
// id (see governor_seed).
//
// run() is const and reentrant: every call builds its own devices,
// engines, governors, router and queues, so harness episodes execute from
// concurrent threads byte-identically to a serial run.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fleet/fleet.hpp"
#include "fleet/trace.hpp"
#include "governors/governor.hpp"
#include "serving/request.hpp"

namespace lotus::fleet {

class FleetEngine {
public:
    /// Per-device governor factory: called once per device with THAT
    /// device's spec and a seed derived from (governor root seed, device
    /// id, device index). Heterogeneous pools need the spec -- a governor
    /// sized for an Orin's OPP ladder must not drive a phone (wrong level
    /// counts, wrong thermal thresholds).
    using GovernorFactory = std::function<std::unique_ptr<governors::Governor>(
        const platform::DeviceSpec& spec, std::uint64_t seed)>;

    /// Validates the config (throws std::invalid_argument on an empty pool,
    /// duplicate device ids, invalid streams -- see serving::validate_load
    /// -- or unknown schedulers/routers).
    explicit FleetEngine(FleetConfig config);

    /// Serve the merged timeline to completion; one governor per device.
    [[nodiscard]] FleetTrace run(const GovernorFactory& make_governor,
                                 std::uint64_t governor_seed_root) const;

    /// The seed handed to the governor factory for device `index` -- a pure
    /// function of (root, device id, index), exposed so tests can pin the
    /// per-device namespacing.
    [[nodiscard]] std::uint64_t governor_seed(std::uint64_t governor_seed_root,
                                              std::size_t index) const;

    [[nodiscard]] const FleetConfig& config() const noexcept { return config_; }

private:
    FleetConfig config_;
};

} // namespace lotus::fleet
