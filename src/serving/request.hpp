#pragma once
// Request model for the multi-stream serving runtime.
//
// A Request is one frame submitted by one client stream: it arrives at a
// point in simulated time, carries the stream's latency SLO as a relative
// deadline, and waits in its device's RequestQueue until the scheduler
// dispatches it. Everything the serving layer accounts -- queue wait,
// shedding, deadline misses -- hangs off this struct.
//
// A StreamSpec describes one client stream: which dataset its frames come
// from (workload intensity), its SLO, how many requests it emits and the
// arrival process that times them. LoadConfig bundles N streams with the
// detector, scheduler, warm-up and seed both engines share; ServingConfig
// adds the one device -- the serving analogue of runtime::ExperimentConfig.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "detector/model.hpp"
#include "platform/device.hpp"
#include "serving/arrivals.hpp"
#include "workload/dataset.hpp"

namespace lotus::serving {

/// The device index of "no device": a fleet router-level shed in a ledger
/// row and in RequestTelemetry, and a router's "nothing available" pick.
inline constexpr std::size_t kNoDevice = static_cast<std::size_t>(-1);

/// One in-flight inference request.
struct Request {
    /// Global sequence number in arrival order (ties broken by stream index).
    std::size_t id = 0;
    /// Index into ServingConfig::streams.
    std::size_t stream = 0;
    double arrival_s = 0.0;
    /// Relative deadline (the stream's SLO).
    double slo_s = 0.0;
    workload::FrameSample frame;

    [[nodiscard]] double deadline_s() const noexcept { return arrival_s + slo_s; }
};

/// One client stream feeding the serving runtime.
struct StreamSpec {
    std::string name;
    std::string dataset = "KITTI";
    /// End-to-end latency SLO (relative deadline) per request [s].
    double slo_s = 0.5;
    /// Number of requests this stream emits over the run.
    std::size_t requests = 100;
    ArrivalSpec arrival;
};

/// The load half of a serving or fleet experiment: the streams, what serves
/// them, and how a run is seeded, warmed up and recorded. ServingConfig and
/// fleet::FleetConfig add only where the requests run.
struct LoadConfig {
    detector::DetectorKind detector = detector::DetectorKind::faster_rcnn;
    std::vector<StreamSpec> streams;
    /// Per-device queue policy: "fifo", "edf" or "edf_admit" (see
    /// make_scheduler).
    std::string scheduler = "edf";
    /// Unrecorded warm-up frames per learning governor (stream 0's dataset,
    /// one stream per device); the device cold-restarts afterwards, the
    /// agent keeps its learned weights -- mirrors runtime::ExperimentRunner.
    std::size_t pretrain_iterations = 0;
    /// Latency constraint used during pre-training [s]; 0 means stream 0's
    /// SLO. Serving SLOs include queueing headroom, so pre-training against
    /// them teaches a learning governor to dawdle; scenarios set the
    /// device-calibrated per-frame constraint instead, which is the service
    /// pace a saturated queue actually needs.
    double pretrain_constraint_s = 0.0;
    std::uint64_t seed = 42;
    /// Store the per-request ledger rows. Summaries come from the same live
    /// accumulators either way; turn off when no CSV dump or chart column
    /// extraction needs the rows.
    bool capture_rows = true;
    /// Path of a recorded .ltrc trace to replay instead of generating the
    /// timeline from the streams' arrival processes. The trace's stream
    /// table must match `streams` (name, dataset, SLO, request count);
    /// everything downstream of the timeline is then byte-identical to the
    /// generating run. Empty (default) generates analytically.
    std::string replay_trace;

    /// The warm-up constraint: pretrain_constraint_s, else stream 0's SLO.
    [[nodiscard]] double warm_up_constraint_s() const {
        return pretrain_constraint_s > 0.0 ? pretrain_constraint_s : streams.front().slo_s;
    }
};

/// The full serving experiment: N streams multiplexed onto one device, which
/// starts at its spec's initial_ambient_celsius. (Constructed from its
/// DeviceSpec because DeviceSpec has no empty state.)
struct ServingConfig : LoadConfig {
    explicit ServingConfig(platform::DeviceSpec spec) : device_spec(std::move(spec)) {}

    platform::DeviceSpec device_spec;
};

} // namespace lotus::serving
