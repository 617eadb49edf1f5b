#pragma once
// ServingEngine: multiplexes N request streams onto one simulated device.
//
// The serving analogue of runtime::ExperimentRunner. One run pulls the
// merged request timeline from a RequestSource -- generated from the
// streams' arrival processes (pure functions of the config seed) or read
// from a recorded trace -- one request ahead of the clock, and serves it on
// a single EdgeDevice + InferenceEngine under the chosen scheduling policy:
//
//  * the device is the shared resource -- thermal state carries across
//    interleaved streams, so a burst on stream 3 heats the silicon that
//    stream 0's next frame runs on;
//  * queue wait counts against each request's deadline: the governor's
//    observations and reward see *end-to-end* (queue + inference) latency,
//    so a learning governor experiences queueing pressure as deadline
//    pressure (InferenceEngine::run_frame's queue_wait_s plumbing);
//  * idle gaps are simulated, not skipped -- they are when the device cools
//    and timer-driven governors keep ticking;
//  * shed requests (admission control) count as SLO violations.
//
// run() is const and reentrant: every call builds its own Station (device,
// engine, scheduler, queue) and streams, so harness episodes execute from
// concurrent threads, one governor per thread, byte-identically to a serial
// run.
//
// The Station below is the per-device serve step fleet::FleetEngine runs
// once per pool slot.

#include <optional>

#include "governors/governor.hpp"
#include "runtime/engine.hpp"
#include "serving/request.hpp"
#include "serving/scheduler.hpp"
#include "serving/trace.hpp"
#include "trace/format.hpp"

namespace lotus::telemetry {
class Recorder;
}

namespace lotus::serving {

/// Tolerance when comparing a simulated clock against arrival (or staging)
/// times: the idle integrator sums slices, so a clock can land a few ulps
/// short of the instant it targeted. Guarantees event loops make progress.
inline constexpr double kTimeEps = 1e-9;

/// The merged request timeline of a stream set, drawn one request at a
/// time. Each stream's arrival times and frame samples are pure functions
/// of (seed, stream name, stream index); a k-way merge over one pending
/// request per stream yields them in trace::arrives_before order, with ids
/// numbering that order (so every scheduler tie-break is a pure function of
/// the timeline). Memory is O(streams), whatever the request count.
class RequestTimeline {
public:
    /// Throws std::invalid_argument on an unknown dataset or an arrival
    /// spec ArrivalGenerator rejects.
    RequestTimeline(const std::vector<StreamSpec>& streams, std::uint64_t seed);

    /// Requests over all streams.
    [[nodiscard]] std::size_t size() const noexcept { return size_; }

    /// Store the next request in `out`; false once every stream is drained.
    bool next(Request& out);

private:
    struct Head {
        ArrivalGenerator arrivals;
        workload::FrameStream frames;
        Request pending;
        bool live = false;
    };
    void refill(Head& head);

    std::vector<Head> heads_;
    std::size_t size_ = 0;
    std::size_t next_id_ = 0;
};

/// The timeline a load serves, pulled one request at a time: the .ltrc
/// trace at load.replay_trace when set, else the RequestTimeline of
/// load.streams under load.seed. Both engines serve from one and
/// trace::write_trace drains one, in O(streams) memory.
class RequestSource {
public:
    /// Throws std::runtime_error on an unreadable trace or a stream table
    /// other than load.streams', else what RequestTimeline throws.
    explicit RequestSource(const LoadConfig& load);

    /// Requests in the timeline (a replayed trace's record count).
    [[nodiscard]] std::size_t size() const noexcept;

    /// Store the next request in `out`; false once the timeline is drained.
    bool next(Request& out);

    /// The rest of the timeline, in order.
    [[nodiscard]] std::vector<Request> drain();

private:
    std::optional<trace::Reader> reader_;
    std::optional<RequestTimeline> timeline_;
};

/// The whole RequestTimeline of a stream set, in order.
[[nodiscard]] std::vector<Request> build_request_timeline(
    const std::vector<StreamSpec>& streams, std::uint64_t seed);

/// Throws std::invalid_argument (stream errors prefixed with `owner`) on an
/// empty stream set, a stream with zero requests, a non-positive SLO, an
/// unknown dataset, an arrival spec ArrivalGenerator rejects or an unknown
/// scheduler.
void validate_load(const LoadConfig& load, const std::string& owner);

/// Ledger row of request `r`, shed at `now_s` by `device` (kNoDevice: the
/// fleet router) at the given temperatures.
[[nodiscard]] ServingRecord shed_record(const Request& r, double now_s, std::size_t device,
                                        double cpu_temp, double gpu_temp);

/// The request-lifecycle telemetry both engines emit into the thread's
/// telemetry::current() recorder; every call is a no-op when recording is
/// off. A request is one async span on its stream's track ("streams"
/// process) from arrival to served/missed/shed, each outcome also lands in
/// the rollup, and every miss or shed is a breach on the device's
/// "platform" track, so the flight recorder snapshots what that device was
/// doing. Device-level events go to the device's "queue" track. Devices are
/// addressed by index into the labels given at construction; kNoDevice is
/// the fleet router, which sheds on "fleet"/"router" when no device is
/// left. Device tracks are created on first use and their ids cached, so
/// an event costs no track lookup.
class RequestTelemetry {
public:
    /// Creates the stream tracks, in stream order. `streams` must outlive
    /// the emitter.
    RequestTelemetry(const std::vector<StreamSpec>& streams, std::vector<std::string> devices);

    void arrival(const Request& r);
    void dispatch(std::size_t device, const Request& r, double now_s, double wait_s);
    /// `row` is a served ledger row (with its `device` set), completed at
    /// `done_s`.
    void served(const ServingRecord& row, double done_s);
    void shed(std::size_t device, const Request& r, double now_s);
    /// Counter sample, recorded only when `depth` changed since the last one.
    void queue_depth(std::size_t device, double t_s, std::size_t depth);

private:
    /// The cached track id in `slot`, creating (process, thread) on first use.
    int track(int& slot, const std::string& process, const char* thread);

    telemetry::Recorder* tel_;
    const std::vector<StreamSpec>& streams_;
    std::vector<int> stream_tracks_;
    std::vector<std::string> devices_;
    std::vector<std::size_t> depths_; // last recorded queue depth per device
    std::vector<int> queue_tracks_;    // per device, -1 until first use
    std::vector<int> platform_tracks_; // per device, -1 until first use
    const std::string router_process_ = "fleet";
    int router_track_ = -1;
};

/// One device serving its own queue: the EdgeDevice and its
/// InferenceEngine, the scheduler and RequestQueue in front of them, the
/// frames run so far and the expected-service estimate (the scheduler's and
/// router's pace prior). ServingEngine runs one station; fleet::FleetEngine
/// runs one per pool slot.
class Station {
public:
    /// A device fresh from `spec` -- at its initial_ambient_celsius, in
    /// equilibrium -- numbered `index` in its engine's ledger and telemetry.
    /// Throws std::invalid_argument on an unknown scheduler.
    Station(const platform::DeviceSpec& spec, const std::string& scheduler,
            const detector::DetectorModel& model, std::size_t index);

    /// Unrecorded warm-up of `governor` (runtime::pretrain) against
    /// `constraint_s`: load.pretrain_iterations frames of stream 0's dataset,
    /// drawn from the `<prefix>pretrain/<dataset>` seed namespace -- prefix
    /// "" on one device, "<id>/" in a fleet.
    void warm_up(const LoadConfig& load, const std::string& prefix,
                 governors::Governor& governor, double constraint_s);

    /// Ledger row of `r`, shed at `now_s` at this device's temperatures;
    /// emits the shed telemetry.
    [[nodiscard]] ServingRecord shed(const Request& r, double now_s,
                                     RequestTelemetry& tel) const;

    /// Dispatch `r` at `now_s` and run it under `governor`, emitting the
    /// dispatch and served telemetry; the service time folds into
    /// expected_service_s. Returns the served ledger row.
    ServingRecord serve(const Request& r, double now_s, governors::Governor& governor,
                        RequestTelemetry& tel);

    platform::EdgeDevice device;
    runtime::InferenceEngine engine;
    std::unique_ptr<Scheduler> scheduler;
    RequestQueue queue;
    /// Frames served (the engine's iteration index).
    std::size_t frames = 0;
    /// EWMA of service times; 0 (no estimate) until the first sample
    /// unless the owner seeds a prior.
    double expected_service_s = 0.0;

private:
    const detector::DetectorModel& model_;
    std::size_t index_;
};

class ServingEngine {
public:
    /// Validates the config (throws std::invalid_argument on empty streams,
    /// non-positive SLOs, invalid arrival specs, unknown datasets or
    /// schedulers).
    explicit ServingEngine(ServingConfig config);

    /// Serve every stream's requests to completion under the governor.
    [[nodiscard]] ServingTrace run(governors::Governor& governor) const;

    /// The merged, arrival-ordered request timeline this config serves: its
    /// RequestSource, drained (exposed for tests and load inspection).
    [[nodiscard]] std::vector<Request> build_requests() const;

    [[nodiscard]] const ServingConfig& config() const noexcept { return config_; }

private:
    ServingConfig config_;
};

} // namespace lotus::serving
