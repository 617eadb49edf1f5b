#pragma once
// Governor interface.
//
// A governor decides the CPU/GPU OPP levels of the device. Two kinds of
// hooks mirror how real systems work:
//
//  * Frame-grained decision points -- on_frame_start / on_post_rpn /
//    on_frame_end -- are the application-aware hooks the paper's agents use
//    (zTT acts once per frame; LOTUS acts at both decision points,
//    Sec. 4.2-4.3). on_post_rpn is only invoked for two-stage detectors.
//
//  * Kernel-grained on_tick, invoked every tick_interval_s of simulated time
//    with the observed domain utilizations -- this is how the Linux
//    governors (schedutil, simple_ondemand, ...) actually run: on a timer,
//    application-agnostic.
//
// Tick delivery contract (enforced by the single time-advance authority,
// EdgeDevice::advance, with the InferenceEngine as its AdvanceListener):
//  * ticks fire at the governor's exact cadence -- now_s is a precise
//    multiple of tick_interval_s past the first bind -- for ALL simulated
//    time: work slices, idle gaps (run_idle), agent decision overhead and
//    DVFS-transition stalls alike;
//  * the tick count over a span of simulated time is therefore invariant to
//    how the engine slices its work integration;
//  * a level request returned from on_tick takes effect immediately
//    (mid-stage); its DVFS stall is charged on top of the in-flight slice,
//    and ticks keep firing during the stall;
//  * observations carry the temperatures evaluated at the exact tick
//    instant -- the thermal stepper splits its integration segments at tick
//    deadlines and throttle-poll instants.
//
// Agent-based governors also declare a per-decision communication overhead
// (the paper's client <-> agent socket messages plus the Q-network forward
// pass, Sec. 4.4.2); the engine charges it to the frame latency.

#include <cstddef>
#include <string>

namespace lotus::governors {

/// Snapshot available at a frame-grained decision point.
struct Observation {
    std::size_t iteration = 0;
    double now_s = 0.0;
    double cpu_temp = 0.0;
    double gpu_temp = 0.0;
    /// Granted (throttle-clamped) levels.
    std::size_t cpu_level = 0;
    std::size_t gpu_level = 0;
    std::size_t cpu_levels = 1;
    std::size_t gpu_levels = 1;
    double latency_constraint_s = 0.0;
    /// End-to-end latency of the previous frame, queueing delay included
    /// (0 before the first frame completes).
    double last_frame_latency_s = 0.0;
    /// Time already counted against the current frame's deadline: the queue
    /// wait at the frame-start decision, queue wait + stage-1 execution at
    /// the post-RPN decision.
    double elapsed_in_frame_s = 0.0;
    /// Queueing delay the current frame suffered before execution started
    /// (serving runtime; 0 in the one-frame-at-a-time experiment loop).
    double queue_wait_s = 0.0;
    /// RPN proposal count; -1 at the frame-start decision (not yet known).
    int proposals = -1;
    bool throttled = false;
};

/// Snapshot for the kernel-timer hook.
struct TickObservation {
    double now_s = 0.0;
    double dt_s = 0.0;
    double cpu_util = 0.0;
    double gpu_util = 0.0;
    double cpu_temp = 0.0;
    double gpu_temp = 0.0;
    std::size_t cpu_level = 0;
    std::size_t gpu_level = 0;
    std::size_t cpu_levels = 1;
    std::size_t gpu_levels = 1;
};

/// A (possibly absent) joint frequency request.
struct LevelRequest {
    bool has_request = false;
    std::size_t cpu = 0;
    std::size_t gpu = 0;

    [[nodiscard]] static LevelRequest none() noexcept { return {}; }
    [[nodiscard]] static LevelRequest set(std::size_t cpu_level, std::size_t gpu_level) noexcept {
        return {true, cpu_level, gpu_level};
    }
};

/// Everything known once a frame finishes; learning governors compute their
/// reward and train here.
struct FrameOutcome {
    std::size_t iteration = 0;
    /// Simulated time at frame completion (when this outcome is delivered);
    /// lets learning governors timestamp their telemetry on the sim clock.
    double now_s = 0.0;
    /// End-to-end latency: queue wait + execution. This is what learning
    /// governors score against the constraint -- under a serving queue the
    /// deadline is burnt by waiting just as surely as by slow inference.
    double latency_s = 0.0;
    /// Queueing delay component of latency_s (0 outside the serving runtime).
    double queue_wait_s = 0.0;
    double stage1_latency_s = 0.0;
    double stage2_latency_s = 0.0;
    int proposals = 0;
    double cpu_temp = 0.0;
    double gpu_temp = 0.0;
    double latency_constraint_s = 0.0;
    bool throttled = false;
    double energy_j = 0.0;
};

class Governor {
public:
    virtual ~Governor() = default;

    [[nodiscard]] virtual std::string name() const = 0;

    /// Decision at the start of a frame (proposals unknown).
    virtual LevelRequest on_frame_start(const Observation&) { return LevelRequest::none(); }

    /// Decision after the RPN emitted its proposals (two-stage models only).
    virtual LevelRequest on_post_rpn(const Observation&) { return LevelRequest::none(); }

    /// Frame completed; learning hooks live here.
    virtual void on_frame_end(const FrameOutcome&) {}

    /// Kernel-timer cadence; 0 disables ticks.
    [[nodiscard]] virtual double tick_interval_s() const { return 0.0; }

    virtual LevelRequest on_tick(const TickObservation&) { return LevelRequest::none(); }

    /// Communication + network-inference overhead charged per decision point.
    [[nodiscard]] virtual double decision_overhead_s() const { return 0.0; }
};

} // namespace lotus::governors
