#pragma once
// InferenceEngine: executes detector frames on the simulated device.
//
// The engine is the "client" side of the paper's architecture: it runs the
// detector pipeline stage by stage, calls the governor at the two decision
// points (frame start, post-RPN) and charges agent communication overhead
// to the frame. Time only moves through EdgeDevice::advance; the engine
// registers itself as the device's AdvanceListener, so kernel ticks fire at
// their exact cadence and throttle flips are observed for *all* advanced
// time -- work slices, idle gaps, decision overhead and DVFS transitions
// alike. Work accounting is exact: the device interrupts a work slice the
// moment the granted frequency changes (advance_work), so the throughput
// sampled at the top of a slice holds for the whole interval it covers.

#include <cstddef>

#include "detector/model.hpp"
#include "governors/governor.hpp"
#include "platform/device.hpp"
#include "workload/dataset.hpp"

namespace lotus::runtime {

struct FrameResult {
    std::size_t iteration = 0;
    double start_time_s = 0.0;
    /// Queueing delay charged to this frame before execution began (serving
    /// runtime); 0 for the classic one-frame-at-a-time experiment loop.
    double queue_wait_s = 0.0;
    /// Device-side execution latency (stage1 + stage2 + decision overhead).
    double latency_s = 0.0;
    double stage1_s = 0.0;
    double stage2_s = 0.0;
    int proposals_raw = 0;
    int proposals_used = 0;
    double cpu_temp = 0.0; // at frame end
    double gpu_temp = 0.0;
    std::size_t cpu_level_stage1 = 0;
    std::size_t gpu_level_stage1 = 0;
    std::size_t cpu_level_stage2 = 0;
    std::size_t gpu_level_stage2 = 0;
    double energy_j = 0.0;
    bool throttled = false;
    double constraint_s = 0.0;

    /// Queue wait + execution: what a client (and the governor's reward)
    /// experiences end to end.
    [[nodiscard]] double e2e_latency_s() const noexcept { return queue_wait_s + latency_s; }
};

class InferenceEngine final : private platform::AdvanceListener {
public:
    /// Registers the engine as `device`'s advance listener for its lifetime
    /// (one engine per device).
    explicit InferenceEngine(platform::EdgeDevice& device);
    ~InferenceEngine() override;
    InferenceEngine(const InferenceEngine&) = delete;
    InferenceEngine& operator=(const InferenceEngine&) = delete;

    /// Execute one frame under the given governor and latency constraint.
    /// `queue_wait_s` is delay already suffered before execution (serving
    /// queues): it counts against the constraint in the governor's
    /// observations (elapsed time) and reward (end-to-end latency), exactly
    /// as a deadline-bound client would account it.
    FrameResult run_frame(const detector::DetectorModel& model,
                          const workload::FrameSample& frame, governors::Governor& governor,
                          double latency_constraint_s, std::size_t iteration,
                          double queue_wait_s = 0.0);

    /// Advance the device through an idle gap (no request to serve): the CPU
    /// idles, the GPU is off, temperatures decay and timer-driven governors
    /// keep receiving their kernel ticks -- idle periods are when a heat-
    /// soaked device recovers headroom, so they must be simulated, not
    /// skipped.
    void run_idle(double duration_s, governors::Governor& governor);

    /// Forget cross-frame state (last latency, tick phase); used between the
    /// pre-training and measured phases of an experiment.
    void reset();

    [[nodiscard]] double last_frame_latency_s() const noexcept { return last_latency_; }

private:
    // --- platform::AdvanceListener (tick delivery + throttle observation) --
    [[nodiscard]] double next_event_s() const override;
    void on_event(double now_s, double cpu_util, double gpu_util) override;
    void on_throttle(double now_s, bool cpu_engaged, bool gpu_engaged) override;

    /// Bind the governor for the current run_frame/run_idle scope and lazily
    /// initialise the tick phase.
    void bind(governors::Governor& governor);

    [[nodiscard]] governors::Observation make_observation(std::size_t iteration,
                                                          double constraint_s,
                                                          double elapsed_s, int proposals,
                                                          double queue_wait_s) const;
    void apply(const governors::LevelRequest& request);
    void charge_decision_overhead();
    void execute_cpu_work(double ops);
    void execute_gpu_work(double ops, double bytes);

    platform::EdgeDevice& device_;
    governors::Governor* gov_ = nullptr;
    double tick_interval_s_ = 0.0; // gov_'s, read once per bind()
    double last_latency_ = 0.0;
    double next_tick_due_ = 0.0;
    bool tick_initialized_ = false;
    bool frame_saw_throttle_ = false;
};

} // namespace lotus::runtime
