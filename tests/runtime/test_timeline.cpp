// Tests for the unified simulation timeline: EdgeDevice::advance as the
// single time-advance authority. Pins the PR-3 bug class -- throttle events
// inside DVFS transitions or decision-overhead windows were invisible to
// run_frame -- and the kernel-tick delivery guarantees (exact cadence
// across work, idle, DVFS stalls and decision overhead, and through the
// engine's work slices).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "detector/model.hpp"
#include "governors/governor.hpp"
#include "platform/presets.hpp"
#include "runtime/engine.hpp"
#include "workload/dataset.hpp"

namespace lotus::runtime {
namespace {

/// Spy that records every hook call; optionally requests levels / charges
/// overhead / runs ticks, like the one in test_engine.cpp.
class SpyGovernor final : public governors::Governor {
public:
    [[nodiscard]] std::string name() const override { return "spy"; }
    governors::LevelRequest on_frame_start(const governors::Observation&) override {
        return start_request;
    }
    governors::LevelRequest on_post_rpn(const governors::Observation&) override {
        return rpn_request;
    }
    [[nodiscard]] double tick_interval_s() const override { return tick_interval; }
    governors::LevelRequest on_tick(const governors::TickObservation& tick) override {
        ticks.push_back(tick);
        return governors::LevelRequest::none();
    }
    [[nodiscard]] double decision_overhead_s() const override { return overhead; }

    std::vector<governors::TickObservation> ticks;
    governors::LevelRequest start_request = governors::LevelRequest::none();
    governors::LevelRequest rpn_request = governors::LevelRequest::none();
    double tick_interval = 0.0;
    double overhead = 0.0;
};

/// A two-level, zero-power device whose thermal nodes decay towards ambient
/// with a 50 ms time constant. Constructed hot (ambient 60 C) and then
/// re-pointed at a 25 C ambient, its dies cross the 35 C trip downwards a
/// few polls into the run: the throttler engages at the 0.05 s poll and
/// fully releases at the 0.10 s poll, i.e. ONLY inside a window shorter
/// than the 0.2 s DVFS transition / decision overhead used below.
platform::DeviceSpec toy_hot_spec() {
    const platform::ThrottleParams throttle{/*trip=*/35.0, /*hysteresis=*/5.0,
                                            /*poll=*/0.05, /*clamp_level=*/0,
                                            /*num_levels=*/2};
    platform::DeviceSpec spec{
        .name = "toy",
        .cpu =
            platform::DomainSpec{
                .opp = platform::OppTable("cpu", {{1.0e9, 0.6}, {2.0e9, 0.9}}),
                .power = platform::PowerParams{}, // c_eff = leak0 = 0: no heat
                .ops_per_cycle = 1.0,
            },
        .gpu =
            platform::DomainSpec{
                .opp = platform::OppTable("gpu", {{1.0e9, 0.6}, {2.0e9, 0.9}}),
                .power = platform::PowerParams{},
                .ops_per_cycle = 1.0,
            },
        .thermal =
            platform::ThermalParams{
                .capacity = {0.05, 0.05, 0.05},
                .g_to_board = {0.0, 0.0, 0.0},
                .g_to_ambient = {1.0, 1.0, 1.0},
                .initial = {25.0, 25.0, 25.0},
            },
        .cpu_throttle = throttle,
        .gpu_throttle = throttle,
        .mem_bandwidth = 1.0e9,
        .dvfs_latency_s = 0.2,
        .initial_ambient_celsius = 60.0,
    };
    return spec;
}

/// ~4 ms of work on the toy device at its low OPP level (with the default
/// backbone).
detector::DetectorModel toy_model(double backbone_gpu_ops = 2e6) {
    detector::DetectorSpec spec;
    spec.name = "toy-rcnn";
    spec.kind = detector::DetectorKind::faster_rcnn;
    spec.preprocess = {1e6, 0.0, 0.0};
    spec.backbone = {0.0, backbone_gpu_ops, 0.0};
    spec.rpn = {0.0, 0.5e6, 0.0};
    spec.roi_base = {0.0, 0.2e6, 0.0};
    spec.roi_per_proposal = {0.0, 1e3, 0.0};
    spec.post_base = {0.1e6, 0.0, 0.0};
    spec.post_per_kept = {1e2, 0.0, 0.0};
    return detector::DetectorModel(spec);
}

workload::FrameSample toy_frame() {
    workload::FrameSample f;
    f.resolution_scale = 1.0;
    f.complexity = 1.0;
    f.proposals = 100;
    f.jitter = 1.0;
    return f;
}

// ---------------------------------------------------------------------------
// The PR-3 regression: throttle events confined to a DVFS transition or a
// decision-overhead window must surface in FrameResult::throttled. Before
// the single time-advance authority, request_levels() advanced the clock
// behind the engine's back and a trip+release inside one engine-invisible
// window was lost.
// ---------------------------------------------------------------------------

TEST(UnifiedTimeline, ThrottleInsideDvfsTransitionIsObserved) {
    platform::EdgeDevice device(toy_hot_spec());
    device.set_ambient(25.0); // dies start at 60 C and cool from here on
    InferenceEngine engine(device);

    SpyGovernor gov;
    gov.start_request = governors::LevelRequest::set(0, 0); // from (1,1): DVFS stall
    const auto r = engine.run_frame(toy_model(), toy_frame(), gov, 1.0, 0);

    // The trip engaged at t=0.05 and fully released at t=0.10, both inside
    // the 0.2 s transition -- before any work slice ran.
    EXPECT_TRUE(r.throttled);
    EXPECT_FALSE(device.throttled())
        << "engagement should be over by frame end; the flag must pin the transient";
    EXPECT_GT(r.latency_s, 0.2); // the stall is charged to the frame
}

TEST(UnifiedTimeline, ThrottleInsideDecisionOverheadIsObserved) {
    platform::EdgeDevice device(toy_hot_spec());
    device.set_ambient(25.0);
    InferenceEngine engine(device);

    SpyGovernor gov;
    gov.overhead = 0.2; // trip + full release happen inside this idle window
    const auto r = engine.run_frame(toy_model(), toy_frame(), gov, 1.0, 0);

    EXPECT_TRUE(r.throttled);
    EXPECT_FALSE(device.throttled());
}

// ---------------------------------------------------------------------------
// Kernel-tick delivery guarantees.
// ---------------------------------------------------------------------------

TEST(UnifiedTimeline, TicksFireAtExactCadenceAcrossIdle) {
    platform::EdgeDevice device(platform::orin_nano_spec());
    InferenceEngine engine(device);
    SpyGovernor gov;
    gov.tick_interval = 0.02;
    engine.run_idle(1.0, gov);

    ASSERT_EQ(gov.ticks.size(), 50u);
    for (std::size_t k = 0; k < gov.ticks.size(); ++k) {
        EXPECT_NEAR(gov.ticks[k].now_s, 0.02 * static_cast<double>(k + 1), 1e-9);
    }
}

TEST(UnifiedTimeline, TicksKeepFiringDuringDvfsTransition) {
    auto spec = toy_hot_spec();
    spec.initial_ambient_celsius = 25.0; // cool: no throttling noise
    spec.cpu_throttle.trip_celsius = 1000.0;
    spec.gpu_throttle.trip_celsius = 1000.0;
    platform::EdgeDevice device(spec);
    InferenceEngine engine(device);

    SpyGovernor gov;
    gov.tick_interval = 0.03;
    gov.start_request = governors::LevelRequest::set(0, 0); // 0.2 s stall at t=0
    engine.run_frame(toy_model(), toy_frame(), gov, 1.0, 0);

    // Ticks at 0.03 .. 0.18 all land inside the transition window.
    std::size_t in_transition = 0;
    for (const auto& t : gov.ticks) {
        if (t.now_s < 0.2 - 1e-9) {
            ++in_transition;
            EXPECT_NEAR(std::remainder(t.now_s, 0.03), 0.0, 1e-9);
        }
    }
    EXPECT_EQ(in_transition, 6u);
}

TEST(UnifiedTimeline, TicksKeepFiringDuringDecisionOverhead) {
    auto spec = toy_hot_spec();
    spec.initial_ambient_celsius = 25.0;
    spec.cpu_throttle.trip_celsius = 1000.0;
    spec.gpu_throttle.trip_celsius = 1000.0;
    platform::EdgeDevice device(spec);
    InferenceEngine engine(device);

    SpyGovernor gov;
    gov.tick_interval = 0.03;
    gov.overhead = 0.1; // frame-start overhead window [0, 0.1]
    engine.run_frame(toy_model(), toy_frame(), gov, 1.0, 0);

    ASSERT_GE(gov.ticks.size(), 3u);
    EXPECT_NEAR(gov.ticks[0].now_s, 0.03, 1e-9);
    EXPECT_NEAR(gov.ticks[1].now_s, 0.06, 1e-9);
    EXPECT_NEAR(gov.ticks[2].now_s, 0.09, 1e-9);
}

TEST(UnifiedTimeline, TickCadenceSurvivesWorkSlicing) {
    // ~2 s of backbone work at the toy device's 1 GHz level: the engine
    // commits it in bounded slices whose ends fall between tick deadlines.
    platform::EdgeDevice device(toy_hot_spec());
    InferenceEngine engine(device);
    SpyGovernor gov;
    gov.tick_interval = 0.02;
    engine.run_frame(toy_model(2e9), toy_frame(), gov, 5.0, 0);
    engine.run_idle(0.5, gov);

    ASSERT_GT(device.now(), 2.0);
    ASSERT_FALSE(gov.ticks.empty());
    for (std::size_t k = 0; k < gov.ticks.size(); ++k) {
        EXPECT_NEAR(gov.ticks[k].now_s, 0.02 * static_cast<double>(k + 1), 1e-6) << k;
    }
    EXPECT_LT(device.now() - gov.ticks.back().now_s, 0.02 + 1e-9);
}

} // namespace
} // namespace lotus::runtime
