// Tests for the inference engine: stage structure, decision-point order,
// overhead accounting, governor ticks and throttling interaction.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "governors/linux_governors.hpp"
#include "platform/presets.hpp"
#include "runtime/engine.hpp"
#include "workload/dataset.hpp"

namespace lotus::runtime {
namespace {

workload::FrameSample frame_with(int proposals, double jitter = 1.0,
                                 double resolution = 1.0) {
    workload::FrameSample f;
    f.resolution_scale = resolution;
    f.complexity = 1.0;
    f.proposals = proposals;
    f.jitter = jitter;
    return f;
}

/// Records the engine's calls for structural assertions.
class SpyGovernor final : public governors::Governor {
public:
    [[nodiscard]] std::string name() const override { return "spy"; }

    governors::LevelRequest on_frame_start(const governors::Observation& obs) override {
        start_calls.push_back(obs);
        return start_request;
    }
    governors::LevelRequest on_post_rpn(const governors::Observation& obs) override {
        rpn_calls.push_back(obs);
        return rpn_request;
    }
    void on_frame_end(const governors::FrameOutcome& outcome) override {
        outcomes.push_back(outcome);
    }
    [[nodiscard]] double tick_interval_s() const override { return tick_interval; }
    governors::LevelRequest on_tick(const governors::TickObservation& tick) override {
        ticks.push_back(tick);
        return governors::LevelRequest::none();
    }
    [[nodiscard]] double decision_overhead_s() const override { return overhead; }

    std::vector<governors::Observation> start_calls;
    std::vector<governors::Observation> rpn_calls;
    std::vector<governors::FrameOutcome> outcomes;
    std::vector<governors::TickObservation> ticks;
    governors::LevelRequest start_request = governors::LevelRequest::none();
    governors::LevelRequest rpn_request = governors::LevelRequest::none();
    double tick_interval = 0.0;
    double overhead = 0.0;
};

class EngineTest : public ::testing::Test {
protected:
    EngineTest()
        : device_(platform::orin_nano_spec()),
          engine_(device_),
          model_(detector::faster_rcnn_r50()) {}

    platform::EdgeDevice device_;
    InferenceEngine engine_;
    detector::DetectorModel model_;
};

TEST_F(EngineTest, CallsHooksInOrderForTwoStage) {
    SpyGovernor gov;
    const auto result = engine_.run_frame(model_, frame_with(150), gov, 0.45, 0);
    ASSERT_EQ(gov.start_calls.size(), 1u);
    ASSERT_EQ(gov.rpn_calls.size(), 1u);
    ASSERT_EQ(gov.outcomes.size(), 1u);
    // The frame-start observation must not know the proposal count.
    EXPECT_EQ(gov.start_calls[0].proposals, -1);
    EXPECT_EQ(gov.rpn_calls[0].proposals, 150);
    EXPECT_GT(gov.rpn_calls[0].elapsed_in_frame_s, 0.0);
    EXPECT_EQ(result.proposals_used, 150);
}

TEST_F(EngineTest, SkipsPostRpnForOneStage) {
    SpyGovernor gov;
    const auto yolo = detector::yolov5s();
    engine_.run_frame(yolo, frame_with(100), gov, 0.20, 0);
    EXPECT_EQ(gov.start_calls.size(), 1u);
    EXPECT_TRUE(gov.rpn_calls.empty());
    EXPECT_EQ(gov.outcomes.size(), 1u);
}

TEST_F(EngineTest, LatencyDecomposesIntoStages) {
    SpyGovernor gov;
    const auto r = engine_.run_frame(model_, frame_with(150), gov, 0.45, 0);
    EXPECT_GT(r.stage1_s, 0.0);
    EXPECT_GT(r.stage2_s, 0.0);
    EXPECT_NEAR(r.latency_s, r.stage1_s + r.stage2_s, 1e-9);
    // Stage 1 dominates (~80%, Sec. 4.2).
    EXPECT_GT(r.stage1_s / r.latency_s, 0.7);
}

TEST_F(EngineTest, MoreProposalsMoreStage2Latency) {
    SpyGovernor gov;
    const auto r_low = engine_.run_frame(model_, frame_with(50), gov, 0.45, 0);
    device_.reset();
    engine_.reset();
    const auto r_high = engine_.run_frame(model_, frame_with(500), gov, 0.45, 1);
    EXPECT_GT(r_high.stage2_s, r_low.stage2_s * 1.5);
    // Stage 1 is proposal-independent.
    EXPECT_NEAR(r_high.stage1_s, r_low.stage1_s, r_low.stage1_s * 0.02);
}

TEST_F(EngineTest, LowerFrequencyMeansHigherLatency) {
    SpyGovernor fast;
    fast.start_request = governors::LevelRequest::set(7, 5);
    const auto r_fast = engine_.run_frame(model_, frame_with(150), fast, 0.45, 0);
    device_.reset();
    engine_.reset();
    SpyGovernor slow;
    slow.start_request = governors::LevelRequest::set(1, 1);
    const auto r_slow = engine_.run_frame(model_, frame_with(150), slow, 0.45, 1);
    EXPECT_GT(r_slow.latency_s, r_fast.latency_s * 1.5);
}

TEST_F(EngineTest, PostRpnRequestOnlyAffectsStage2) {
    // Boosting at the post-RPN point must leave stage 1 at the slow levels.
    SpyGovernor gov;
    gov.start_request = governors::LevelRequest::set(2, 2);
    gov.rpn_request = governors::LevelRequest::set(7, 5);
    const auto r = engine_.run_frame(model_, frame_with(300), gov, 0.45, 0);
    EXPECT_EQ(r.cpu_level_stage1, 2u);
    EXPECT_EQ(r.gpu_level_stage1, 2u);
    EXPECT_EQ(r.cpu_level_stage2, 7u);
    EXPECT_EQ(r.gpu_level_stage2, 5u);

    device_.reset();
    engine_.reset();
    SpyGovernor no_boost;
    no_boost.start_request = governors::LevelRequest::set(2, 2);
    no_boost.rpn_request = governors::LevelRequest::set(2, 2);
    const auto r2 = engine_.run_frame(model_, frame_with(300), no_boost, 0.45, 1);
    EXPECT_NEAR(r2.stage1_s, r.stage1_s, r.stage1_s * 0.02);
    EXPECT_GT(r2.stage2_s, r.stage2_s * 1.3);
}

TEST_F(EngineTest, DecisionOverheadChargedPerDecision) {
    SpyGovernor free;
    const auto r_free = engine_.run_frame(model_, frame_with(150), free, 0.45, 0);
    device_.reset();
    engine_.reset();
    SpyGovernor paid;
    paid.overhead = 0.00426;
    const auto r_paid = engine_.run_frame(model_, frame_with(150), paid, 0.45, 1);
    // Two decisions -> ~8.52 ms extra (Sec. 4.4.2), modulo thermal effects.
    EXPECT_NEAR(r_paid.latency_s - r_free.latency_s, 0.00852, 0.004);
}

TEST_F(EngineTest, JitterScalesLatency) {
    SpyGovernor gov;
    const auto r1 = engine_.run_frame(model_, frame_with(150, 1.0), gov, 0.45, 0);
    device_.reset();
    engine_.reset();
    const auto r2 = engine_.run_frame(model_, frame_with(150, 1.10), gov, 0.45, 1);
    EXPECT_NEAR(r2.latency_s / r1.latency_s, 1.10, 0.02);
}

TEST_F(EngineTest, ResolutionScalesStage1) {
    SpyGovernor gov;
    const auto r1 =
        engine_.run_frame(model_, frame_with(150, 1.0, 1.0), gov, 0.45, 0);
    device_.reset();
    engine_.reset();
    const auto r2 =
        engine_.run_frame(model_, frame_with(150, 1.0, 1.55), gov, 0.6, 1);
    EXPECT_NEAR(r2.stage1_s / r1.stage1_s, 1.55, 0.08);
}

TEST_F(EngineTest, TicksFireAtRequestedCadence) {
    SpyGovernor gov;
    gov.tick_interval = 0.02;
    const auto r = engine_.run_frame(model_, frame_with(150), gov, 0.45, 0);
    // Expect roughly latency / interval ticks (minus the first interval).
    const auto expected = static_cast<double>(r.latency_s / 0.02);
    EXPECT_GT(static_cast<double>(gov.ticks.size()), expected * 0.6);
    EXPECT_LT(static_cast<double>(gov.ticks.size()), expected * 1.4);
    // Tick utilizations are phase-dependent but always in [0, 1].
    for (const auto& t : gov.ticks) {
        ASSERT_GE(t.cpu_util, 0.0);
        ASSERT_LE(t.cpu_util, 1.0);
        ASSERT_GE(t.gpu_util, 0.0);
        ASSERT_LE(t.gpu_util, 1.0);
    }
}

TEST_F(EngineTest, NoTicksWhenDisabled) {
    SpyGovernor gov;
    gov.tick_interval = 0.0;
    engine_.run_frame(model_, frame_with(150), gov, 0.45, 0);
    EXPECT_TRUE(gov.ticks.empty());
}

TEST_F(EngineTest, OutcomeMatchesResult) {
    SpyGovernor gov;
    const auto r = engine_.run_frame(model_, frame_with(222), gov, 0.45, 7);
    ASSERT_EQ(gov.outcomes.size(), 1u);
    const auto& o = gov.outcomes[0];
    EXPECT_EQ(o.iteration, 7u);
    EXPECT_DOUBLE_EQ(o.latency_s, r.latency_s);
    EXPECT_DOUBLE_EQ(o.stage1_latency_s, r.stage1_s);
    EXPECT_EQ(o.proposals, 222);
    EXPECT_DOUBLE_EQ(o.latency_constraint_s, 0.45);
    EXPECT_DOUBLE_EQ(o.cpu_temp, r.cpu_temp);
}

TEST_F(EngineTest, LastLatencyPropagatesToNextFrame) {
    SpyGovernor gov;
    const auto r1 = engine_.run_frame(model_, frame_with(150), gov, 0.45, 0);
    const auto r2 = engine_.run_frame(model_, frame_with(150), gov, 0.45, 1);
    ASSERT_EQ(gov.start_calls.size(), 2u);
    EXPECT_DOUBLE_EQ(gov.start_calls[0].last_frame_latency_s, 0.0);
    EXPECT_DOUBLE_EQ(gov.start_calls[1].last_frame_latency_s, r1.latency_s);
    EXPECT_DOUBLE_EQ(engine_.last_frame_latency_s(), r2.latency_s);
}

TEST_F(EngineTest, ResetClearsCrossFrameState) {
    SpyGovernor gov;
    engine_.run_frame(model_, frame_with(150), gov, 0.45, 0);
    engine_.reset();
    engine_.run_frame(model_, frame_with(150), gov, 0.45, 1);
    EXPECT_DOUBLE_EQ(gov.start_calls[1].last_frame_latency_s, 0.0);
}

TEST_F(EngineTest, EnergyAccounted) {
    SpyGovernor gov;
    const auto r = engine_.run_frame(model_, frame_with(150), gov, 0.45, 0);
    EXPECT_GT(r.energy_j, 0.5);
    // Mean power must be within the device's physical range.
    const double watts = r.energy_j / r.latency_s;
    EXPECT_GT(watts, 1.0);
    EXPECT_LT(watts, 40.0);
}

TEST_F(EngineTest, ProposalsClampedByModel) {
    SpyGovernor gov;
    const auto mask = detector::mask_rcnn_r50(); // caps at 300
    const auto r = engine_.run_frame(mask, frame_with(600), gov, 0.6, 0);
    EXPECT_EQ(r.proposals_raw, 600);
    EXPECT_EQ(r.proposals_used, 300);
    EXPECT_EQ(gov.rpn_calls[0].proposals, 300);
}

TEST_F(EngineTest, ThrottleFlagSurfacesDuringHotFrames) {
    SpyGovernor gov;
    gov.start_request = governors::LevelRequest::set(7, 5);
    // Heat-soak the device under sustained max-level load.
    bool saw_throttle = false;
    for (int i = 0; i < 1500 && !saw_throttle; ++i) {
        const auto r =
            engine_.run_frame(model_, frame_with(150), gov, 0.45, static_cast<std::size_t>(i));
        saw_throttle = r.throttled;
    }
    EXPECT_TRUE(saw_throttle);
}

TEST_F(EngineTest, InvalidConstraintThrows) {
    SpyGovernor gov;
    EXPECT_THROW(engine_.run_frame(model_, frame_with(100), gov, 0.0, 0),
                 std::invalid_argument);
}

} // namespace
} // namespace lotus::runtime
