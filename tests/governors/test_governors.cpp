// Tests for the baseline governor family: Linux kernel policies and zTT.

#include <gtest/gtest.h>

#include <cmath>

#include "governors/linux_governors.hpp"
#include "governors/ztt.hpp"

namespace lotus::governors {
namespace {

TickObservation make_tick(double now, double cpu_util, double gpu_util,
                          std::size_t cpu_level = 4, std::size_t gpu_level = 3) {
    TickObservation t;
    t.now_s = now;
    t.dt_s = 0.02;
    t.cpu_util = cpu_util;
    t.gpu_util = gpu_util;
    t.cpu_temp = 50.0;
    t.gpu_temp = 60.0;
    t.cpu_level = cpu_level;
    t.gpu_level = gpu_level;
    t.cpu_levels = 8;
    t.gpu_levels = 6;
    return t;
}

Observation make_obs(std::size_t cpu_levels = 8, std::size_t gpu_levels = 6) {
    Observation o;
    o.cpu_levels = cpu_levels;
    o.gpu_levels = gpu_levels;
    o.cpu_level = cpu_levels - 1;
    o.gpu_level = gpu_levels - 1;
    o.latency_constraint_s = 0.45;
    o.last_frame_latency_s = 0.40;
    o.cpu_temp = 50.0;
    o.gpu_temp = 60.0;
    return o;
}

TEST(SchedutilPolicy, RampsUpUnderLoad) {
    SchedutilPolicy p;
    std::size_t level = 0;
    for (int i = 0; i < 50; ++i) {
        auto tick = make_tick(i * 0.02, 1.0, 0.0, level);
        level = p.decide(tick);
    }
    EXPECT_EQ(level, 7u) << "full utilization must reach the top level";
}

TEST(SchedutilPolicy, DecaysWhenIdle) {
    SchedutilPolicy p;
    std::size_t level = 7;
    // Load phase to establish a high level.
    for (int i = 0; i < 20; ++i) level = p.decide(make_tick(i * 0.02, 1.0, 0.0, level));
    ASSERT_EQ(level, 7u);
    // Idle for several seconds: the down rate limit allows one step per
    // 100 ms, so after 3 s the level must be far down the ladder.
    for (int i = 0; i < 150; ++i) {
        level = p.decide(make_tick(0.4 + i * 0.02, 0.05, 0.0, level));
    }
    EXPECT_LE(level, 2u);
}

TEST(SchedutilPolicy, DownScalingIsRateLimited) {
    SchedutilPolicy p;
    std::size_t level = 7;
    for (int i = 0; i < 20; ++i) level = p.decide(make_tick(i * 0.02, 1.0, 0.0, level));
    // Two idle ticks 20 ms apart: at most one down-step can happen.
    const auto l1 = p.decide(make_tick(0.42, 0.0, 0.0, level));
    const auto l2 = p.decide(make_tick(0.44, 0.0, 0.0, l1));
    EXPECT_GE(l2 + 1, l1); // dropped at most one level within the window
}

TEST(SchedutilPolicy, HeadroomBiasesUp) {
    // util=0.8 with 1.25 headroom -> target = max level.
    SchedutilPolicy p;
    std::size_t level = 0;
    for (int i = 0; i < 50; ++i) level = p.decide(make_tick(i * 0.02, 0.8, 0.0, level));
    EXPECT_EQ(level, 7u);
}

TEST(SimpleOndemandPolicy, JumpsToMaxAboveThreshold) {
    SimpleOndemandPolicy p;
    std::size_t level = 3;
    for (int i = 0; i < 10; ++i) {
        level = p.decide(make_tick(i * 0.02, 0.0, 1.0, 4, level));
    }
    EXPECT_EQ(level, 5u);
}

TEST(SimpleOndemandPolicy, ScalesDownWhenIdle) {
    SimpleOndemandPolicy p;
    std::size_t level = 5;
    for (int i = 0; i < 50; ++i) {
        level = p.decide(make_tick(i * 0.02, 0.0, 0.05, 4, level));
    }
    EXPECT_LE(level, 1u);
}

TEST(SimpleOndemandPolicy, HoldsInHysteresisBand) {
    SimpleOndemandParams params;
    params.upthreshold = 0.90;
    params.downdifferential = 0.05;
    params.busy_ewma = 1.0; // no smoothing: busy == instantaneous
    SimpleOndemandPolicy p(params);
    // busy = 0.87 sits inside (0.85, 0.90): hold the current level.
    const auto level = p.decide(make_tick(0.0, 0.0, 0.87, 4, 3));
    EXPECT_EQ(level, 3u);
}

TEST(DefaultGovernor, TicksDriveBothDomains) {
    auto gov = DefaultGovernor::orin_nano();
    EXPECT_GT(gov.tick_interval_s(), 0.0);
    EXPECT_EQ(gov.decision_overhead_s(), 0.0) << "kernel governors are free";
    // Sustained GPU load with idle CPU: GPU should head to max, CPU down.
    LevelRequest last;
    std::size_t cpu = 7;
    std::size_t gpu = 0;
    for (int i = 0; i < 100; ++i) {
        auto tick = make_tick(i * 0.02, 0.1, 1.0, cpu, gpu);
        const auto req = gov.on_tick(tick);
        if (req.has_request) {
            cpu = req.cpu;
            gpu = req.gpu;
            last = req;
        }
    }
    EXPECT_EQ(gpu, 5u);
    EXPECT_LE(cpu, 3u);
}

TEST(DefaultGovernor, FrameCallbacksAreNoOps) {
    auto gov = DefaultGovernor::mi11_lite();
    EXPECT_FALSE(gov.on_frame_start(make_obs()).has_request);
    EXPECT_FALSE(gov.on_post_rpn(make_obs()).has_request);
}

TEST(FixedGovernor, PinsRequestedLevels) {
    FixedGovernor gov(2, 3);
    const auto req = gov.on_frame_start(make_obs());
    ASSERT_TRUE(req.has_request);
    EXPECT_EQ(req.cpu, 2u);
    EXPECT_EQ(req.gpu, 3u);
}

TEST(FixedGovernor, ClampsToLadder) {
    FixedGovernor gov(99, 99);
    const auto req = gov.on_frame_start(make_obs(8, 6));
    EXPECT_EQ(req.cpu, 7u);
    EXPECT_EQ(req.gpu, 5u);
}

TEST(RandomGovernor, CoversActionSpace) {
    RandomGovernor gov(123);
    std::set<std::pair<std::size_t, std::size_t>> seen;
    for (int i = 0; i < 500; ++i) {
        const auto req = gov.on_frame_start(make_obs(4, 3));
        ASSERT_TRUE(req.has_request);
        ASSERT_LT(req.cpu, 4u);
        ASSERT_LT(req.gpu, 3u);
        seen.insert({req.cpu, req.gpu});
    }
    EXPECT_EQ(seen.size(), 12u) << "all 4x3 joint actions should appear";
}

// ---------------------------------------------------------------------------
// zTT.
// ---------------------------------------------------------------------------

ZttConfig test_ztt_config() {
    ZttConfig cfg;
    cfg.t_thres_celsius = 80.0;
    cfg.min_replay = 4;
    cfg.batch_size = 4;
    cfg.seed = 77;
    return cfg;
}

TEST(Ztt, ActsOncePerFrameAtFrameStart) {
    ZttGovernor gov(8, 6, test_ztt_config());
    const auto req = gov.on_frame_start(make_obs());
    EXPECT_TRUE(req.has_request);
    // zTT pre-dates the two-decision design: no post-RPN action.
    EXPECT_FALSE(gov.on_post_rpn(make_obs()).has_request);
    EXPECT_GT(gov.decision_overhead_s(), 0.0);
}

TEST(Ztt, CooldownAlwaysFiresWhenHot) {
    ZttGovernor gov(8, 6, test_ztt_config());
    auto obs = make_obs();
    obs.cpu_temp = 85.0; // above 80 threshold
    obs.cpu_level = 5;
    obs.gpu_level = 4;
    for (int i = 0; i < 50; ++i) {
        const auto req = gov.on_frame_start(obs);
        ASSERT_TRUE(req.has_request);
        // Random *lower* levels, never higher.
        ASSERT_LT(req.cpu, 5u);
        ASSERT_LT(req.gpu, 4u);
    }
    EXPECT_EQ(gov.cooldown_activations(), 50u);
}

TEST(Ztt, CooldownAtLevelZeroStaysZero) {
    ZttGovernor gov(8, 6, test_ztt_config());
    auto obs = make_obs();
    obs.gpu_temp = 90.0;
    obs.cpu_level = 0;
    obs.gpu_level = 0;
    const auto req = gov.on_frame_start(obs);
    EXPECT_EQ(req.cpu, 0u);
    EXPECT_EQ(req.gpu, 0u);
}

TEST(Ztt, RewardPrefersFasterFrames) {
    ZttGovernor gov(8, 6, test_ztt_config());
    const double slow = gov.reward(0.6, 0.45, 50, 60); // misses target
    const double at = gov.reward(0.45, 0.45, 50, 60);
    const double fast = gov.reward(0.30, 0.45, 50, 60);
    EXPECT_GT(at, slow);
    EXPECT_GE(fast, at);
}

TEST(Ztt, RewardPenalizesOverheat) {
    ZttGovernor gov(8, 6, test_ztt_config());
    const double cool = gov.reward(0.4, 0.45, 60, 60);
    const double hot = gov.reward(0.4, 0.45, 85, 60);
    EXPECT_GT(cool, hot);
    EXPECT_LT(hot, 0.5); // the -2 violation term must bite
}

TEST(Ztt, EpsilonDecaysWithFrames) {
    ZttGovernor gov(8, 6, test_ztt_config());
    const double e0 = gov.epsilon();
    FrameOutcome outcome;
    outcome.latency_s = 0.4;
    outcome.latency_constraint_s = 0.45;
    outcome.cpu_temp = 50;
    outcome.gpu_temp = 60;
    for (int i = 0; i < 200; ++i) {
        (void)gov.on_frame_start(make_obs());
        gov.on_frame_end(outcome);
    }
    EXPECT_LT(gov.epsilon(), e0);
    EXPECT_EQ(gov.frames_seen(), 200u);
}

TEST(Ztt, EpsilonScheduleValidation) {
    auto cfg = test_ztt_config();
    cfg.eps_start = 0.005;
    cfg.eps_end = 0.01; // exploration may not grow
    EXPECT_THROW(ZttGovernor(8, 6, cfg), std::invalid_argument);
    for (const double rate : {0.0, 1.0, 1.5}) {
        cfg = test_ztt_config();
        cfg.eps_decay_rate = rate;
        EXPECT_THROW(ZttGovernor(8, 6, cfg), std::invalid_argument) << "rate " << rate;
    }
}

TEST(Ztt, TransitionsAccumulateInReplay) {
    auto cfg = test_ztt_config();
    cfg.train_online = false;
    ZttGovernor gov(8, 6, cfg);
    FrameOutcome outcome;
    outcome.latency_s = 0.4;
    outcome.latency_constraint_s = 0.45;
    outcome.cpu_temp = 50;
    outcome.gpu_temp = 60;
    for (int i = 0; i < 10; ++i) {
        (void)gov.on_frame_start(make_obs());
        gov.on_frame_end(outcome);
    }
    // Transition i completes at frame start i+1: 9 transitions for 10 frames.
    EXPECT_EQ(gov.dqn().updates(), 0u);
}

TEST(Ztt, TrainsOnlineWhenEnabled) {
    auto cfg = test_ztt_config();
    cfg.min_replay = 2;
    ZttGovernor gov(8, 6, cfg);
    FrameOutcome outcome;
    outcome.latency_s = 0.4;
    outcome.latency_constraint_s = 0.45;
    outcome.cpu_temp = 50;
    outcome.gpu_temp = 60;
    for (int i = 0; i < 10; ++i) {
        (void)gov.on_frame_start(make_obs());
        gov.on_frame_end(outcome);
    }
    EXPECT_GT(gov.dqn().updates(), 0u);
}

} // namespace
} // namespace lotus::governors
