// Tests for the LOTUS agent: two decisions per frame, dual replay buffers
// with cross-width transitions, epsilon_t cool-down, and the ablation modes.

#include <gtest/gtest.h>

#include <cmath>

#include "lotus/agent.hpp"

namespace lotus::core {
namespace {

LotusConfig test_config() {
    LotusConfig cfg;
    cfg.hidden = {32, 32, 32};
    cfg.min_replay = 4;
    cfg.batch_size = 4;
    cfg.reward.t_thres_celsius = 80.0;
    cfg.seed = 99;
    return cfg;
}

governors::Observation obs_start(double cpu_temp = 60, double gpu_temp = 70) {
    governors::Observation o;
    o.cpu_temp = cpu_temp;
    o.gpu_temp = gpu_temp;
    o.cpu_level = 5;
    o.gpu_level = 3;
    o.cpu_levels = 8;
    o.gpu_levels = 6;
    o.latency_constraint_s = 0.45;
    o.last_frame_latency_s = 0.40;
    return o;
}

governors::Observation obs_rpn(int proposals = 200, double cpu_temp = 60,
                               double gpu_temp = 70) {
    auto o = obs_start(cpu_temp, gpu_temp);
    o.proposals = proposals;
    o.elapsed_in_frame_s = 0.30;
    return o;
}

governors::FrameOutcome outcome_ok() {
    governors::FrameOutcome f;
    f.latency_s = 0.40;
    f.stage1_latency_s = 0.32;
    f.stage2_latency_s = 0.08;
    f.proposals = 200;
    f.cpu_temp = 60;
    f.gpu_temp = 70;
    f.latency_constraint_s = 0.45;
    return f;
}

/// Run n full frames through the agent's hook sequence.
void run_frames(LotusAgent& agent, int n) {
    for (int i = 0; i < n; ++i) {
        (void)agent.on_frame_start(obs_start());
        (void)agent.on_post_rpn(obs_rpn());
        agent.on_frame_end(outcome_ok());
    }
}

TEST(LotusAgent, TwoDecisionsPerFrame) {
    LotusAgent agent(8, 6, test_config());
    const auto r1 = agent.on_frame_start(obs_start());
    EXPECT_TRUE(r1.has_request);
    const auto r2 = agent.on_post_rpn(obs_rpn());
    EXPECT_TRUE(r2.has_request);
    agent.on_frame_end(outcome_ok());
    EXPECT_EQ(agent.decisions_made(), 2u);
    EXPECT_EQ(agent.frames_seen(), 1u);
}

TEST(LotusAgent, RequestsWithinLadder) {
    LotusAgent agent(8, 6, test_config());
    for (int i = 0; i < 50; ++i) {
        const auto r1 = agent.on_frame_start(obs_start());
        ASSERT_LT(r1.cpu, 8u);
        ASSERT_LT(r1.gpu, 6u);
        const auto r2 = agent.on_post_rpn(obs_rpn());
        ASSERT_LT(r2.cpu, 8u);
        ASSERT_LT(r2.gpu, 6u);
        agent.on_frame_end(outcome_ok());
    }
}

TEST(LotusAgent, DualBuffersFillSeparately) {
    auto cfg = test_config();
    cfg.train_online = false;
    LotusAgent agent(8, 6, cfg);
    run_frames(agent, 10);
    // Even transitions complete at frame end (10 of them); odd transitions
    // complete at the *next* frame start (9 of them).
    EXPECT_EQ(agent.even_buffer().size(), 10u);
    EXPECT_EQ(agent.odd_buffer().size(), 9u);
}

TEST(LotusAgent, EvenTransitionsCarryCrossWidths) {
    auto cfg = test_config();
    cfg.train_online = false;
    LotusAgent agent(8, 6, cfg);
    run_frames(agent, 5);
    for (std::size_t i = 0; i < agent.even_buffer().size(); ++i) {
        const auto& t = agent.even_buffer()[i];
        ASSERT_DOUBLE_EQ(t.width_state, 0.75);
        ASSERT_DOUBLE_EQ(t.width_next, 1.0);
        // Even state: stage flag 0, proposal slot 0; next (odd) state: flag 1.
        ASSERT_DOUBLE_EQ(t.state[0], 0.0);
        ASSERT_DOUBLE_EQ(t.state[6], 0.0);
        ASSERT_DOUBLE_EQ(t.next_state[0], 1.0);
        ASSERT_GT(t.next_state[6], 0.0);
    }
}

TEST(LotusAgent, OddTransitionsCarryCrossWidths) {
    auto cfg = test_config();
    cfg.train_online = false;
    LotusAgent agent(8, 6, cfg);
    run_frames(agent, 5);
    for (std::size_t i = 0; i < agent.odd_buffer().size(); ++i) {
        const auto& t = agent.odd_buffer()[i];
        ASSERT_DOUBLE_EQ(t.width_state, 1.0);
        ASSERT_DOUBLE_EQ(t.width_next, 0.75);
        ASSERT_DOUBLE_EQ(t.state[0], 1.0);      // odd state
        ASSERT_DOUBLE_EQ(t.next_state[0], 0.0); // next frame's even state
    }
}

TEST(LotusAgent, SharedNetworkByDefault) {
    LotusAgent agent(8, 6, test_config());
    EXPECT_EQ(&agent.even_net(), &agent.odd_net());
}

TEST(LotusAgent, EpsilonDecaysPerDecision) {
    LotusAgent agent(8, 6, test_config());
    const double e0 = agent.epsilon();
    run_frames(agent, 100);
    EXPECT_LT(agent.epsilon(), e0);
}

TEST(LotusAgent, TrainsOnlineOncePerFrame) {
    LotusAgent agent(8, 6, test_config());
    run_frames(agent, 12);
    // After min_replay is reached both nets receive updates.
    EXPECT_GT(agent.even_net().updates(), 0u);
}

// A buffer needs one transition to train, so min_replay 0 and 1 run the same
// updates and must report the same loss. On frame 0 only the even buffer
// holds a transition; an empty odd buffer must not enter the mean.
TEST(LotusAgent, LossAveragesOnlyUpdatesThatRan) {
    auto zero = test_config();
    zero.min_replay = 0;
    auto one = test_config();
    one.min_replay = 1;
    LotusAgent a(8, 6, zero);
    LotusAgent b(8, 6, one);
    for (int frame = 0; frame < 6; ++frame) {
        run_frames(a, 1);
        run_frames(b, 1);
        ASSERT_TRUE(a.last_loss().has_value());
        ASSERT_TRUE(b.last_loss().has_value());
        EXPECT_EQ(*a.last_loss(), *b.last_loss()) << "frame " << frame;
        EXPECT_GE(*a.last_loss(), 0.0) << "frame " << frame;
    }
    EXPECT_EQ(a.even_net().updates(), b.even_net().updates());
}

TEST(LotusAgent, CooldownFiresOnlyWhenHot) {
    LotusAgent agent(8, 6, test_config());
    run_frames(agent, 5);
    EXPECT_EQ(agent.cooldown_activations(), 0u);
    // Hot frame: epsilon_t starts at 1.0, so the first hot decision must
    // trigger the cool-down.
    const auto req = agent.on_frame_start(obs_start(85, 85));
    ASSERT_TRUE(req.has_request);
    EXPECT_LT(req.cpu, 5u); // strictly below the current levels
    EXPECT_LT(req.gpu, 3u);
    EXPECT_EQ(agent.cooldown_activations(), 1u);
}

TEST(LotusAgent, EpsilonTDecaysPerTrigger) {
    auto cfg = test_config();
    cfg.eps_t_triggers = 10;
    LotusAgent agent(8, 6, cfg);
    const double t0 = agent.epsilon_t();
    EXPECT_DOUBLE_EQ(t0, 1.0);
    // Each hot decision triggers the sinusoidal decay.
    (void)agent.on_frame_start(obs_start(85, 85));
    EXPECT_LT(agent.epsilon_t(), t0);
    const double t1 = agent.epsilon_t();
    (void)agent.on_post_rpn(obs_rpn(200, 85, 85));
    EXPECT_LT(agent.epsilon_t(), t1);
}

TEST(LotusAgent, EpsilonTEventuallyYieldsToPolicy) {
    auto cfg = test_config();
    cfg.eps_t_triggers = 5;
    cfg.eps_t_floor = 0.0;
    LotusAgent agent(8, 6, cfg);
    // Exhaust the cool-down budget.
    for (int i = 0; i < 30; ++i) {
        (void)agent.on_frame_start(obs_start(85, 85));
        (void)agent.on_post_rpn(obs_rpn(200, 85, 85));
        agent.on_frame_end(outcome_ok());
    }
    EXPECT_NEAR(agent.epsilon_t(), 0.0, 1e-9);
    const auto before = agent.cooldown_activations();
    // With epsilon_t = 0 the agent uses the Q-network even when hot.
    for (int i = 0; i < 20; ++i) (void)agent.on_frame_start(obs_start(85, 85));
    EXPECT_EQ(agent.cooldown_activations(), before);
}

TEST(LotusAgent, ZttStyleCooldownNeverDecays) {
    auto cfg = test_config();
    cfg.ztt_style_cooldown = true;
    LotusAgent agent(8, 6, cfg);
    for (int i = 0; i < 25; ++i) {
        const auto req = agent.on_frame_start(obs_start(85, 85));
        ASSERT_LT(req.cpu, 5u);
    }
    EXPECT_EQ(agent.cooldown_activations(), 25u);
    EXPECT_EQ(agent.name(), "Lotus(ztt-cooldown)");
}

TEST(LotusAgent, FrameStartOnlyModeSkipsPostRpn) {
    auto cfg = test_config();
    cfg.decision_mode = DecisionMode::frame_start_only;
    cfg.train_online = false;
    LotusAgent agent(8, 6, cfg);
    for (int i = 0; i < 8; ++i) {
        EXPECT_TRUE(agent.on_frame_start(obs_start()).has_request);
        EXPECT_FALSE(agent.on_post_rpn(obs_rpn()).has_request);
        agent.on_frame_end(outcome_ok());
    }
    EXPECT_EQ(agent.decisions_made(), 8u);
    // Even->even chained transitions: 7 completed.
    EXPECT_EQ(agent.even_buffer().size(), 7u);
    EXPECT_EQ(agent.odd_buffer().size(), 0u);
}

TEST(LotusAgent, PostRpnOnlyModeSkipsFrameStart) {
    auto cfg = test_config();
    cfg.decision_mode = DecisionMode::post_rpn_only;
    cfg.train_online = false;
    LotusAgent agent(8, 6, cfg);
    for (int i = 0; i < 8; ++i) {
        EXPECT_FALSE(agent.on_frame_start(obs_start()).has_request);
        EXPECT_TRUE(agent.on_post_rpn(obs_rpn()).has_request);
        agent.on_frame_end(outcome_ok());
    }
    EXPECT_EQ(agent.decisions_made(), 8u);
    EXPECT_EQ(agent.even_buffer().size(), 0u);
    EXPECT_EQ(agent.odd_buffer().size(), 7u);
}

TEST(LotusAgent, TwoNetworkAblationUsesSeparateNets) {
    auto cfg = test_config();
    cfg.use_two_networks = true;
    LotusAgent agent(8, 6, cfg);
    EXPECT_NE(&agent.even_net(), &agent.odd_net());
    EXPECT_EQ(agent.name(), "Lotus(two-networks)");
    run_frames(agent, 10);
    EXPECT_GT(agent.even_net().updates(), 0u);
    EXPECT_GT(agent.odd_net().updates(), 0u);
}

TEST(LotusAgent, TwoNetworkTransitionsAreFullWidth) {
    auto cfg = test_config();
    cfg.use_two_networks = true;
    cfg.train_online = false;
    LotusAgent agent(8, 6, cfg);
    run_frames(agent, 5);
    for (std::size_t i = 0; i < agent.even_buffer().size(); ++i) {
        ASSERT_DOUBLE_EQ(agent.even_buffer()[i].width_state, 1.0);
    }
}

TEST(LotusAgent, OneStageFrameDropsEvenTransition) {
    // If the engine never calls on_post_rpn (one-stage detector), the even
    // transition has no successor state and must be dropped, not corrupted.
    auto cfg = test_config();
    cfg.train_online = false;
    LotusAgent agent(8, 6, cfg);
    (void)agent.on_frame_start(obs_start());
    agent.on_frame_end(outcome_ok()); // no post-RPN call
    EXPECT_EQ(agent.even_buffer().size(), 0u);
    (void)agent.on_frame_start(obs_start());
    (void)agent.on_post_rpn(obs_rpn());
    agent.on_frame_end(outcome_ok());
    EXPECT_EQ(agent.even_buffer().size(), 1u);
}

TEST(LotusAgent, RewardTracksOutcome) {
    LotusAgent agent(8, 6, test_config());
    (void)agent.on_frame_start(obs_start());
    (void)agent.on_post_rpn(obs_rpn());
    auto good = outcome_ok();
    agent.on_frame_end(good);
    const double r_good = agent.last_reward();

    auto bad = outcome_ok();
    bad.latency_s = 0.80; // violates 0.45 constraint
    (void)agent.on_frame_start(obs_start());
    (void)agent.on_post_rpn(obs_rpn());
    agent.on_frame_end(bad);
    EXPECT_LT(agent.last_reward(), r_good);
    EXPECT_LT(agent.last_reward(), 0.0);
}

TEST(LotusAgent, DeterministicForSeed) {
    LotusAgent a(8, 6, test_config());
    LotusAgent b(8, 6, test_config());
    for (int i = 0; i < 30; ++i) {
        const auto ra = a.on_frame_start(obs_start());
        const auto rb = b.on_frame_start(obs_start());
        ASSERT_EQ(ra.cpu, rb.cpu);
        ASSERT_EQ(ra.gpu, rb.gpu);
        const auto sa = a.on_post_rpn(obs_rpn());
        const auto sb = b.on_post_rpn(obs_rpn());
        ASSERT_EQ(sa.cpu, sb.cpu);
        ASSERT_EQ(sa.gpu, sb.gpu);
        a.on_frame_end(outcome_ok());
        b.on_frame_end(outcome_ok());
    }
}

TEST(LotusAgent, DecisionOverheadMatchesPaper) {
    // Sec. 4.4.2: 8.52 ms per inference across two decisions.
    LotusAgent agent(8, 6, LotusConfig{});
    EXPECT_NEAR(2.0 * agent.decision_overhead_s(), 0.00852, 1e-5);
}

TEST(LotusAgent, ConfigValidation) {
    auto cfg = test_config();
    cfg.reduced_width = 0.0;
    EXPECT_THROW(LotusAgent(8, 6, cfg), std::invalid_argument);
    cfg = test_config();
    cfg.reduced_width = 1.5;
    EXPECT_THROW(LotusAgent(8, 6, cfg), std::invalid_argument);
    cfg = test_config();
    cfg.batch_size = 0; // would never update
    EXPECT_THROW(LotusAgent(8, 6, cfg), std::invalid_argument);
}

TEST(LotusAgent, EpsilonScheduleValidation) {
    auto cfg = test_config();
    cfg.eps_start = 0.01;
    cfg.eps_end = 0.02; // exploration may not grow
    EXPECT_THROW(LotusAgent(8, 6, cfg), std::invalid_argument);
    for (const double rate : {0.0, 1.0, 1.5}) {
        cfg = test_config();
        cfg.eps_decay_rate = rate;
        EXPECT_THROW(LotusAgent(8, 6, cfg), std::invalid_argument) << "rate " << rate;
    }
}

} // namespace
} // namespace lotus::core
