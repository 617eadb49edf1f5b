// Tests for the RC thermal network and the trip-clamp throttler.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "euler_reference.hpp"
#include "platform/thermal.hpp"
#include "platform/throttle.hpp"

namespace lotus::platform {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

ThermalParams default_params() {
    return ThermalParams{};
}

/// Advance `net` by exactly `dt` seconds in drift-bounded closed-form steps
/// (0.25 K per step, the presets' EdgeDevice accuracy).
void advance(ThermalNetwork& net, double dt, const std::array<double, kNumThermalNodes>& power,
             double ambient) {
    while (dt > 0.0) dt -= net.advance_bounded(dt, power, ambient, 0.25);
}

TEST(ThermalNetwork, Validation) {
    auto p = default_params();
    p.capacity[0] = 0.0;
    EXPECT_THROW(ThermalNetwork{p}, std::invalid_argument);
    p = default_params();
    p.g_to_board[1] = -0.1;
    EXPECT_THROW(ThermalNetwork{p}, std::invalid_argument);
    p = default_params();
    p.g_to_ambient[2] = -0.1;
    EXPECT_THROW(ThermalNetwork{p}, std::invalid_argument);
}

TEST(ThermalNetwork, NoPowerStaysAtAmbient) {
    ThermalNetwork net(default_params());
    net.reset(25.0);
    advance(net, 100.0, {0, 0, 0}, 25.0);
    for (const double t : net.temperatures()) EXPECT_NEAR(t, 25.0, 1e-9);
}

TEST(ThermalNetwork, HeatsMonotonicallyUnderConstantPower) {
    ThermalNetwork net(default_params());
    net.reset(25.0);
    double prev = 25.0;
    for (int i = 0; i < 50; ++i) {
        advance(net, 1.0, {2.0, 8.0, 0.0}, 25.0);
        const double t = net.temperature(ThermalNode::gpu);
        ASSERT_GE(t, prev - 1e-9);
        prev = t;
    }
    EXPECT_GT(prev, 30.0);
}

TEST(ThermalNetwork, ConvergesToClosedFormSteadyState) {
    ThermalNetwork net(default_params());
    net.reset(25.0);
    const std::array<double, kNumThermalNodes> power{2.0, 8.0, 0.0};
    const auto expected = net.steady_state(power, 25.0);
    for (int i = 0; i < 500; ++i) advance(net, 10.0, power, 25.0);
    EXPECT_NEAR(net.temperature(ThermalNode::cpu), expected[0], 0.05);
    EXPECT_NEAR(net.temperature(ThermalNode::gpu), expected[1], 0.05);
    EXPECT_NEAR(net.temperature(ThermalNode::board), expected[2], 0.05);
}

TEST(ThermalNetwork, SteadyStateOrdering) {
    ThermalNetwork net(default_params());
    const auto ss = net.steady_state({1.0, 10.0, 0.0}, 25.0);
    // The hot die sits above the board, the board above ambient.
    EXPECT_GT(ss[1], ss[2]);
    EXPECT_GT(ss[2], 25.0);
    // More power -> hotter everywhere.
    const auto ss2 = net.steady_state({1.0, 14.0, 0.0}, 25.0);
    EXPECT_GT(ss2[1], ss[1]);
    EXPECT_GT(ss2[2], ss[2]);
}

TEST(ThermalNetwork, CpuGpuCoupledThroughBoard) {
    // Heating only the GPU must raise the CPU temperature too (Sec. 3
    // "thermal coupling among processors").
    ThermalNetwork net(default_params());
    net.reset(25.0);
    for (int i = 0; i < 300; ++i) advance(net, 5.0, {0.0, 10.0, 0.0}, 25.0);
    EXPECT_GT(net.temperature(ThermalNode::cpu), 35.0);
}

TEST(ThermalNetwork, CoolsWhenPowerRemoved) {
    ThermalNetwork net(default_params());
    net.reset(25.0);
    for (int i = 0; i < 100; ++i) advance(net, 5.0, {3.0, 12.0, 0.0}, 25.0);
    const double hot = net.temperature(ThermalNode::gpu);
    for (int i = 0; i < 100; ++i) advance(net, 5.0, {0.0, 0.0, 0.0}, 25.0);
    EXPECT_LT(net.temperature(ThermalNode::gpu), hot);
}

TEST(ThermalNetwork, AmbientShiftsEquilibrium) {
    ThermalNetwork net(default_params());
    const auto warm = net.steady_state({2.0, 8.0, 0.0}, 25.0);
    const auto cold = net.steady_state({2.0, 8.0, 0.0}, 0.0);
    EXPECT_NEAR(warm[1] - cold[1], 25.0, 0.5); // linear system: pure offset
}

TEST(ThermalNetwork, InvalidAdvanceThrows) {
    ThermalNetwork net(default_params());
    EXPECT_THROW((void)net.advance_bounded(-1.0, {0, 0, 0}, 25.0, 0.25), std::invalid_argument);
    EXPECT_THROW((void)net.advance_bounded(1.0, {0, 0, 0}, 25.0, 0.0), std::invalid_argument);
    EXPECT_EQ(net.advance_bounded(0.0, {1, 1, 0}, 25.0, 0.25), 0.0);
    EXPECT_EQ(net.steps(), 0u);
}

TEST(ThermalNetwork, SubstepIndependence) {
    // Integrating 10 s in one call or in 100 calls must agree closely.
    ThermalNetwork a(default_params());
    ThermalNetwork b(default_params());
    a.reset(25.0);
    b.reset(25.0);
    const std::array<double, kNumThermalNodes> power{2.0, 9.0, 0.0};
    advance(a, 10.0, power, 25.0);
    for (int i = 0; i < 100; ++i) advance(b, 0.1, power, 25.0);
    EXPECT_NEAR(a.temperature(ThermalNode::gpu), b.temperature(ThermalNode::gpu), 1e-6);
}

// ---------------------------------------------------------------------------
// Closed-form exponential stepper. An infinite drift bound takes the whole
// dt in one step.
// ---------------------------------------------------------------------------

TEST(ThermalNetworkExact, MatchesEulerReference) {
    EulerReference euler(default_params(), 25.0);
    ThermalNetwork exact(default_params());
    exact.reset(25.0);
    const std::array<double, kNumThermalNodes> power{2.0, 8.0, 0.0};
    euler.step(10.0, power, 25.0); // 2000 Euler sub-steps
    EXPECT_EQ(exact.advance_bounded(10.0, power, 25.0, kInf), 10.0); // ONE step
    EXPECT_EQ(euler.steps(), 2000u);
    EXPECT_EQ(exact.steps(), 1u);
    for (std::size_t i = 0; i < kNumThermalNodes; ++i) {
        EXPECT_NEAR(exact.temperatures()[i], euler.temperatures()[i], 5e-3);
    }
}

TEST(ThermalNetworkExact, IsTimeAdditive) {
    // The exact solution forms a semigroup: stepping 3 s then 7 s equals one
    // 10 s step to machine precision -- the property Euler only approximates.
    ThermalNetwork a(default_params());
    ThermalNetwork b(default_params());
    a.reset(25.0);
    b.reset(25.0);
    const std::array<double, kNumThermalNodes> power{3.0, 12.0, 0.0};
    (void)a.advance_bounded(3.0, power, 25.0, kInf);
    (void)a.advance_bounded(7.0, power, 25.0, kInf);
    (void)b.advance_bounded(10.0, power, 25.0, kInf);
    for (std::size_t i = 0; i < kNumThermalNodes; ++i) {
        EXPECT_NEAR(a.temperatures()[i], b.temperatures()[i], 1e-9);
    }
}

TEST(ThermalNetworkExact, ConvergesToSteadyStateInOneStep) {
    ThermalNetwork net(default_params());
    net.reset(25.0);
    const std::array<double, kNumThermalNodes> power{2.0, 8.0, 0.0};
    const auto expected = net.steady_state(power, 25.0);
    (void)net.advance_bounded(1e6, power, 25.0, kInf);
    for (std::size_t i = 0; i < kNumThermalNodes; ++i) {
        EXPECT_NEAR(net.temperatures()[i], expected[i], 1e-9);
    }
}

TEST(ThermalNetworkExact, DriftBoundIsHonored) {
    ThermalNetwork net(default_params());
    net.reset(25.0);
    const std::array<double, kNumThermalNodes> power{3.0, 12.0, 0.0};
    // Walk towards steady state in bound-sized steps; no step may drift any
    // node more than the requested delta.
    constexpr double kHorizon = 1e9;
    for (int i = 0; i < 50; ++i) {
        const auto before = net.temperatures();
        const double h = net.advance_bounded(kHorizon, power, 25.0, 0.5);
        ASSERT_GT(h, 0.0);
        for (std::size_t n = 0; n < kNumThermalNodes; ++n) {
            EXPECT_LE(std::abs(net.temperatures()[n] - before[n]), 0.5 + 1e-9);
        }
        if (h == kHorizon) break; // no node could drift 0.5 K any more
    }
}

TEST(ThermalNetworkExact, DriftBoundInfiniteAtSteadyState) {
    ThermalNetwork net(default_params());
    net.reset(25.0);
    const std::array<double, kNumThermalNodes> power{2.0, 8.0, 0.0};
    (void)net.advance_bounded(1e9, power, 25.0, kInf);
    // No node can drift 0.25 K from steady state: the whole horizon is one step.
    EXPECT_EQ(net.advance_bounded(1e12, power, 25.0, 0.25), 1e12);
}

TEST(ThermalNetworkExact, StepCounters) {
    ThermalNetwork net(default_params());
    net.reset(25.0);
    EXPECT_EQ(net.steps(), 0u);
    (void)net.advance_bounded(1.0, {1, 1, 0}, 25.0, kInf);
    EXPECT_EQ(net.steps(), 1u);
    (void)net.advance_bounded(1.0, {1, 1, 0}, 25.0, kInf);
    EXPECT_EQ(net.steps(), 2u);
    net.reset(25.0);
    EXPECT_EQ(net.steps(), 0u);
}

TEST(ThermalNetworkExact, NetworkWithoutPathToAmbientIsRejected) {
    // Without a path to ambient the system is singular (no steady state for
    // the closed form to decay towards): the constructor names the node.
    const auto message = [](const ThermalParams& p) {
        try {
            ThermalNetwork net(p);
        } catch (const std::invalid_argument& e) {
            return std::string(e.what());
        }
        return std::string("accepted");
    };
    auto p = default_params();
    p.g_to_ambient = {0.0, 0.0, 0.0};
    EXPECT_NE(message(p).find("cpu node has no path to ambient"), std::string::npos)
        << message(p);
    // A die cut off from both the board and ambient.
    p = default_params();
    p.g_to_board[1] = 0.0;
    p.g_to_ambient[1] = 0.0;
    EXPECT_NE(message(p).find("gpu node has no path to ambient"), std::string::npos)
        << message(p);
    // The board leaks only through a die that reaches ambient: accepted.
    p = default_params();
    p.g_to_ambient = {0.02, 0.0, 0.0};
    EXPECT_EQ(message(p), "accepted");
    // An uncoupled board without its own leak.
    p = default_params();
    p.g_to_board = {0.0, 0.0, 0.0};
    p.g_to_ambient[2] = 0.0;
    EXPECT_NE(message(p).find("board node has no path to ambient"), std::string::npos)
        << message(p);
}

// ---------------------------------------------------------------------------
// Throttler.
// ---------------------------------------------------------------------------

ThrottleParams throttle_params() {
    ThrottleParams p;
    p.trip_celsius = 85.0;
    p.hysteresis_k = 4.0;
    p.poll_interval_s = 0.1;
    p.clamp_level = 1;
    p.num_levels = 6;
    return p;
}

TEST(ThermalThrottler, Validation) {
    auto p = throttle_params();
    p.num_levels = 0;
    EXPECT_THROW(ThermalThrottler{p}, std::invalid_argument);
    p = throttle_params();
    p.clamp_level = 6;
    EXPECT_THROW(ThermalThrottler{p}, std::invalid_argument);
    p = throttle_params();
    p.poll_interval_s = 0.0;
    EXPECT_THROW(ThermalThrottler{p}, std::invalid_argument);
    p = throttle_params();
    p.hysteresis_k = -1.0;
    EXPECT_THROW(ThermalThrottler{p}, std::invalid_argument);
}

TEST(ThermalThrottler, StartsUncapped) {
    ThermalThrottler t(throttle_params());
    EXPECT_EQ(t.cap(), 5u);
    EXPECT_FALSE(t.engaged());
    EXPECT_EQ(t.trip_events(), 0u);
}

TEST(ThermalThrottler, ColdNeverEngages) {
    ThermalThrottler t(throttle_params());
    for (int i = 1; i <= 100; ++i) t.update(i * 0.1, 60.0);
    EXPECT_FALSE(t.engaged());
}

TEST(ThermalThrottler, TripClampsImmediatelyToLowLevel) {
    // "thermal throttling will be activated to decrease the frequency to a
    // very low level" (Sec. 1).
    ThermalThrottler t(throttle_params());
    t.update(0.1, 86.0);
    EXPECT_EQ(t.cap(), 1u);
    EXPECT_TRUE(t.engaged());
    EXPECT_EQ(t.trip_events(), 1u);
}

TEST(ThermalThrottler, HoldsInsideHysteresisBand) {
    ThermalThrottler t(throttle_params());
    t.update(0.1, 86.0);
    // 83 C is inside (81, 85): the clamp must hold.
    for (int i = 2; i <= 50; ++i) t.update(i * 0.1, 83.0);
    EXPECT_EQ(t.cap(), 1u);
}

TEST(ThermalThrottler, ReleasesGraduallyBelowHysteresis) {
    ThermalThrottler t(throttle_params());
    t.update(0.1, 86.0);
    ASSERT_EQ(t.cap(), 1u);
    t.update(0.2, 80.0); // below 85-4=81
    EXPECT_EQ(t.cap(), 2u);
    t.update(0.3, 80.0);
    EXPECT_EQ(t.cap(), 3u);
    t.update(0.4, 80.0);
    t.update(0.5, 80.0);
    EXPECT_EQ(t.cap(), 5u);
    EXPECT_FALSE(t.engaged());
}

TEST(ThermalThrottler, CountsDistinctTripEvents) {
    ThermalThrottler t(throttle_params());
    t.update(0.1, 86.0); // trip 1
    t.update(0.2, 86.0); // still hot: same event
    EXPECT_EQ(t.trip_events(), 1u);
    for (int i = 3; i <= 7; ++i) t.update(i * 0.1, 79.0); // recover fully
    t.update(0.8, 86.0); // trip 2
    EXPECT_EQ(t.trip_events(), 2u);
}

TEST(ThermalThrottler, PollingRateLimits) {
    ThermalThrottler t(throttle_params());
    t.update(0.1, 86.0);
    // Recovery checks are also paced by the poll interval.
    t.update(0.15, 70.0); // only 50 ms later: no poll yet
    EXPECT_EQ(t.cap(), 1u);
    t.update(0.21, 70.0);
    EXPECT_EQ(t.cap(), 2u);
}

TEST(ThermalThrottler, LongJumpAppliesMultiplePolls) {
    ThermalThrottler t(throttle_params());
    t.update(0.1, 86.0);
    ASSERT_EQ(t.cap(), 1u);
    // A 1-second jump while cool applies ~10 release steps.
    t.update(1.2, 75.0);
    EXPECT_EQ(t.cap(), 5u);
}

TEST(ThermalThrottler, ResetRestoresFullLadder) {
    ThermalThrottler t(throttle_params());
    t.update(0.1, 90.0);
    t.reset();
    EXPECT_EQ(t.cap(), 5u);
    EXPECT_EQ(t.trip_events(), 0u);
    EXPECT_FALSE(t.engaged());
}

} // namespace
} // namespace lotus::platform
