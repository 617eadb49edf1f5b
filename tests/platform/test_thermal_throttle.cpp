// Tests for the RC thermal network and the trip-clamp throttler.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "closed_form_reference.hpp"
#include "euler_reference.hpp"
#include "platform/presets.hpp"
#include "platform/thermal.hpp"
#include "platform/throttle.hpp"
#include "util/rng.hpp"

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

TEST(ThermalNetworkExact, BitIdenticalToClosedFormReference) {
    // The optimised stepper must reproduce the reference stepper bit for bit:
    // temperatures, step length and step count, on the presets and on random
    // valid networks (some with sub-1 J/K capacities), from ambient up to
    // 110 C, at 0-20 W, across step budgets from sub-nanosecond (the 1 ns
    // floor binds) through one throttle poll to 1e4 s (every decay
    // underflows), budgets within 1-64 ulps either side of a node's exact
    // crossing time delta / R_i (where the free-step test must give way to
    // the exact bound), and drift tolerances from tight to unbounded.
    util::Rng rng(20261019);
    std::vector<ThermalParams> networks{platform::orin_nano_spec().thermal,
                                        platform::mi11_lite_spec().thermal};
    while (networks.size() < 16) {
        ThermalParams p;
        const double c_max = networks.size() < 12 ? 200.0 : 1.0;
        for (std::size_t i = 0; i < kNumThermalNodes; ++i) {
            p.capacity[i] = rng.uniform(c_max < 1.0 ? 0.01 : 0.5, c_max);
            p.g_to_ambient[i] = rng.uniform() < 0.25 ? 0.0 : rng.uniform(0.001, 0.5);
        }
        p.g_to_board = {rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0), 0.0};
        try {
            ThermalNetwork probe(p);
        } catch (const std::invalid_argument&) {
            continue; // no path to ambient: not a valid network
        }
        networks.push_back(p);
    }
    const double poll = platform::orin_nano_spec().cpu_throttle.poll_interval_s;
    const double budgets[] = {0.0, 1e-12, std::nextafter(1e-9, 0.0), poll, 1e4};
    const double deltas[] = {0.01, 0.25, kInf};

    std::size_t full_steps = 0;
    std::size_t cut_steps = 0;
    std::size_t boundary_steps = 0;
    std::uint64_t free_steps = 0;
    std::uint64_t exact_steps = 0;
    for (const auto& base : networks) {
        for (int trial = 0; trial < 200; ++trial) {
            ThermalParams p = base;
            const double ambient = rng.uniform(0.0, 45.0);
            for (auto& t : p.initial) t = rng.uniform(ambient, 110.0);
            ThermalNetwork net(p);
            ClosedFormReference ref(p);
            for (int step = 0; step < 8; ++step) {
                const std::array<double, kNumThermalNodes> power{
                    rng.uniform(0.0, 20.0), rng.uniform(0.0, 20.0),
                    rng.uniform() < 0.8 ? 0.0 : rng.uniform(0.0, 20.0)};
                double dt_max = rng.uniform() < 0.2 ? rng.uniform(0.0, poll)
                                                    : budgets[rng.uniform_int(0, 4)];
                const double delta = deltas[rng.uniform_int(0, 2)];
                if (rng.uniform() < 0.4) {
                    // Aim at one node's crossing time (usually the binding,
                    // smallest one), 1-64 ulps below or above it.
                    const auto times = ref.crossing_times(power, ambient, delta);
                    const auto node = rng.uniform() < 0.7
                                          ? static_cast<std::size_t>(
                                                std::min_element(times.begin(), times.end()) -
                                                times.begin())
                                          : static_cast<std::size_t>(rng.uniform_int(0, 2));
                    if (std::isfinite(times[node])) {
                        dt_max = times[node];
                        const double toward = rng.uniform() < 0.5 ? 0.0 : kInf;
                        for (int u = rng.uniform_int(1, 64); u > 0; --u) {
                            dt_max = std::nextafter(dt_max, toward);
                        }
                        ++boundary_steps;
                    }
                }
                const double h = net.advance_bounded(dt_max, power, ambient, delta);
                const double h_ref = ref.advance_bounded(dt_max, power, ambient, delta);
                ASSERT_EQ(std::memcmp(&h, &h_ref, sizeof h), 0)
                    << "h " << h << " vs " << h_ref << " at dt_max " << dt_max;
                ASSERT_EQ(std::memcmp(net.temperatures().data(), ref.temperatures().data(),
                                      sizeof(double) * kNumThermalNodes),
                          0)
                    << "temperatures differ at dt_max " << dt_max << ", delta " << delta;
                ASSERT_EQ(net.steps(), ref.steps());
                if (dt_max > 0.0) ++(h == dt_max ? full_steps : cut_steps);
            }
            exact_steps += net.exact_bounds();
            free_steps += net.steps() - net.exact_bounds();
        }
    }
    // Both ways a segment ends: at its budget (the decays started early are
    // used) and at the drift bound or the 1 ns floor (they are recomputed);
    // and both ways its length is decided: by the free-step test alone and
    // by the exact drift bound.
    EXPECT_GT(full_steps, 2000u);
    EXPECT_GT(cut_steps, 2000u);
    EXPECT_GT(boundary_steps, 2000u);
    EXPECT_GT(free_steps, 1000u);
    EXPECT_GT(exact_steps, 1000u);
}

TEST(ThermalNetworkExact, FreeStepTestGivesWayWhereTheExactBoundOverflows) {
    // A sub-1 J/K die beside heavy nodes at ~1e306 C: the exact bound's
    // quotients |V_ik a_k| / sqrt(C_i) round to inf for the die, so it cuts
    // every step to the 1 ns floor even under a huge finite tolerance. The
    // free-step test must not take the full step there.
    ThermalParams p;
    p.capacity = {1e-4, 100.0, 100.0};
    p.g_to_board = {2.0, 2.0, 0.0};
    p.g_to_ambient = {0.0, 0.0, 0.2};
    p.initial = {25.0, 1e306, 1e306};
    std::size_t cut = 0;
    for (const double dt_max : {1e-6, 1e-3, 1.0, 100.0}) {
        ThermalNetwork net(p);
        ClosedFormReference ref(p);
        const std::array<double, kNumThermalNodes> power{0.0, 0.0, 0.0};
        const double h = net.advance_bounded(dt_max, power, 25.0, 1e300);
        const double h_ref = ref.advance_bounded(dt_max, power, 25.0, 1e300);
        EXPECT_EQ(std::memcmp(&h, &h_ref, sizeof h), 0) << h << " vs " << h_ref;
        cut += h_ref < dt_max;
    }
    EXPECT_GT(cut, 0u); // the exact bound did overflow and cut a step
}

TEST(ThermalNetworkExact, ExactBoundsCountTheStepsTheFreeTestCannotDecide) {
    ThermalNetwork net(default_params());
    net.reset(25.0);
    const std::array<double, kNumThermalNodes> power{3.0, 12.0, 0.0};
    // Far from steady state a 0.01 K tolerance binds within a 1 s budget:
    // the exact bound runs and cuts the step.
    EXPECT_LT(net.advance_bounded(1.0, power, 25.0, 0.01), 1.0);
    EXPECT_EQ(net.exact_bounds(), 1u);
    // A 1 us budget cannot drift any node 0.01 K: the free-step test decides.
    EXPECT_EQ(net.advance_bounded(1e-6, power, 25.0, 0.01), 1e-6);
    EXPECT_EQ(net.exact_bounds(), 1u);
    EXPECT_EQ(net.steps(), 2u);
    net.reset(25.0);
    EXPECT_EQ(net.exact_bounds(), 0u);
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
