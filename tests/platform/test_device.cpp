// Tests for the EdgeDevice facade: DVFS requests, the event-driven advance
// loop, throttling, and the closed-form thermal stepper against the
// test-local Euler reference (euler_reference.hpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "euler_reference.hpp"
#include "platform/device.hpp"
#include "platform/presets.hpp"

namespace lotus::platform {
namespace {

EdgeDevice make_orin() {
    return EdgeDevice(orin_nano_spec());
}

TEST(EdgeDevice, StartsAtMaxLevelsAndAmbient) {
    auto dev = make_orin();
    EXPECT_EQ(dev.cpu_level(), dev.cpu_levels() - 1);
    EXPECT_EQ(dev.gpu_level(), dev.gpu_levels() - 1);
    EXPECT_NEAR(dev.cpu_temp(), 25.0, 1e-9);
    EXPECT_NEAR(dev.gpu_temp(), 25.0, 1e-9);
    EXPECT_EQ(dev.now(), 0.0);
    EXPECT_EQ(dev.energy_joules(), 0.0);
}

TEST(EdgeDevice, RequestLevelsGrantedWhenCool) {
    auto dev = make_orin();
    dev.request_levels(2, 3);
    EXPECT_EQ(dev.cpu_level(), 2u);
    EXPECT_EQ(dev.gpu_level(), 3u);
    EXPECT_DOUBLE_EQ(dev.cpu_freq(), dev.spec().cpu.opp.freq(2));
    EXPECT_DOUBLE_EQ(dev.gpu_freq(), dev.spec().gpu.opp.freq(3));
}

TEST(EdgeDevice, RequestOutOfRangeThrows) {
    auto dev = make_orin();
    EXPECT_THROW(dev.request_levels(99, 0), std::out_of_range);
    EXPECT_THROW(dev.request_levels(0, 99), std::out_of_range);
}

TEST(EdgeDevice, DvfsTransitionCostsTime) {
    auto dev = make_orin();
    const double t0 = dev.now();
    dev.request_levels(1, 1);
    EXPECT_NEAR(dev.now() - t0, dev.spec().dvfs_latency_s, 1e-12);
    // No-op request costs nothing.
    const double t1 = dev.now();
    dev.request_levels(1, 1);
    EXPECT_EQ(dev.now(), t1);
}

TEST(EdgeDevice, ThroughputScalesWithLevel) {
    auto dev = make_orin();
    dev.request_levels(7, 5);
    const double fast = dev.gpu_throughput();
    dev.request_levels(7, 0);
    const double slow = dev.gpu_throughput();
    EXPECT_GT(fast, slow);
    EXPECT_NEAR(fast / slow,
                dev.spec().gpu.opp.max_freq() / dev.spec().gpu.opp.min_freq(), 1e-9);
}

TEST(EdgeDevice, AdvanceAccumulatesTimeEnergyHeat) {
    auto dev = make_orin();
    dev.advance(5.0, 1.0, 1.0);
    EXPECT_NEAR(dev.now(), 5.0, 1e-9);
    EXPECT_GT(dev.energy_joules(), 0.0);
    EXPECT_GT(dev.gpu_temp(), 25.0);
    EXPECT_GT(dev.cpu_temp(), 25.0);
    EXPECT_GT(dev.last_power().total(), 1.0);
}

TEST(EdgeDevice, IdleDrawsLessThanBusy) {
    auto busy = make_orin();
    auto idle = make_orin();
    busy.advance(5.0, 1.0, 1.0);
    idle.advance(5.0, 0.0, 0.0);
    EXPECT_GT(busy.energy_joules(), 3.0 * idle.energy_joules());
}

TEST(EdgeDevice, NegativeAdvanceThrows) {
    auto dev = make_orin();
    EXPECT_THROW(dev.advance(-0.1, 0, 0), std::invalid_argument);
}

TEST(EdgeDevice, SustainedMaxLoadTripsGpuThrottle) {
    auto dev = make_orin();
    // Run hot long enough for the board to soak; max levels + full util.
    for (int i = 0; i < 400; ++i) dev.advance(1.0, 0.3, 1.0);
    EXPECT_TRUE(dev.gpu_throttled());
    // Granted level is clamped below the request.
    EXPECT_LT(dev.gpu_level(), dev.requested_gpu_level());
}

TEST(EdgeDevice, MidLadderIsThermallySustainable) {
    auto dev = make_orin();
    dev.request_levels(5, 3); // the sustainable operating point of DESIGN.md
    for (int i = 0; i < 600; ++i) dev.advance(1.0, 0.3, 0.8);
    EXPECT_FALSE(dev.gpu_throttled());
    EXPECT_LT(dev.gpu_temp(), dev.spec().gpu_throttle.trip_celsius);
}

TEST(EdgeDevice, ThrottleRecoveryRestoresRequest) {
    auto dev = make_orin();
    for (int i = 0; i < 400; ++i) dev.advance(1.0, 0.3, 1.0);
    ASSERT_TRUE(dev.gpu_throttled());
    // Cool down: idle at cold ambient.
    dev.set_ambient(0.0);
    for (int i = 0; i < 600; ++i) dev.advance(1.0, 0.0, 0.0);
    EXPECT_FALSE(dev.gpu_throttled());
    EXPECT_EQ(dev.gpu_level(), dev.requested_gpu_level());
}

TEST(EdgeDevice, AmbientShiftsTemperatures) {
    auto warm = make_orin();
    auto cold = make_orin();
    cold.set_ambient(0.0);
    // reset() re-seeds the thermal state from ambient.
    cold.reset();
    warm.advance(50.0, 0.5, 0.5);
    cold.advance(50.0, 0.5, 0.5);
    EXPECT_GT(warm.gpu_temp(), cold.gpu_temp() + 10.0);
}

/// Records event/throttle callbacks with a fixed-cadence deadline.
class RecordingListener final : public AdvanceListener {
public:
    explicit RecordingListener(double interval_s) : interval_s_(interval_s), due_(interval_s) {}
    [[nodiscard]] double next_event_s() const override { return due_; }
    void on_event(double now_s, double, double) override {
        events.push_back(now_s);
        due_ += interval_s_;
    }
    void on_throttle(double now_s, bool, bool) override { throttles.push_back(now_s); }

    std::vector<double> events;
    std::vector<double> throttles;

private:
    double interval_s_;
    double due_;
};

TEST(EdgeDevice, SingleAdvanceAuthorityCoversDvfsTransitions) {
    // request_levels used to advance the clock without notifying anyone;
    // now the transition runs through the same event-driven loop, so
    // listener deadlines inside the stall are honoured at their exact time.
    auto spec = orin_nano_spec();
    spec.dvfs_latency_s = 0.2;
    EdgeDevice dev(spec);
    RecordingListener listener(0.07);
    dev.set_advance_listener(&listener);

    dev.request_levels(1, 1); // 0.2 s stall
    ASSERT_EQ(listener.events.size(), 2u); // t = 0.07, 0.14
    EXPECT_NEAR(listener.events[0], 0.07, 1e-12);
    EXPECT_NEAR(listener.events[1], 0.14, 1e-12);
    EXPECT_NEAR(dev.now(), 0.2, 1e-12);
}

TEST(EdgeDevice, ListenerSeesThrottleEngagementAtPollInstants) {
    auto dev = make_orin();
    RecordingListener listener(1e9); // no events, throttle callbacks only
    dev.set_advance_listener(&listener);
    for (int i = 0; i < 400 && listener.throttles.empty(); ++i) dev.advance(1.0, 0.3, 1.0);
    ASSERT_FALSE(listener.throttles.empty());
    // Throttle decisions happen on the 100 ms poll grid.
    EXPECT_NEAR(std::remainder(listener.throttles.front(), 0.1), 0.0, 1e-9);
    EXPECT_TRUE(dev.throttled());
}

TEST(EdgeDevice, AdvanceWorkStopsAtGrantedLevelChange) {
    auto dev = make_orin();
    // Run hot in long requested slices: advance_work must return early the
    // moment a throttle poll changes a granted level, so a caller's sampled
    // throughput stays valid over the returned interval.
    bool saw_early_return = false;
    for (int i = 0; i < 500 && !saw_early_return; ++i) {
        const auto cpu_before = dev.cpu_level();
        const auto gpu_before = dev.gpu_level();
        const double h = dev.advance_work(5.0, 0.3, 1.0);
        ASSERT_GT(h, 0.0);
        if (h < 5.0 - 1e-9) {
            saw_early_return = true;
            // Early return must coincide with a granted-level change.
            EXPECT_TRUE(dev.cpu_level() != cpu_before || dev.gpu_level() != gpu_before);
            // ... at a throttle-poll instant.
            EXPECT_NEAR(std::remainder(dev.now(), 0.1), 0.0, 1e-9);
        }
    }
    EXPECT_TRUE(saw_early_return);
    EXPECT_TRUE(dev.throttled());
}

TEST(EdgeDevice, SubNanosecondAdvanceStillMakesProgress) {
    // Residual work slices can be arbitrarily small (an event boundary
    // landing just before a stage end); the advance loop must burn them
    // rather than returning 0 elapsed, or work-integration loops would spin.
    auto dev = make_orin();
    const double h = dev.advance_work(1e-13, 1.0, 0.0);
    EXPECT_DOUBLE_EQ(h, 1e-13);
    EXPECT_GT(dev.now(), 0.0);
}

/// One constant-utilization stretch of an excursion.
struct Phase {
    double dt;
    double cpu_util;
    double gpu_util;
};

struct EulerResult {
    std::array<double, kNumThermalNodes> temps;
    double energy_j;
    std::uint64_t steps;
};

/// Reference integrator local to this test: 20 ms slices of
/// EulerReference::step (5 ms Euler sub-steps), each under the domain
/// powers PowerModel::total gives at the slice start. Slices also end on the
/// 100 ms throttle-poll grid, so they fall where the device's event loop
/// splits time. Levels stay fixed (the excursions never reach a trip point).
EulerResult euler_reference(const DeviceSpec& spec, std::size_t cpu_level,
                            std::size_t gpu_level, const std::vector<Phase>& phases) {
    EulerReference net(spec.thermal, spec.initial_ambient_celsius);
    const PowerModel cpu_power(spec.cpu.power);
    const PowerModel gpu_power(spec.gpu.power);
    const double poll_s = spec.gpu_throttle.poll_interval_s;
    double now = 0.0;
    double next_poll = poll_s;
    double energy = 0.0;
    for (const auto& phase : phases) {
        for (double remaining = phase.dt; remaining > 0.0;) {
            const double h = std::min({remaining, 0.02, next_poll - now});
            const double p_cpu = cpu_power.total(spec.cpu.opp.freq(cpu_level),
                                                 spec.cpu.opp.voltage(cpu_level),
                                                 phase.cpu_util, net.temperature(ThermalNode::cpu));
            const double p_gpu = gpu_power.total(spec.gpu.opp.freq(gpu_level),
                                                 spec.gpu.opp.voltage(gpu_level),
                                                 phase.gpu_util, net.temperature(ThermalNode::gpu));
            net.step(h, {p_cpu, p_gpu, 0.0}, spec.initial_ambient_celsius);
            energy += (p_cpu + p_gpu) * h;
            now += h;
            remaining -= h;
            if (now >= next_poll - 1e-12) next_poll += poll_s;
        }
    }
    return {net.temperatures(), energy, net.steps()};
}

TEST(EdgeDevice, ClosedFormStepperMatchesEulerReference) {
    // Excursions below the trip point, so throttling never interferes: a
    // pure integrator comparison.
    const struct {
        const char* name;
        std::vector<Phase> phases;
    } excursions[] = {
        {"heat_then_cool", {{20.0, 0.4, 0.8}, {10.0, 0.05, 0.0}}},
        {"sustained_load", {{30.0, 0.3, 0.8}}},
    };
    const auto spec = orin_nano_spec();
    for (const auto& ex : excursions) {
        SCOPED_TRACE(ex.name);
        EdgeDevice dev(spec);
        dev.request_levels(5, 3); // charges one idle DVFS stall
        for (const auto& p : ex.phases) dev.advance(p.dt, p.cpu_util, p.gpu_util);

        std::vector<Phase> phases{{spec.dvfs_latency_s, 0.0, 0.0}};
        phases.insert(phases.end(), ex.phases.begin(), ex.phases.end());
        const auto ref = euler_reference(spec, 5, 3, phases);

        EXPECT_NEAR(dev.cpu_temp(), ref.temps[0], 0.05);
        EXPECT_NEAR(dev.gpu_temp(), ref.temps[1], 0.05);
        EXPECT_NEAR(dev.board_temp(), ref.temps[2], 0.05);
        EXPECT_NEAR(dev.energy_joules() / ref.energy_j, 1.0, 0.005);
        // >= 3x fewer integration steps; without governor ticks the
        // event-driven stepper does far better than that.
        EXPECT_GE(static_cast<double>(ref.steps), 3.0 * static_cast<double>(dev.thermal_steps()));
    }
}

TEST(EdgeDevice, ResetRestoresColdStart) {
    auto dev = make_orin();
    dev.advance(100.0, 1.0, 1.0);
    dev.request_levels(2, 2);
    dev.reset();
    EXPECT_EQ(dev.now(), 0.0);
    EXPECT_EQ(dev.energy_joules(), 0.0);
    EXPECT_NEAR(dev.cpu_temp(), dev.ambient(), 1e-9);
    // Requested levels survive a reset (reset is thermal, not config).
    EXPECT_EQ(dev.requested_cpu_level(), 2u);
}

} // namespace
} // namespace lotus::platform
