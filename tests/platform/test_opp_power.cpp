// Tests for OPP tables and the power model, parameterized over both device
// presets.

#include <gtest/gtest.h>

#include <cmath>

#include "platform/opp.hpp"
#include "platform/power.hpp"
#include "platform/presets.hpp"

namespace lotus::platform {
namespace {

TEST(OppTable, RejectsDegenerateTables) {
    EXPECT_THROW(OppTable("x", {}), std::invalid_argument);
    EXPECT_THROW(OppTable("x", {{1e9, 0.8}}), std::invalid_argument);
    // Non-ascending frequency.
    EXPECT_THROW(OppTable("x", {{2e9, 0.8}, {1e9, 0.9}}), std::invalid_argument);
    // Descending voltage.
    EXPECT_THROW(OppTable("x", {{1e9, 0.9}, {2e9, 0.8}}), std::invalid_argument);
    // Non-positive entries.
    EXPECT_THROW(OppTable("x", {{0.0, 0.8}, {1e9, 0.9}}), std::invalid_argument);
    EXPECT_THROW(OppTable("x", {{1e9, -0.1}, {2e9, 0.9}}), std::invalid_argument);
}

TEST(OppTable, LevelAccess) {
    OppTable t("gpu", {{1e8, 0.6}, {2e8, 0.7}, {3e8, 0.8}});
    EXPECT_EQ(t.num_levels(), 3u);
    EXPECT_DOUBLE_EQ(t.freq(1), 2e8);
    EXPECT_DOUBLE_EQ(t.voltage(2), 0.8);
    EXPECT_DOUBLE_EQ(t.min_freq(), 1e8);
    EXPECT_DOUBLE_EQ(t.max_freq(), 3e8);
    EXPECT_THROW((void)t.level(3), std::out_of_range);
}

TEST(PowerModel, Validation) {
    PowerParams p;
    p.c_eff = -1.0;
    EXPECT_THROW(PowerModel{p}, std::invalid_argument);
    p = {};
    p.idle_fraction = 1.5;
    EXPECT_THROW(PowerModel{p}, std::invalid_argument);
}

TEST(PowerModel, DynamicScalesWithFV2) {
    PowerParams p;
    p.c_eff = 1e-9;
    p.idle_fraction = 0.0;
    PowerModel m(p);
    const double base = m.dynamic_power(1e9, 0.8, 1.0);
    EXPECT_NEAR(m.dynamic_power(2e9, 0.8, 1.0), 2 * base, 1e-12);
    EXPECT_NEAR(m.dynamic_power(1e9, 1.6, 1.0), 4 * base, 1e-12);
    EXPECT_NEAR(m.dynamic_power(1e9, 0.8, 0.5), 0.5 * base, 1e-12);
}

TEST(PowerModel, IdleFloor) {
    PowerParams p;
    p.c_eff = 1e-9;
    p.idle_fraction = 0.1;
    PowerModel m(p);
    const double full = m.dynamic_power(1e9, 1.0, 1.0);
    const double idle = m.dynamic_power(1e9, 1.0, 0.0);
    EXPECT_NEAR(idle, 0.1 * full, 1e-12);
}

TEST(PowerModel, UtilizationClamped) {
    PowerParams p;
    p.c_eff = 1e-9;
    PowerModel m(p);
    EXPECT_DOUBLE_EQ(m.dynamic_power(1e9, 1.0, 2.0), m.dynamic_power(1e9, 1.0, 1.0));
    EXPECT_DOUBLE_EQ(m.dynamic_power(1e9, 1.0, -1.0), m.dynamic_power(1e9, 1.0, 0.0));
}

TEST(PowerModel, LeakageGrowsExponentiallyWithTemp) {
    PowerParams p;
    p.leak0_w_per_v = 0.5;
    p.leak_temp_coeff = 0.02;
    p.t0_celsius = 25.0;
    PowerModel m(p);
    const double at25 = m.leakage(1.0, 25.0);
    EXPECT_NEAR(at25, 0.5, 1e-12);
    EXPECT_NEAR(m.leakage(1.0, 75.0), 0.5 * std::exp(1.0), 1e-9);
    EXPECT_GT(m.leakage(1.0, 85.0), m.leakage(1.0, 75.0));
}

TEST(PowerModel, TotalIsSumOfParts) {
    PowerParams p;
    p.c_eff = 1e-9;
    p.leak0_w_per_v = 0.2;
    PowerModel m(p);
    const double t = m.total(1e9, 0.9, 0.7, 60.0);
    EXPECT_NEAR(t, m.dynamic_power(1e9, 0.9, 0.7) + m.leakage(0.9, 60.0), 1e-12);
}

// ---------------------------------------------------------------------------
// Preset property suite, parameterized over both devices.
// ---------------------------------------------------------------------------

class PresetSuite : public ::testing::TestWithParam<const char*> {
protected:
    static DeviceSpec spec_for(const std::string& name) {
        return name == "orin" ? orin_nano_spec() : mi11_lite_spec();
    }
};

TEST_P(PresetSuite, LaddersAreWellFormed) {
    const auto spec = spec_for(GetParam());
    for (const auto* domain : {&spec.cpu, &spec.gpu}) {
        ASSERT_GE(domain->opp.num_levels(), 6u);
        for (std::size_t i = 1; i < domain->opp.num_levels(); ++i) {
            ASSERT_GT(domain->opp.freq(i), domain->opp.freq(i - 1));
            ASSERT_GE(domain->opp.voltage(i), domain->opp.voltage(i - 1));
        }
    }
}

TEST_P(PresetSuite, PowerMonotoneInLevel) {
    const auto spec = spec_for(GetParam());
    for (const auto* domain : {&spec.cpu, &spec.gpu}) {
        PowerModel m(domain->power);
        double prev = -1.0;
        for (std::size_t i = 0; i < domain->opp.num_levels(); ++i) {
            const double p =
                m.total(domain->opp.freq(i), domain->opp.voltage(i), 1.0, 50.0);
            ASSERT_GT(p, prev) << "level " << i;
            prev = p;
        }
    }
}

TEST_P(PresetSuite, TurboLevelsCarryVoltageCliff) {
    // The top two GPU levels must cost disproportionally more power than the
    // mid ladder (the burst-only regime the throttler polices).
    const auto spec = spec_for(GetParam());
    const auto& opp = spec.gpu.opp;
    PowerModel m(spec.gpu.power);
    const auto n = opp.num_levels();
    const double p_top = m.dynamic_power(opp.freq(n - 1), opp.voltage(n - 1), 1.0);
    const double p_mid = m.dynamic_power(opp.freq(n - 3), opp.voltage(n - 3), 1.0);
    const double freq_ratio = opp.freq(n - 1) / opp.freq(n - 3);
    const double power_ratio = p_top / p_mid;
    EXPECT_GT(power_ratio, freq_ratio * 1.3)
        << "turbo levels should be superlinearly expensive";
}

TEST_P(PresetSuite, ThrottleParamsSane) {
    const auto spec = spec_for(GetParam());
    EXPECT_GT(spec.gpu_throttle.trip_celsius, spec.initial_ambient_celsius);
    EXPECT_GT(spec.gpu_throttle.hysteresis_k, 0.0);
    EXPECT_LT(spec.gpu_throttle.clamp_level, spec.gpu.opp.num_levels());
    EXPECT_GT(reward_threshold_celsius(spec), spec.initial_ambient_celsius);
    EXPECT_LT(reward_threshold_celsius(spec), throttle_bound_celsius(spec));
}

TEST_P(PresetSuite, MemBandwidthAndLatencies) {
    const auto spec = spec_for(GetParam());
    EXPECT_GT(spec.mem_bandwidth, 1e9);
    EXPECT_GT(spec.dvfs_latency_s, 0.0);
    EXPECT_LT(spec.dvfs_latency_s, 1e-3) << "paper: dozens of microseconds";
}

INSTANTIATE_TEST_SUITE_P(Devices, PresetSuite, ::testing::Values("orin", "mi11"));

TEST(Presets, OrinMatchesPaperHardwareSummary) {
    const auto spec = orin_nano_spec();
    EXPECT_EQ(spec.name, "jetson-orin-nano");
    // 1.5 GHz CPU, 625 MHz GPU (Sec. 4.4).
    EXPECT_NEAR(spec.cpu.opp.max_freq(), 1.5104e9, 1e6);
    EXPECT_NEAR(spec.gpu.opp.max_freq(), 624.75e6, 1e4);
    EXPECT_EQ(spec.cpu.opp.num_levels(), 8u);
    EXPECT_EQ(spec.gpu.opp.num_levels(), 6u);
}

TEST(Presets, Mi11MatchesPaperHardwareSummary) {
    const auto spec = mi11_lite_spec();
    EXPECT_EQ(spec.name, "mi-11-lite");
    // 2.4 GHz Kryo 670 prime core ceiling.
    EXPECT_NEAR(spec.cpu.opp.max_freq(), 2.4e9, 1e6);
    EXPECT_EQ(spec.cpu.opp.num_levels(), 8u);
    EXPECT_EQ(spec.gpu.opp.num_levels(), 8u);
    // Phone throttles at skin-level temperatures (Fig. 6's 28-40 C band).
    EXPECT_LT(throttle_bound_celsius(spec), 50.0);
}

TEST(Presets, OrinFasterThanMi11) {
    const auto orin = orin_nano_spec();
    const auto mi11 = mi11_lite_spec();
    const double orin_gpu = orin.gpu.opp.max_freq() * orin.gpu.ops_per_cycle;
    const double mi11_gpu = mi11.gpu.opp.max_freq() * mi11.gpu.ops_per_cycle;
    // Tables 1 vs 2 show a ~3-4x latency gap.
    EXPECT_GT(orin_gpu / mi11_gpu, 3.0);
    EXPECT_LT(orin_gpu / mi11_gpu, 6.0);
}

} // namespace
} // namespace lotus::platform
