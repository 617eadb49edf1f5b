// Tests for the ScenarioRegistry: the catalog covers every paper
// figure/table, lookups round-trip, arm specs are well-formed and compare
// as values, build() applies the device rules, and the ambient tables
// equal the closures they replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <variant>

#include "../../examples/budget_governor.hpp"
#include "harness/registry.hpp"
#include "platform/presets.hpp"
#include "workload/presets.hpp"

namespace lotus::harness {
namespace {

const ScenarioRegistry& registry() { return ScenarioRegistry::instance(); }

TEST(ScenarioRegistry, CoversEveryPaperFigureAndTable) {
    const char* expected[] = {
        "fig1_kitti",          "fig1_visdrone",
        "fig2_frcnn_sweep",    "fig2_mrcnn_sweep",
        "fig4_visdrone",       "fig4_kitti",
        "fig5_visdrone",       "fig5_kitti",
        "fig6_visdrone",       "fig6_kitti",
        "fig7a_temp_changes",  "fig7b_domain_changes",
        "table1_frcnn_kitti",  "table1_frcnn_visdrone",
        "table1_mrcnn_kitti",  "table1_mrcnn_visdrone",
        "table2_frcnn_kitti",  "table2_frcnn_visdrone",
        "table2_mrcnn_kitti",  "table2_mrcnn_visdrone",
        "ablation_design",
    };
    for (const char* name : expected) {
        EXPECT_NE(registry().find(name), nullptr) << "missing paper scenario " << name;
    }
}

TEST(ScenarioRegistry, HasStressAndExampleScenarios) {
    EXPECT_GE(registry().with_tag("stress").size(), 4u);
    EXPECT_GE(registry().with_tag("example").size(), 3u);
}

TEST(ScenarioRegistry, NamesAreUnique) {
    std::set<std::string> names;
    for (const auto& s : registry().all()) {
        EXPECT_TRUE(names.insert(s.name).second) << "duplicate scenario " << s.name;
    }
}

TEST(ScenarioRegistry, LookupsRoundTrip) {
    for (const auto& s : registry().all()) {
        const auto* found = registry().find(s.name);
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(found, &s);
        EXPECT_EQ(&registry().at(s.name), &s);
    }
}

TEST(ScenarioRegistry, AtThrowsForUnknownName) {
    EXPECT_THROW((void)registry().at("no_such_scenario"), std::out_of_range);
    EXPECT_EQ(registry().find("no_such_scenario"), nullptr);
}

TEST(ScenarioRegistry, ScenariosAreWellFormed) {
    for (const auto& s : registry().all()) {
        EXPECT_FALSE(s.name.empty());
        EXPECT_FALSE(s.title.empty()) << s.name;
        EXPECT_FALSE(s.description.empty()) << s.name;
        EXPECT_FALSE(s.tags.empty()) << s.name;
        EXPECT_GE(s.arms.size(), 1u) << s.name;
        EXPECT_GT(s.config.iterations, 0u) << s.name;
        std::set<std::string> arm_names;
        for (const auto& arm : s.arms) {
            EXPECT_FALSE(arm.name.empty()) << s.name;
            EXPECT_TRUE(arm.make_for != nullptr) << s.name << "/" << arm.name;
            EXPECT_TRUE(arm_names.insert(arm.name).second)
                << "duplicate arm " << arm.name << " in " << s.name;
        }
    }
}

TEST(ScenarioRegistry, ArmFactoriesProduceGovernors) {
    const auto& s = registry().at("fig4_kitti");
    for (const auto& arm : s.arms) {
        const auto governor = arm.make_for(s.config.device_spec, /*seed=*/123);
        ASSERT_NE(governor, nullptr);
        EXPECT_FALSE(governor->name().empty());
    }
}

const ArmSpec& arm_named(const std::string& scenario, const std::string& arm) {
    for (const auto& a : registry().at(scenario).arms) {
        if (a.name == arm) return a;
    }
    throw std::out_of_range(scenario + " has no arm " + arm);
}

TEST(ScenarioRegistry, SharedLotusWarmupsHaveEqualGovernorSpecs) {
    // Arms are values: the same LOTUS agent on the same device compares
    // equal across scenarios (the warm-up a pretrain cache could share).
    const auto& fig4 = arm_named("fig4_kitti", "Lotus").governor;
    EXPECT_TRUE(std::holds_alternative<Lotus>(fig4));
    EXPECT_EQ(fig4, arm_named("table1_frcnn_kitti", "Lotus").governor);
    EXPECT_EQ(fig4, arm_named("ablation_design", "Lotus(full)").governor);
    EXPECT_NE(fig4, arm_named("fig4_kitti", "zTT").governor);
    EXPECT_NE(fig4, arm_named("fig6_kitti", "Lotus").governor); // Mi 11 threshold
}

TEST(ScenarioRegistry, AblationArmsAreDistinctGovernors) {
    const auto& arms = registry().at("ablation_design").arms;
    ASSERT_EQ(arms.size(), 6u);
    for (std::size_t i = 0; i < arms.size(); ++i) {
        for (std::size_t j = i + 1; j < arms.size(); ++j) {
            EXPECT_NE(arms[i].governor, arms[j].governor)
                << arms[i].name << " vs " << arms[j].name;
        }
    }
}

TEST(GovernorSpec, FixedLevelsOutsideTheLadderThrow) {
    const auto orin = platform::orin_nano_spec();
    EXPECT_THROW((void)build(Fixed{9, 9}, orin, 1), std::invalid_argument);
    EXPECT_THROW((void)build(Fixed{0, orin.gpu.opp.num_levels()}, orin, 1),
                 std::invalid_argument);
    EXPECT_EQ(build(Fixed{5, 3}, orin, 1)->name(), "fixed");
}

TEST(GovernorSpec, BuildSizesLotusToTheDevice) {
    // A stored threshold at/above the device's throttle bound falls back to
    // the device's own reward threshold; one below it is kept.
    const auto orin = platform::orin_nano_spec();
    const auto mi11 = platform::mi11_lite_spec();
    const Lotus orin_lotus{lotus_config(orin)};
    const auto on_phone = build(orin_lotus, mi11, 3);
    const auto& phone_cfg = dynamic_cast<const core::LotusAgent&>(*on_phone).config();
    EXPECT_EQ(phone_cfg.reward.t_thres_celsius, platform::reward_threshold_celsius(mi11));
    EXPECT_EQ(phone_cfg.seed, 3u);
    const auto on_orin = build(orin_lotus, orin, 4);
    EXPECT_EQ(dynamic_cast<const core::LotusAgent&>(*on_orin).config().reward.t_thres_celsius,
              platform::reward_threshold_celsius(orin));
}

TEST(GovernorSpec, HandMadeArmsAreCustom) {
    // An arm with its own make_for runs a governor outside the vocabulary:
    // its spec is Custom, never equal to a vocabulary arm's, and build()
    // has nothing to make from it.
    const auto budget = budget_arm();
    EXPECT_EQ(budget.governor, GovernorSpec{Custom{"budget-heuristic"}});
    EXPECT_NE(budget.governor, default_arm().governor);
    EXPECT_NE(ArmSpec{}.governor, default_arm().governor);
    EXPECT_NE(budget.governor, ArmSpec{}.governor);
    const auto orin = platform::orin_nano_spec();
    EXPECT_THROW((void)build(budget.governor, orin, 1), std::invalid_argument);
    EXPECT_EQ(budget.make_for(orin, 1)->name(), "budget-heuristic");
}

TEST(ScenarioRegistry, Fig1ArmsSweepTheDetector) {
    const auto& s = registry().at("fig1_kitti");
    ASSERT_EQ(s.arms.size(), 3u);
    std::set<detector::DetectorKind> kinds;
    for (const auto& arm : s.arms) {
        ASSERT_TRUE(arm.overrides.detector.has_value()) << arm.name;
        ASSERT_TRUE(arm.overrides.schedule.has_value()) << arm.name;
        kinds.insert(*arm.overrides.detector);
    }
    EXPECT_EQ(kinds.size(), 3u) << "each Fig. 1 arm must select a distinct detector";
}

TEST(ScenarioRegistry, ConstraintSweepArmsRescaleTheConstraint) {
    const auto& s = registry().at("stress_constraint_sweep");
    ASSERT_GE(s.arms.size(), 2u);
    std::set<double> constraints;
    for (const auto& arm : s.arms) {
        ASSERT_TRUE(arm.overrides.schedule.has_value()) << arm.name;
        constraints.insert(arm.overrides.schedule->at(0).latency_constraint_s);
    }
    EXPECT_EQ(constraints.size(), s.arms.size());
}

TEST(ScenarioRegistry, ArmOverridesMatchScenarioMode) {
    // An override only means something to the engine that reads its config
    // field: routing to fleet episodes, detector/schedule/proposal pins to
    // the experiment runner.
    std::size_t routed = 0;
    std::size_t pinned = 0;
    for (const auto& s : registry().all()) {
        const bool experiment = !s.is_fleet() && !s.is_serving();
        for (const auto& arm : s.arms) {
            const auto& o = arm.overrides;
            routed += o.router.has_value() ? 1 : 0;
            pinned += o.pinned_proposals.has_value() ? 1 : 0;
            if (!s.is_fleet()) {
                EXPECT_FALSE(o.router.has_value()) << s.name << "/" << arm.name;
                EXPECT_FALSE(o.migrate_on_throttle.has_value()) << s.name << "/" << arm.name;
            }
            if (!experiment) {
                EXPECT_FALSE(o.detector.has_value()) << s.name << "/" << arm.name;
                EXPECT_FALSE(o.schedule.has_value()) << s.name << "/" << arm.name;
                EXPECT_FALSE(o.pinned_proposals.has_value()) << s.name << "/" << arm.name;
            }
        }
    }
    EXPECT_GT(routed, 0u) << "the router shoot-outs carry router overrides";
    EXPECT_GT(pinned, 0u) << "the Fig. 2 probes carry proposal pins";
}

TEST(ScenarioRegistry, TagQueriesMatchTagMembership) {
    for (const auto* s : registry().with_tag("paper")) {
        EXPECT_TRUE(s->has_tag("paper"));
    }
    EXPECT_TRUE(registry().with_tag("no_such_tag").empty());
    const auto count_prefix = [](const std::string& prefix) {
        return std::count_if(registry().all().begin(), registry().all().end(),
                             [&](const Scenario& s) { return s.name.rfind(prefix, 0) == 0; });
    };
    EXPECT_EQ(count_prefix("table1_"), 4);
    EXPECT_EQ(count_prefix("table2_"), 4);
}

// The drone-mission and heatwave ambients as the closures the registry
// used before they became segment tables; the tables must reproduce them
// bit for bit at every iteration.
double mission_reference(std::size_t i, double n) {
    const double t = static_cast<double>(i) / n;
    if (t < 1.0 / 6.0) return 25.0;
    if (t < 7.0 / 18.0) return 25.0 - 30.0 * (t - 1.0 / 6.0) / (2.0 / 9.0);
    if (t < 13.0 / 18.0) return -5.0;
    if (t < 17.0 / 18.0) return -5.0 + 30.0 * (t - 13.0 / 18.0) / (2.0 / 9.0);
    return 25.0;
}

double heatwave_reference(std::size_t i, double n, double peak_c) {
    const double t = static_cast<double>(i) / n;
    if (t < 0.25) return 25.0;
    if (t < 0.5) return 25.0 + (peak_c - 25.0) * (t - 0.25) / 0.25;
    if (t < 0.75) return peak_c;
    return peak_c - (peak_c - 25.0) * (t - 0.75) / 0.25;
}

/// Restores LOTUS_BENCH_FAST when the test ends, however it ends.
struct FastModeGuard {
    FastModeGuard() {
        if (const char* env = std::getenv("LOTUS_BENCH_FAST")) saved = env;
    }
    ~FastModeGuard() {
        if (saved) {
            ::setenv("LOTUS_BENCH_FAST", saved->c_str(), 1);
        } else {
            ::unsetenv("LOTUS_BENCH_FAST");
        }
    }
    std::optional<std::string> saved;
};

TEST(ScenarioRegistry, AmbientTablesEqualTheirClosureReferencesBitForBit) {
    const FastModeGuard guard;
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    for (const bool fast : {true, false}) {
        SCOPED_TRACE(fast ? "fast" : "full");
        if (fast) {
            ::setenv("LOTUS_BENCH_FAST", "1", 1);
        } else {
            ::unsetenv("LOTUS_BENCH_FAST");
        }
        const ScenarioRegistry sizes;

        const auto& mission = sizes.at("example_drone_mission").config;
        EXPECT_EQ(mission.iterations, fast ? 600u : 1800u);
        EXPECT_EQ(mission.ambient.description(), "drone mission: ground/climb/loiter/descend");
        const double n_mission = static_cast<double>(mission.iterations);
        for (std::size_t i = 0; i <= mission.iterations; ++i) {
            ASSERT_EQ(bits(mission.ambient.at(i)), bits(mission_reference(i, n_mission)))
                << "mission iteration " << i;
        }

        const auto& heat = sizes.at("stress_heatwave").config;
        EXPECT_EQ(heat.iterations, fast ? 600u : 3000u);
        EXPECT_EQ(heat.ambient.description(), "heatwave: 25C -> 45C -> 25C");
        const double n_heat = static_cast<double>(heat.iterations);
        for (std::size_t i = 0; i <= heat.iterations; ++i) {
            ASSERT_EQ(bits(heat.ambient.at(i)), bits(heatwave_reference(i, n_heat, 45.0)))
                << "heatwave iteration " << i;
        }
    }
}

TEST(LoadScenario, ShellCarriesItsShapeOnEitherEngine) {
    using detector::DetectorKind;
    const auto mi11 = platform::mi11_lite_spec();
    const LoadShape shape{.detector = DetectorKind::mask_rcnn,
                          .dataset = "VisDrone2019",
                          .scheduler = "fifo",
                          .pretrain_iterations = 7};
    const double l =
        workload::latency_constraint_s(mi11.name, DetectorKind::mask_rcnn, "VisDrone2019");

    const auto one = load_scenario(mi11, "one", "One device", shape);
    ASSERT_TRUE(one.is_serving());
    EXPECT_FALSE(one.is_fleet());
    EXPECT_EQ(one.name, "one");
    EXPECT_EQ(one.title, "One device");
    EXPECT_EQ(one.tags, (std::vector<std::string>{"serving"}));
    EXPECT_EQ(one.serving->device_spec.name, mi11.name);
    EXPECT_EQ(one.serving->detector, DetectorKind::mask_rcnn);
    EXPECT_EQ(one.serving->scheduler, "fifo");
    EXPECT_EQ(one.serving->pretrain_iterations, 7u);
    EXPECT_EQ(one.serving->pretrain_constraint_s, l);
    EXPECT_TRUE(one.serving->streams.empty());
    EXPECT_EQ(one.config.detector, DetectorKind::mask_rcnn);
    EXPECT_EQ(one.config.schedule.at(0).dataset, "VisDrone2019");
    EXPECT_TRUE(one.arms.empty());

    auto fleet_shape = shape;
    fleet_shape.fleet = true;
    const auto pool = load_scenario(mi11, "pool", "Pool", fleet_shape);
    ASSERT_TRUE(pool.is_fleet());
    EXPECT_FALSE(pool.is_serving());
    EXPECT_EQ(pool.tags, (std::vector<std::string>{"serving", "fleet"}));
    EXPECT_TRUE(pool.fleet->devices.empty());
    EXPECT_EQ(pool.fleet->scheduler, "fifo");
    EXPECT_EQ(pool.fleet->pretrain_constraint_s, l);
}

} // namespace
} // namespace lotus::harness
