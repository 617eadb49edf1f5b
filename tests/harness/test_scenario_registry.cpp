// Tests for the ScenarioRegistry: the catalog covers every paper
// figure/table, lookups round-trip, and arm specs are well-formed.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

#include "harness/registry.hpp"

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
            EXPECT_TRUE(arm.make != nullptr) << s.name << "/" << arm.name;
            EXPECT_TRUE(arm_names.insert(arm.name).second)
                << "duplicate arm " << arm.name << " in " << s.name;
        }
    }
}

TEST(ScenarioRegistry, ArmFactoriesProduceGovernors) {
    const auto& s = registry().at("fig4_kitti");
    for (const auto& arm : s.arms) {
        const auto governor = arm.make(/*seed=*/123);
        ASSERT_NE(governor, nullptr);
        EXPECT_FALSE(governor->name().empty());
    }
}

TEST(ScenarioRegistry, Fig1ArmsSweepTheDetector) {
    const auto& s = registry().at("fig1_kitti");
    ASSERT_EQ(s.arms.size(), 3u);
    std::set<detector::DetectorKind> kinds;
    for (const auto& arm : s.arms) {
        ASSERT_TRUE(arm.tweak != nullptr);
        auto cfg = s.config;
        arm.tweak(cfg);
        kinds.insert(cfg.detector);
    }
    EXPECT_EQ(kinds.size(), 3u) << "each Fig. 1 arm must select a distinct detector";
}

TEST(ScenarioRegistry, ConstraintSweepArmsRescaleTheConstraint) {
    const auto& s = registry().at("stress_constraint_sweep");
    ASSERT_GE(s.arms.size(), 2u);
    std::set<double> constraints;
    for (const auto& arm : s.arms) {
        ASSERT_TRUE(arm.tweak != nullptr);
        auto cfg = s.config;
        arm.tweak(cfg);
        constraints.insert(cfg.schedule.at(0).latency_constraint_s);
    }
    EXPECT_EQ(constraints.size(), s.arms.size());
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

} // namespace
} // namespace lotus::harness
