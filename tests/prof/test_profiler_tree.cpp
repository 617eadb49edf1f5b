// The profiler's call tree on real runs: a serving run, a fleet run and a
// non-learning run, each profiled on a two-job harness. Timings are kept per
// (parent node, region), so every node's total is at most its parent's and
// a parent's child time is exactly the sum of its children's totals.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "harness/harness.hpp"
#include "harness/registry.hpp"
#include "prof/profiler.hpp"

namespace lotus {
namespace {

const harness::ScenarioRegistry& fast_registry() {
    static const harness::ScenarioRegistry registry = [] {
        ::setenv("LOTUS_BENCH_FAST", "1", 1);
        return harness::ScenarioRegistry();
    }();
    return registry;
}

/// Profile one arm of a registry scenario and return the captured report.
prof::Report profile(const std::string& scenario, std::size_t arm) {
    harness::Scenario sc = fast_registry().at(scenario);
    sc.arms = {sc.arms.at(arm)};
    harness::HarnessConfig cfg;
    cfg.jobs = 2;
    cfg.summary_only = true;
    prof::set_enabled(true);
    prof::reset();
    (void)harness::ExperimentHarness(cfg).run(sc);
    const auto report = prof::capture();
    prof::set_enabled(false);
    prof::reset();
    return report;
}

/// Every node's total fits in its parent's, and the parent's child time is
/// the sum of its children's totals.
void expect_tree_consistent(const prof::Report& report) {
    std::map<std::size_t, std::uint64_t> children_ns;
    std::size_t timed = 0;
    for (const auto& r : report.regions) {
        if (r.calls == 0) continue;
        ++timed;
        if (r.parent == static_cast<std::size_t>(-1)) continue;
        ASSERT_LT(r.parent, report.regions.size()) << r.name;
        const auto& parent = report.regions[r.parent];
        EXPECT_LE(r.total_ns, parent.total_ns) << r.name << " under " << parent.name;
        EXPECT_GT(parent.calls, 0u) << r.name << " under " << parent.name;
        children_ns[r.parent] += r.total_ns;
    }
    EXPECT_GT(timed, 1u);
    for (const auto& [parent, ns] : children_ns) {
        EXPECT_EQ(ns, report.regions[parent].child_ns) << report.regions[parent].name;
        EXPECT_LE(ns, report.regions[parent].total_ns) << report.regions[parent].name;
    }
}

/// Names of the parents `name` was timed under ("" for a root).
std::vector<std::string> parents_of(const prof::Report& report, const std::string& name) {
    std::vector<std::string> parents;
    for (const auto& r : report.regions) {
        if (r.name != name || r.calls == 0) continue;
        parents.push_back(r.parent == static_cast<std::size_t>(-1)
                              ? ""
                              : report.regions[r.parent].name);
    }
    return parents;
}

TEST(ProfilerTree, ServingRunNestsChildrenWithinParents) {
    const auto report = profile("serve_light", 0);
    expect_tree_consistent(report);
    // One region under two parents is two nodes: the device advances under
    // frames and under the idle serving loop.
    const auto frame_parents = parents_of(report, "engine.run_frame");
    EXPECT_NE(std::find(frame_parents.begin(), frame_parents.end(), "serving.dispatch"),
              frame_parents.end());
    const auto advance_parents = parents_of(report, "device.advance");
    EXPECT_NE(std::find(advance_parents.begin(), advance_parents.end(), "engine.run_frame"),
              advance_parents.end());
    EXPECT_NE(std::find(advance_parents.begin(), advance_parents.end(), "serving.run"),
              advance_parents.end());
}

TEST(ProfilerTree, FleetRunNestsChildrenWithinParents) {
    expect_tree_consistent(profile("serve_fleet_saturation", 4)); // performance, round_robin
}

TEST(ProfilerTree, NonLearningRunNestsChildrenWithinParents) {
    const auto report = profile("fig2_frcnn_sweep", 0);
    expect_tree_consistent(report);
    EXPECT_TRUE(parents_of(report, "rl.train_batch").empty());
}

} // namespace
} // namespace lotus
