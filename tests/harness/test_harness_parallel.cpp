// Tests for the ExperimentHarness: parallel execution must reproduce the
// serial run result-for-result, episode seeds must be pure functions of the
// episode identity, and failures must propagate.

#include <gtest/gtest.h>

#include <stdexcept>

#include "harness/harness.hpp"
#include "platform/presets.hpp"
#include "runtime/runner.hpp"
#include "util/rng.hpp"

namespace lotus::harness {
namespace {

/// Small but non-trivial scenario: two kernel governors, one random-walk
/// governor and one learning governor over a short KITTI run.
Scenario small_scenario(const std::string& name, std::size_t iterations = 60) {
    const auto spec = platform::orin_nano_spec();
    Scenario s(runtime::static_experiment(spec, detector::DetectorKind::faster_rcnn,
                                          "KITTI", iterations, /*pretrain=*/40));
    s.name = name;
    s.title = name;
    s.arms.push_back(default_arm());
    s.arms.push_back(fixed_arm(5, 3));
    s.arms.push_back(ztt_arm());
    return s;
}

void expect_traces_equal(const runtime::Trace& a, const runtime::Trace& b,
                         const std::string& label) {
    ASSERT_EQ(a.size(), b.size()) << label;
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].latency_s, b[i].latency_s) << label << " row " << i;
        ASSERT_EQ(a[i].stage1_s, b[i].stage1_s) << label << " row " << i;
        ASSERT_EQ(a[i].stage2_s, b[i].stage2_s) << label << " row " << i;
        ASSERT_EQ(a[i].proposals, b[i].proposals) << label << " row " << i;
        ASSERT_EQ(a[i].cpu_temp, b[i].cpu_temp) << label << " row " << i;
        ASSERT_EQ(a[i].gpu_temp, b[i].gpu_temp) << label << " row " << i;
        ASSERT_EQ(a[i].cpu_level, b[i].cpu_level) << label << " row " << i;
        ASSERT_EQ(a[i].gpu_level, b[i].gpu_level) << label << " row " << i;
        ASSERT_EQ(a[i].energy_j, b[i].energy_j) << label << " row " << i;
        ASSERT_EQ(a[i].throttled, b[i].throttled) << label << " row " << i;
    }
}

TEST(ExperimentHarness, ParallelEqualsSerialResultForResult) {
    const auto scenario = small_scenario("parallel_vs_serial");
    const auto serial = ExperimentHarness({.jobs = 1, .seed = 7}).run(scenario);
    const auto parallel = ExperimentHarness({.jobs = 4, .seed = 7}).run(scenario);

    ASSERT_EQ(serial.size(), scenario.arms.size());
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].arm, parallel[i].arm);
        EXPECT_EQ(serial[i].episode_seed, parallel[i].episode_seed);
        expect_traces_equal(serial[i].trace, parallel[i].trace, serial[i].arm);
    }
}

TEST(ExperimentHarness, DeterministicAcrossRepeatedRuns) {
    const auto scenario = small_scenario("repeat");
    const ExperimentHarness harness({.jobs = 3, .seed = 11});
    const auto first = harness.run(scenario);
    const auto second = harness.run(scenario);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        expect_traces_equal(first[i].trace, second[i].trace, first[i].arm);
    }
}

TEST(ExperimentHarness, BatchPreservesDeclarationOrder) {
    const auto a = small_scenario("batch_a", 30);
    const auto b = small_scenario("batch_b", 30);
    const auto results = ExperimentHarness({.jobs = 4, .seed = 3}).run({&a, &b});
    ASSERT_EQ(results.size(), a.arms.size() + b.arms.size());
    for (std::size_t i = 0; i < a.arms.size(); ++i) {
        EXPECT_EQ(results[i].scenario, "batch_a");
        EXPECT_EQ(results[i].arm, a.arms[i].name);
    }
    for (std::size_t i = 0; i < b.arms.size(); ++i) {
        EXPECT_EQ(results[a.arms.size() + i].scenario, "batch_b");
        EXPECT_EQ(results[a.arms.size() + i].arm, b.arms[i].name);
    }
}

TEST(ExperimentHarness, EpisodeSeedsDeriveFromIdentity) {
    const auto scenario = small_scenario("seeding");
    const auto results = ExperimentHarness({.jobs = 2, .seed = 42}).run(scenario);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].episode_seed, util::derive_seed(42, "seeding", i));
        for (std::size_t j = i + 1; j < results.size(); ++j) {
            EXPECT_NE(results[i].episode_seed, results[j].episode_seed);
        }
    }
}

TEST(ExperimentHarness, RootSeedChangesEveryEpisode) {
    const auto scenario = small_scenario("root_seed");
    const auto a = ExperimentHarness({.jobs = 2, .seed = 1}).run(scenario);
    const auto b = ExperimentHarness({.jobs = 2, .seed = 2}).run(scenario);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_NE(a[i].episode_seed, b[i].episode_seed);
    }
}

TEST(ExperimentHarness, ArmOverridesApplyPerEpisode) {
    const auto spec = platform::orin_nano_spec();
    Scenario s(runtime::static_experiment(spec, detector::DetectorKind::faster_rcnn,
                                          "KITTI", 20, 0));
    auto tight = fixed_arm(5, 3);
    tight.name = "tight";
    tight.overrides.schedule = workload::DomainSchedule::constant("KITTI", 0.1);
    s.name = "overrides";
    s.arms.push_back(fixed_arm(5, 3));
    s.arms.push_back(std::move(tight));

    const auto results = ExperimentHarness({.jobs = 2, .seed = 5}).run(s);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_NE(results[0].trace[0].constraint_s, 0.1);
    EXPECT_EQ(results[1].trace[0].constraint_s, 0.1);
    // The override lands on a copy: the shared scenario config is intact.
    EXPECT_NE(s.config.schedule.at(0).latency_constraint_s, 0.1);
}

TEST(ExperimentHarness, EpisodeFailuresPropagate) {
    const auto spec = platform::orin_nano_spec();
    Scenario s(runtime::static_experiment(spec, detector::DetectorKind::faster_rcnn,
                                          "KITTI", 10, 0));
    s.name = "failing";
    ArmSpec bad;
    bad.name = "bad";
    bad.make_for = [](const platform::DeviceSpec&,
                      std::uint64_t) -> std::unique_ptr<governors::Governor> {
        throw std::invalid_argument("bad arm");
    };
    // A hand-made arm keeps the Custom spec: it never reads as the stock governors.
    EXPECT_NE(bad.governor, default_arm().governor);
    s.arms.push_back(fixed_arm(5, 3));
    s.arms.push_back(std::move(bad));

    EXPECT_THROW((void)ExperimentHarness({.jobs = 2, .seed = 5}).run(s),
                 std::invalid_argument);
}

TEST(ExperimentHarness, PinnedProposalsPinEveryMeasuredFrame) {
    const auto spec = platform::orin_nano_spec();
    Scenario s(runtime::static_experiment(spec, detector::DetectorKind::faster_rcnn,
                                          "KITTI", 5, 0));
    s.name = "pinned";
    s.config.pinned_proposals = 123;
    s.arms.push_back(fixed_arm(5, 3));
    const auto results = ExperimentHarness({.jobs = 1, .seed = 9}).run(s);
    ASSERT_EQ(results[0].trace.size(), 5u);
    for (const auto& row : results[0].trace.rows()) {
        EXPECT_EQ(row.proposals, 123);
    }
}

} // namespace
} // namespace lotus::harness
