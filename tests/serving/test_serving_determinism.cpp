// Serving determinism (mirrors tests/harness/test_harness_parallel.cpp):
// the same seed and the same --jobs count must produce a byte-identical
// ServingTrace -- and so must *different* jobs counts, because episode seeds
// derive from episode identity, never from scheduling order.

#include <gtest/gtest.h>

#include "governors/linux_governors.hpp"
#include "harness/harness.hpp"
#include "platform/presets.hpp"
#include "serving/engine.hpp"

#include "ledger_checks.hpp"

namespace lotus::serving {
namespace {

ServingConfig small_config() {
    ServingConfig cfg(platform::orin_nano_spec());
    for (int i = 0; i < 3; ++i) {
        StreamSpec s;
        s.name = "cam" + std::to_string(i);
        s.dataset = (i == 2) ? "VisDrone2019" : "KITTI";
        s.slo_s = 0.9;
        s.requests = 8;
        s.arrival.kind = (i == 1) ? ArrivalKind::bursty : ArrivalKind::poisson;
        s.arrival.rate_hz = 0.8;
        s.arrival.phase_s = 0.4 * i;
        cfg.streams.push_back(std::move(s));
    }
    cfg.scheduler = "edf_admit";
    cfg.seed = 77;
    return cfg;
}

harness::Scenario serving_scenario(const std::string& name) {
    const auto spec = platform::orin_nano_spec();
    harness::Scenario s(runtime::static_experiment(
        spec, detector::DetectorKind::faster_rcnn, "KITTI", 1, 0));
    s.name = name;
    s.title = name;
    s.serving = small_config();
    s.arms.push_back(harness::default_arm(spec));
    s.arms.push_back(harness::fixed_arm(5, 3));
    s.arms.push_back(harness::ztt_arm(spec));
    return s;
}

void expect_traces_identical(const ServingTrace& a, const ServingTrace& b,
                             const std::string& label) {
    EXPECT_EQ(a.total_energy_j(), b.total_energy_j()) << label;
    EXPECT_EQ(a.max_queue_depth(), b.max_queue_depth()) << label;
    expect_ledgers_identical(a, b, label);
}

TEST(ServingDeterminism, EngineRepeatsByteIdentically) {
    const ServingEngine engine(small_config());
    governors::FixedGovernor g1(5, 3);
    governors::FixedGovernor g2(5, 3);
    expect_traces_identical(engine.run(g1), engine.run(g2), "repeat");
}

TEST(ServingDeterminism, SeedChangesTheTimeline) {
    auto cfg = small_config();
    const auto a = ServingEngine(cfg).build_requests();
    cfg.seed = 78;
    const auto b = ServingEngine(cfg).build_requests();
    ASSERT_EQ(a.size(), b.size());
    bool any_different = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        any_different = any_different || a[i].arrival_s != b[i].arrival_s;
    }
    EXPECT_TRUE(any_different);
}

TEST(ServingDeterminism, ParallelHarnessEqualsSerial) {
    const auto scenario = serving_scenario("serving_parallel_vs_serial");
    const auto serial = harness::ExperimentHarness({.jobs = 1, .seed = 7}).run(scenario);
    const auto parallel = harness::ExperimentHarness({.jobs = 4, .seed = 7}).run(scenario);

    ASSERT_EQ(serial.size(), scenario.arms.size());
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].arm, parallel[i].arm);
        EXPECT_EQ(serial[i].episode_seed, parallel[i].episode_seed);
        ASSERT_TRUE(serial[i].serving_trace.has_value());
        ASSERT_TRUE(parallel[i].serving_trace.has_value());
        expect_traces_identical(*serial[i].serving_trace, *parallel[i].serving_trace,
                                serial[i].arm);
    }
}

TEST(ServingDeterminism, HarnessRepeatsAcrossRuns) {
    const auto scenario = serving_scenario("serving_repeat");
    const harness::ExperimentHarness harness({.jobs = 3, .seed = 11});
    const auto first = harness.run(scenario);
    const auto second = harness.run(scenario);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        expect_traces_identical(*first[i].serving_trace, *second[i].serving_trace,
                                first[i].arm);
    }
}

} // namespace
} // namespace lotus::serving
