// Harness-level telemetry contract (PR 7): with HarnessConfig::telemetry on,
// every episode carries a populated Recorder whose exports are a pure
// function of the episode -- byte-identical between --jobs 1 and --jobs 4 --
// while the rendered results themselves stay byte-identical to a run with
// recording off. Disabled leaves the recorder pointer null, so nothing is
// allocated and no site records.

#include <gtest/gtest.h>

#include <string>

#include "fleet/engine.hpp"
#include "harness/harness.hpp"
#include "harness/sinks.hpp"
#include "platform/presets.hpp"
#include "serving/engine.hpp"

namespace lotus::harness {
namespace {

serving::ServingConfig serving_config() {
    serving::ServingConfig cfg(platform::orin_nano_spec());
    for (int i = 0; i < 3; ++i) {
        serving::StreamSpec s;
        s.name = "cam" + std::to_string(i);
        s.dataset = (i == 2) ? "VisDrone2019" : "KITTI";
        s.slo_s = 0.9;
        s.requests = 8;
        s.arrival.kind = (i == 1) ? serving::ArrivalKind::bursty
                                  : serving::ArrivalKind::poisson;
        s.arrival.rate_hz = 0.8;
        s.arrival.phase_s = 0.4 * i;
        cfg.streams.push_back(std::move(s));
    }
    cfg.scheduler = "edf_admit";
    cfg.seed = 77;
    return cfg;
}

Scenario serving_scenario(const std::string& name) {
    const auto spec = platform::orin_nano_spec();
    Scenario s(runtime::static_experiment(spec, detector::DetectorKind::faster_rcnn,
                                          "KITTI", 1, 0));
    s.name = name;
    s.title = name;
    s.serving = serving_config();
    s.arms.push_back(default_arm(spec));
    s.arms.push_back(fixed_arm(5, 3));
    return s;
}

Scenario fleet_scenario(const std::string& name) {
    const auto spec = platform::orin_nano_spec();
    Scenario s(runtime::static_experiment(spec, detector::DetectorKind::faster_rcnn,
                                          "KITTI", 1, 0));
    s.name = name;
    s.title = name;
    fleet::FleetConfig cfg;
    cfg.devices.push_back(fleet::make_device("a", spec));
    cfg.devices.push_back(fleet::make_device("b", spec));
    auto serving = serving_config();
    cfg.streams = std::move(serving.streams);
    cfg.scheduler = "edf_admit";
    cfg.router = "least_queue";
    cfg.seed = 77;
    s.fleet = std::move(cfg);
    s.arms.push_back(fleet_arm(fixed_arm(5, 3), "least_queue"));
    return s;
}

TEST(EpisodeCapture, DisabledLeavesRecordersNull) {
    const auto scenario = serving_scenario("telemetry_disabled");
    const auto results = ExperimentHarness({.jobs = 2, .seed = 7}).run(scenario);
    ASSERT_FALSE(results.empty());
    for (const auto& r : results) EXPECT_EQ(r.telemetry, nullptr);
}

TEST(EpisodeCapture, EnabledRecordsEveryEpisodeWithoutPerturbingResults) {
    const auto scenario = serving_scenario("telemetry_enabled");
    const auto plain = ExperimentHarness({.jobs = 2, .seed = 7}).run(scenario);
    const auto recorded =
        ExperimentHarness({.jobs = 2, .seed = 7, .telemetry = true}).run(scenario);
    ASSERT_EQ(recorded.size(), plain.size());
    for (const auto& r : recorded) {
        ASSERT_NE(r.telemetry, nullptr);
        EXPECT_GT(r.telemetry->event_count(), 0u) << r.arm;
    }
    // The instrumented run must render byte-identically: recording observes
    // the episode, it never steers it.
    EXPECT_EQ(scenario_json(scenario, recorded), scenario_json(scenario, plain));
}

void expect_jobs_invariant_exports(const Scenario& scenario) {
    const auto serial =
        ExperimentHarness({.jobs = 1, .seed = 11, .telemetry = true}).run(scenario);
    const auto parallel =
        ExperimentHarness({.jobs = 4, .seed = 11, .telemetry = true}).run(scenario);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_NE(serial[i].telemetry, nullptr);
        ASSERT_NE(parallel[i].telemetry, nullptr);
        EXPECT_EQ(serial[i].telemetry->chrome_trace_json(),
                  parallel[i].telemetry->chrome_trace_json())
            << serial[i].arm;
        EXPECT_EQ(serial[i].telemetry->breaches_jsonl(),
                  parallel[i].telemetry->breaches_jsonl())
            << serial[i].arm;
        // The aggregation layer rides along whenever telemetry is on, and
        // its artifacts obey the same jobs-invariance contract.
        EXPECT_EQ(serial[i].telemetry->rollup_json(), parallel[i].telemetry->rollup_json())
            << serial[i].arm;
        EXPECT_EQ(serial[i].telemetry->health_json(), parallel[i].telemetry->health_json())
            << serial[i].arm;
    }
}

TEST(EpisodeCapture, ServingExportsAreJobsInvariant) {
    expect_jobs_invariant_exports(serving_scenario("telemetry_jobs_serving"));
}

TEST(EpisodeCapture, FleetExportsAreJobsInvariant) {
    expect_jobs_invariant_exports(fleet_scenario("telemetry_jobs_fleet"));
}

} // namespace
} // namespace lotus::harness
