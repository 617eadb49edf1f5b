// Summary-only ledger fast path (PR 6): running a serving or fleet episode
// with capture_rows = false must produce bit-identical summaries -- and
// byte-identical rendered JSON through the harness -- while materialising no
// per-request rows. Also pins the failure mode (write_csv throws: there is
// no ledger to dump) and --jobs invariance over the fast path.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "fleet/engine.hpp"
#include "governors/linux_governors.hpp"
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

fleet::FleetConfig fleet_config() {
    fleet::FleetConfig cfg;
    const auto orin = platform::orin_nano_spec();
    cfg.devices.push_back(fleet::make_device("a", orin));
    cfg.devices.push_back(fleet::make_device("b", orin));
    auto serving = serving_config();
    cfg.streams = std::move(serving.streams);
    cfg.scheduler = "edf_admit";
    cfg.router = "least_queue";
    cfg.seed = 77;
    return cfg;
}

void expect_summary_eq(const serving::ServingSummary& a,
                       const serving::ServingSummary& b, const std::string& label) {
    EXPECT_EQ(a.stream, b.stream) << label;
    EXPECT_EQ(a.requests, b.requests) << label;
    EXPECT_EQ(a.served, b.served) << label;
    EXPECT_EQ(a.shed, b.shed) << label;
    EXPECT_EQ(a.missed, b.missed) << label;
    // EXPECT_EQ on doubles is exact comparison: the fast path must be
    // bit-identical, not merely close.
    EXPECT_EQ(a.p50_ms, b.p50_ms) << label;
    EXPECT_EQ(a.p95_ms, b.p95_ms) << label;
    EXPECT_EQ(a.p99_ms, b.p99_ms) << label;
    EXPECT_EQ(a.mean_wait_ms, b.mean_wait_ms) << label;
    EXPECT_EQ(a.miss_rate, b.miss_rate) << label;
    EXPECT_EQ(a.shed_rate, b.shed_rate) << label;
    EXPECT_EQ(a.throughput_rps, b.throughput_rps) << label;
    EXPECT_EQ(a.energy_per_req_j, b.energy_per_req_j) << label;
    EXPECT_EQ(a.mean_device_temp_c, b.mean_device_temp_c) << label;
    EXPECT_EQ(a.peak_device_temp_c, b.peak_device_temp_c) << label;
}

TEST(SummaryOnly, ServingSummariesAreBitIdenticalToFullLedger) {
    auto cfg = serving_config();
    cfg.capture_rows = true;
    governors::FixedGovernor full_gov(5, 3);
    const auto full = serving::ServingEngine(cfg).run(full_gov);

    cfg.capture_rows = false;
    governors::FixedGovernor fast_gov(5, 3);
    const auto fast = serving::ServingEngine(cfg).run(fast_gov);

    EXPECT_FALSE(full.records().empty());
    EXPECT_TRUE(fast.records().empty()); // no rows materialised
    EXPECT_FALSE(fast.capture_rows());
    EXPECT_EQ(fast.size(), full.size()); // but every request was counted
    EXPECT_EQ(fast.makespan_s(), full.makespan_s());
    EXPECT_EQ(fast.total_energy_j(), full.total_energy_j());

    const auto full_sums = full.all_summaries();
    const auto fast_sums = fast.all_summaries();
    ASSERT_EQ(full_sums.size(), fast_sums.size());
    for (std::size_t i = 0; i < full_sums.size(); ++i) {
        expect_summary_eq(full_sums[i], fast_sums[i], "summary " + std::to_string(i));
    }

    // Row-dependent surfaces are explicitly unavailable, never silently empty
    // CSV files.
    EXPECT_TRUE(fast.e2e_ms().empty());
    EXPECT_TRUE(fast.device_temps().empty());
    EXPECT_THROW(fast.write_csv("/tmp/lotus_summary_only_test.csv"), std::logic_error);
}

TEST(SummaryOnly, FleetSummariesAreBitIdenticalToFullLedger) {
    const auto factory = [](const platform::DeviceSpec&,
                            std::uint64_t) -> std::unique_ptr<governors::Governor> {
        return std::make_unique<governors::FixedGovernor>(5, 3);
    };
    auto cfg = fleet_config();
    cfg.capture_rows = true;
    const auto full = fleet::FleetEngine(cfg).run(factory, 9);
    cfg.capture_rows = false;
    const auto fast = fleet::FleetEngine(cfg).run(factory, 9);

    EXPECT_FALSE(full.records().empty());
    EXPECT_TRUE(fast.records().empty());
    EXPECT_EQ(fast.size(), full.size());
    EXPECT_EQ(fast.makespan_s(), full.makespan_s());
    EXPECT_EQ(fast.migrations(), full.migrations());
    EXPECT_EQ(fast.load_skew(), full.load_skew());

    expect_summary_eq(fast.aggregate(), full.aggregate(), "aggregate");
    for (std::size_t d = 0; d < cfg.devices.size(); ++d) {
        expect_summary_eq(fast.device_summary(d), full.device_summary(d),
                          "device " + std::to_string(d));
        EXPECT_EQ(fast.device_stats(d).peak_temp_c, full.device_stats(d).peak_temp_c);
        EXPECT_EQ(fast.device_stats(d).energy_j, full.device_stats(d).energy_j);
    }
    for (std::size_t s = 0; s < cfg.streams.size(); ++s) {
        expect_summary_eq(fast.stream_summary(s), full.stream_summary(s),
                          "stream " + std::to_string(s));
    }
    EXPECT_THROW(fast.write_csv("/tmp/lotus_summary_only_fleet_test.csv"),
                 std::logic_error);
}

Scenario serving_scenario(const std::string& name) {
    const auto spec = platform::orin_nano_spec();
    Scenario s(runtime::static_experiment(spec, detector::DetectorKind::faster_rcnn,
                                          "KITTI", 1, 0));
    s.name = name;
    s.title = name;
    s.serving = serving_config();
    s.arms.push_back(default_arm());
    s.arms.push_back(fixed_arm(5, 3));
    s.arms.push_back(ztt_arm());
    return s;
}

Scenario fleet_scenario(const std::string& name) {
    const auto spec = platform::orin_nano_spec();
    Scenario s(runtime::static_experiment(spec, detector::DetectorKind::faster_rcnn,
                                          "KITTI", 1, 0));
    s.name = name;
    s.title = name;
    s.fleet = fleet_config();
    s.arms.push_back(fleet_arm(fixed_arm(5, 3), "least_queue"));
    s.arms.push_back(fleet_arm(default_arm(), "round_robin"));
    return s;
}

TEST(SummaryOnly, HarnessJsonIsByteIdenticalForServingScenario) {
    const auto scenario = serving_scenario("summary_only_serving_json");
    const auto full = ExperimentHarness({.jobs = 2, .seed = 7}).run(scenario);
    const auto fast =
        ExperimentHarness({.jobs = 2, .seed = 7, .summary_only = true}).run(scenario);
    ASSERT_EQ(fast.size(), full.size());
    for (const auto& r : fast) {
        ASSERT_TRUE(r.serving_trace.has_value());
        EXPECT_TRUE(r.serving_trace->records().empty());
        EXPECT_GT(r.serving_trace->size(), 0u);
    }
    EXPECT_EQ(scenario_json(scenario, fast), scenario_json(scenario, full));
}

TEST(SummaryOnly, HarnessJsonIsByteIdenticalForFleetScenario) {
    const auto scenario = fleet_scenario("summary_only_fleet_json");
    const auto full = ExperimentHarness({.jobs = 2, .seed = 7}).run(scenario);
    const auto fast =
        ExperimentHarness({.jobs = 2, .seed = 7, .summary_only = true}).run(scenario);
    ASSERT_EQ(fast.size(), full.size());
    for (const auto& r : fast) {
        ASSERT_TRUE(r.fleet_trace.has_value());
        EXPECT_TRUE(r.fleet_trace->records().empty());
    }
    EXPECT_EQ(scenario_json(scenario, fast), scenario_json(scenario, full));
}

TEST(SummaryOnly, JobsCountStaysInvisibleOverTheFastPath) {
    const auto scenario = serving_scenario("summary_only_jobs_invariance");
    const auto serial =
        ExperimentHarness({.jobs = 1, .seed = 11, .summary_only = true}).run(scenario);
    const auto parallel =
        ExperimentHarness({.jobs = 4, .seed = 11, .summary_only = true}).run(scenario);
    EXPECT_EQ(scenario_json(scenario, serial), scenario_json(scenario, parallel));
}

} // namespace
} // namespace lotus::harness
