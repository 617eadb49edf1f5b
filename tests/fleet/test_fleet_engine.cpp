// FleetEngine tests: request accounting across the pool, byte-identical
// determinism (repeat runs and --jobs invariance through the harness),
// per-device governor-seed namespacing, thermal_aware routing flipping away
// from an induced hot device, both engines starting at the spec's ambient,
// throttle migration, failure holdout, and the fleet shapes of the JSON /
// CSV sinks.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>

#include "fleet/engine.hpp"
#include "fleet/router.hpp"
#include "governors/linux_governors.hpp"
#include "serving/engine.hpp"
#include "harness/harness.hpp"
#include "harness/sinks.hpp"
#include "platform/presets.hpp"

#include "../serving/ledger_checks.hpp"

namespace lotus::fleet {
namespace {

namespace fs = std::filesystem;

FleetEngine::GovernorFactory fixed_factory(std::size_t cpu, std::size_t gpu) {
    return [cpu, gpu](const platform::DeviceSpec&,
                      std::uint64_t) -> std::unique_ptr<governors::Governor> {
        return std::make_unique<governors::FixedGovernor>(cpu, gpu);
    };
}

/// A small 2-Orin fleet fed by 3 mixed streams.
FleetConfig small_config() {
    FleetConfig cfg;
    const auto orin = platform::orin_nano_spec();
    cfg.devices.push_back(make_device("a", orin));
    cfg.devices.push_back(make_device("b", orin));
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
    cfg.router = "least_queue";
    cfg.seed = 77;
    return cfg;
}

void expect_traces_identical(const FleetTrace& a, const FleetTrace& b,
                             const std::string& label) {
    ASSERT_EQ(a.device_names(), b.device_names()) << label;
    EXPECT_EQ(a.total_energy_j(), b.total_energy_j()) << label;
    EXPECT_EQ(a.migrations(), b.migrations()) << label;
    serving::expect_ledgers_identical(a, b, label);
}

TEST(FleetEngine, ValidatesTheConfig) {
    auto cfg = small_config();
    cfg.devices.clear();
    EXPECT_THROW((void)FleetEngine(cfg), std::invalid_argument);

    cfg = small_config();
    cfg.devices[1].id = "a"; // duplicate
    EXPECT_THROW((void)FleetEngine(cfg), std::invalid_argument);

    cfg = small_config();
    cfg.router = "warmest_die";
    EXPECT_THROW((void)FleetEngine(cfg), std::invalid_argument);

    cfg = small_config();
    cfg.scheduler = "lifo";
    EXPECT_THROW((void)FleetEngine(cfg), std::invalid_argument);

    cfg = small_config();
    cfg.streams.clear();
    EXPECT_THROW((void)FleetEngine(cfg), std::invalid_argument);
}

TEST(FleetEngine, RejectsInvalidArrivalSpecsAtConstruction) {
    auto cfg = small_config();
    cfg.streams[2].arrival.rate_hz = 0.0;
    EXPECT_THROW((void)FleetEngine(cfg), std::invalid_argument);

    cfg = small_config();
    cfg.streams[1].arrival.burst = 0; // stream 1 is bursty
    EXPECT_THROW((void)FleetEngine(cfg), std::invalid_argument);

    cfg = small_config();
    cfg.streams[0].arrival.kind = serving::ArrivalKind::diurnal;
    cfg.streams[0].arrival.diurnal_floor = 0.0;
    EXPECT_THROW((void)FleetEngine(cfg), std::invalid_argument);
}

TEST(FleetEngine, EveryRequestIsAccountedExactlyOnce) {
    const FleetEngine engine(small_config());
    const auto trace = engine.run(fixed_factory(5, 3), 1);

    const auto requests = engine.build_requests();
    ASSERT_EQ(trace.size(), requests.size());
    std::set<std::size_t> seen;
    for (const auto& r : trace.records()) {
        EXPECT_TRUE(seen.insert(r.request_id).second)
            << "request " << r.request_id << " recorded twice";
    }

    const auto agg = trace.aggregate();
    EXPECT_EQ(agg.requests, requests.size());
    EXPECT_EQ(agg.served + agg.shed, requests.size());
    // Per-device and per-stream partitions both cover the whole ledger.
    std::size_t by_device = 0;
    for (std::size_t d = 0; d < trace.device_names().size(); ++d) {
        by_device += trace.device_summary(d).requests;
    }
    std::size_t by_stream = 0;
    for (std::size_t s = 0; s < trace.stream_names().size(); ++s) {
        by_stream += trace.stream_summary(s).requests;
    }
    EXPECT_EQ(by_device, requests.size());
    EXPECT_EQ(by_stream, requests.size());
}

TEST(FleetEngine, DispatcherTimelineMatchesServingDerivation) {
    const auto cfg = small_config();
    const auto fleet_requests = FleetEngine(cfg).build_requests();
    const auto serving_requests =
        serving::build_request_timeline(cfg.streams, cfg.seed);
    ASSERT_EQ(fleet_requests.size(), serving_requests.size());
    for (std::size_t i = 0; i < fleet_requests.size(); ++i) {
        EXPECT_EQ(fleet_requests[i].arrival_s, serving_requests[i].arrival_s);
        EXPECT_EQ(fleet_requests[i].stream, serving_requests[i].stream);
    }
}

TEST(FleetEngine, RunRepeatsByteIdentically) {
    const FleetEngine engine(small_config());
    const auto a = engine.run(fixed_factory(5, 3), 9);
    const auto b = engine.run(fixed_factory(5, 3), 9);
    expect_traces_identical(a, b, "repeat");
}

TEST(FleetEngine, GovernorSeedsAreNamespacedPerDevice) {
    auto cfg = small_config();
    const FleetEngine engine(cfg);
    // Two identical device slots must hand their governors different seeds
    // (the fleet/serving seed-collision regression): otherwise twin devices
    // replaying the same streams draw identical randomness.
    EXPECT_NE(engine.governor_seed(7, 0), engine.governor_seed(7, 1));

    std::vector<std::uint64_t> handed;
    const FleetEngine::GovernorFactory capturing =
        [&](const platform::DeviceSpec&,
            std::uint64_t seed) -> std::unique_ptr<governors::Governor> {
        handed.push_back(seed);
        return std::make_unique<governors::FixedGovernor>(5, 3);
    };
    (void)engine.run(capturing, 7);
    ASSERT_EQ(handed.size(), 2u);
    EXPECT_EQ(handed[0], engine.governor_seed(7, 0));
    EXPECT_EQ(handed[1], engine.governor_seed(7, 1));
    EXPECT_NE(handed[0], handed[1]);
}

TEST(FleetEngine, ThermalAwareRoutingFlipsAwayFromAnInducedHotDevice) {
    auto cfg = small_config();
    for (auto& s : cfg.streams) s.requests = 12;
    // Device "a" roasts 4 K under its trip point; "b" sits at a cool 25 C.
    cfg.devices[0].ambient_celsius = 81.0;

    cfg.router = "round_robin";
    const auto blind = FleetEngine(cfg).run(fixed_factory(5, 3), 3);
    cfg.router = "thermal_aware";
    const auto aware = FleetEngine(cfg).run(fixed_factory(5, 3), 3);

    const auto routed_to_hot = [](const FleetTrace& t) {
        std::size_t n = 0;
        for (const auto& r : t.records()) n += r.device == 0 ? 1 : 0;
        return n;
    };
    // Round-robin splits the 36 requests evenly; thermal_aware must flip
    // the bulk of the load onto the cool device.
    EXPECT_EQ(routed_to_hot(blind), blind.size() / 2);
    EXPECT_LT(routed_to_hot(aware), blind.size() / 4);
    // ...and the hot die must end up cooler for it.
    EXPECT_LT(aware.device_stats(0).peak_temp_c, blind.device_stats(0).peak_temp_c);
}

/// Pins levels and stores the first frame's observation in `first`, which
/// outlives the engine that owns the governor.
class FirstObservation final : public governors::Governor {
public:
    explicit FirstObservation(std::optional<governors::Observation>& first) : first_(first) {}
    [[nodiscard]] std::string name() const override { return "first_observation"; }
    governors::LevelRequest on_frame_start(const governors::Observation& obs) override {
        if (!first_) first_ = obs;
        return governors::LevelRequest::set(5, 3);
    }
    void on_frame_end(const governors::FrameOutcome&) override {}

private:
    std::optional<governors::Observation>& first_;
};

TEST(FleetEngine, ServingAndFleetDevicesStartAtTheSpecAmbient) {
    // A 35 C spec and no per-slot override: both engines' devices start
    // there, and stay at or above it through a 300 s idle before the only
    // request (idle power heats, nothing cools below ambient).
    auto spec = platform::orin_nano_spec();
    spec.initial_ambient_celsius = 35.0;
    serving::StreamSpec stream;
    stream.name = "cam";
    stream.requests = 1;
    stream.arrival.rate_hz = 1.0;
    stream.arrival.phase_s = 300.0;

    std::optional<governors::Observation> serving_first;
    serving::ServingConfig serving_cfg(spec);
    serving_cfg.streams = {stream};
    FirstObservation serving_gov(serving_first);
    (void)serving::ServingEngine(serving_cfg).run(serving_gov);

    std::optional<governors::Observation> fleet_first;
    FleetConfig fleet_cfg;
    fleet_cfg.devices.push_back(make_device("hot0", spec));
    fleet_cfg.streams = {stream};
    const auto trace = FleetEngine(fleet_cfg).run(
        [&](const platform::DeviceSpec&, std::uint64_t) -> std::unique_ptr<governors::Governor> {
            return std::make_unique<FirstObservation>(fleet_first);
        },
        1);
    EXPECT_GE(trace.device_stats(0).peak_temp_c, 35.0);

    for (const auto& first : {serving_first, fleet_first}) {
        ASSERT_TRUE(first.has_value());
        EXPECT_GE(first->now_s, 300.0);
        EXPECT_GE(first->cpu_temp, 35.0);
        EXPECT_GE(first->gpu_temp, 35.0);
    }
}

TEST(FleetEngine, ThrottleMigrationDrainsTheHotQueue) {
    auto cfg = small_config();
    for (auto& s : cfg.streams) {
        s.requests = 10;
        s.arrival.kind = serving::ArrivalKind::bursty;
        s.arrival.burst = 10; // everything lands at once
        s.arrival.rate_hz = 2.0;
    }
    // Device "a" starts above its trip point: its first frame throttles
    // while the volley is still queued behind it. Plain EDF (no admission
    // control), or the scheduler sheds the hot backlog before migration
    // gets a chance to rescue it.
    cfg.devices[0].ambient_celsius = 86.0;
    cfg.router = "round_robin";
    cfg.scheduler = "edf";
    cfg.migrate_on_throttle = true;

    const auto trace = FleetEngine(cfg).run(fixed_factory(7, 5), 3);
    EXPECT_GT(trace.migrations(), 0u);
    EXPECT_GT(trace.device_stats(0).migrations_out, 0u);
    std::size_t migrated_rows = 0;
    for (const auto& r : trace.records()) migrated_rows += r.migrated ? 1 : 0;
    EXPECT_GT(migrated_rows, 0u);
    // Migrated requests still land somewhere and are accounted once.
    EXPECT_EQ(trace.aggregate().requests, trace.size());
}

TEST(FleetEngine, FailedDeviceIsWithdrawnAndItsQueueReRoutes) {
    auto cfg = small_config();
    for (auto& s : cfg.streams) s.requests = 12;
    cfg.devices[0].fail_at_s = 4.0;
    const auto trace = FleetEngine(cfg).run(fixed_factory(5, 3), 3);

    EXPECT_TRUE(trace.device_stats(0).failed);
    for (const auto& r : trace.records()) {
        if (r.device != 0) continue;
        // Nothing starts on the failed device after (roughly) the failure
        // instant -- only a frame already in flight may straddle it.
        EXPECT_LE(r.start_s, 4.0 + 1.0) << "request " << r.request_id;
    }
    // The survivors absorbed the load: every request is still accounted.
    EXPECT_EQ(trace.aggregate().requests, trace.size());
    EXPECT_GT(trace.device_summary(1).served, trace.device_summary(0).served);
}

TEST(FleetEngine, HeterogeneousPoolGetsDeviceSizedGovernors) {
    // Regression: an arm *built* against one device spec must still hand
    // every pool device a governor sized for that device's own ladder and
    // thermal thresholds (ArmSpec::make_for). Pre-fix, a zTT arm built from
    // the Mi 11's 8x8 action space drove the Orin's 8x6 ladder and threw
    // std::out_of_range from EdgeDevice::request_levels mid-run.
    const auto orin = platform::orin_nano_spec();
    const auto mi11 = platform::mi11_lite_spec();
    harness::Scenario scenario(runtime::static_experiment(
        mi11, detector::DetectorKind::faster_rcnn, "KITTI", 1, 0));
    scenario.name = "fleet_hetero_governors";
    scenario.title = scenario.name;
    auto cfg = small_config();
    cfg.devices.clear();
    cfg.devices.push_back(make_device("orin0", orin));
    cfg.devices.push_back(make_device("phone0", mi11));
    for (auto& s : cfg.streams) s.slo_s = 4.0; // room for a phone-served frame
    scenario.fleet = std::move(cfg);
    scenario.arms.push_back(harness::fleet_arm(harness::ztt_arm(), "least_queue"));

    const auto results = harness::ExperimentHarness({.jobs = 1, .seed = 5}).run(scenario);
    ASSERT_TRUE(results[0].fleet_trace.has_value());
    EXPECT_EQ(results[0].fleet_trace->aggregate().requests,
              results[0].fleet_trace->size());
}

TEST(FleetEngine, ParallelHarnessEqualsSerial) {
    const auto spec = platform::orin_nano_spec();
    harness::Scenario scenario(runtime::static_experiment(
        spec, detector::DetectorKind::faster_rcnn, "KITTI", 1, 0));
    scenario.name = "fleet_parallel_vs_serial";
    scenario.title = scenario.name;
    scenario.fleet = small_config();
    scenario.arms.push_back(harness::fleet_arm(harness::fixed_arm(5, 3), "least_queue"));
    scenario.arms.push_back(harness::fleet_arm(harness::default_arm(), "round_robin"));
    scenario.arms.push_back(
        harness::fleet_arm(harness::performance_arm(), "lotus_fleet"));

    const auto serial = harness::ExperimentHarness({.jobs = 1, .seed = 7}).run(scenario);
    const auto parallel = harness::ExperimentHarness({.jobs = 4, .seed = 7}).run(scenario);
    ASSERT_EQ(serial.size(), scenario.arms.size());
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].arm, parallel[i].arm);
        EXPECT_EQ(serial[i].episode_seed, parallel[i].episode_seed);
        ASSERT_TRUE(serial[i].fleet_trace.has_value());
        ASSERT_TRUE(parallel[i].fleet_trace.has_value());
        expect_traces_identical(*serial[i].fleet_trace, *parallel[i].fleet_trace,
                                serial[i].arm);
    }
    // The rendered JSON (what CI diffs) is byte-identical too.
    EXPECT_EQ(harness::scenario_json(scenario, serial),
              harness::scenario_json(scenario, parallel));
}

TEST(FleetEngine, ArmOverridesApplyPerArm) {
    const auto spec = platform::orin_nano_spec();
    harness::Scenario scenario(runtime::static_experiment(
        spec, detector::DetectorKind::faster_rcnn, "KITTI", 1, 0));
    scenario.name = "fleet_overrides";
    scenario.title = scenario.name;
    scenario.fleet = small_config();
    scenario.arms.push_back(harness::fleet_arm(harness::fixed_arm(5, 3), "round_robin"));
    scenario.arms.push_back(
        harness::fleet_arm(harness::fixed_arm(5, 3), "thermal_aware", true));

    const auto results = harness::ExperimentHarness({.jobs = 2, .seed = 9}).run(scenario);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].fleet_config->router, "round_robin");
    EXPECT_FALSE(results[0].fleet_config->migrate_on_throttle);
    EXPECT_EQ(results[1].fleet_config->router, "thermal_aware");
    EXPECT_TRUE(results[1].fleet_config->migrate_on_throttle);
    // The overrides land on a copy: the shared scenario config is intact.
    EXPECT_EQ(scenario.fleet->router, "least_queue");
}

TEST(FleetSinks, JsonDocumentCarriesFleetShape) {
    const auto spec = platform::orin_nano_spec();
    harness::Scenario scenario(runtime::static_experiment(
        spec, detector::DetectorKind::faster_rcnn, "KITTI", 1, 0));
    scenario.name = "fleet_json";
    scenario.title = scenario.name;
    scenario.fleet = small_config();
    scenario.arms.push_back(harness::fleet_arm(harness::fixed_arm(5, 3), "least_queue"));

    const auto results = harness::ExperimentHarness({.jobs = 1, .seed = 4}).run(scenario);
    ASSERT_TRUE(results[0].is_fleet());
    const auto doc = harness::scenario_json(scenario, results);
    EXPECT_NE(doc.find("\"mode\":\"fleet\""), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"router\":\"least_queue\""), std::string::npos);
    EXPECT_NE(doc.find("\"devices_n\":2"), std::string::npos);
    // The satellite columns: top-level peak temperature and shed rate.
    EXPECT_NE(doc.find("\"peak_temp_c\":"), std::string::npos);
    EXPECT_NE(doc.find("\"shed_rate\":"), std::string::npos);
    EXPECT_NE(doc.find("\"load_skew\":"), std::string::npos);
    EXPECT_NE(doc.find("\"migrations\":"), std::string::npos);
    EXPECT_NE(doc.find("\"stream\":\"a\""), std::string::npos); // device summary
    EXPECT_NE(doc.find("\"stream\":\"cam0\""), std::string::npos);
    EXPECT_NE(doc.find("\"failed\":false"), std::string::npos);
}

TEST(FleetSinks, SummaryCsvCarriesPeakTempAndShedRate) {
    const auto spec = platform::orin_nano_spec();
    harness::Scenario scenario(runtime::static_experiment(
        spec, detector::DetectorKind::faster_rcnn, "KITTI", 1, 0));
    scenario.name = "fleet_csv";
    scenario.title = scenario.name;
    scenario.fleet = small_config();
    scenario.arms.push_back(harness::fleet_arm(harness::fixed_arm(5, 3), "round_robin"));

    const auto results = harness::ExperimentHarness({.jobs = 1, .seed = 4}).run(scenario);
    const auto dir = fs::temp_directory_path() /
                     ("lotus_fleet_csv_test_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    harness::write_csv_traces(dir.string(), scenario.name, results, /*announce=*/false);

    std::ifstream in(dir / "fleet_csv_summary.csv");
    ASSERT_TRUE(in.good());
    std::string header;
    std::getline(in, header);
    EXPECT_NE(header.find("peak_temp_c"), std::string::npos) << header;
    EXPECT_NE(header.find("shed_rate"), std::string::npos) << header;
    EXPECT_NE(header.find("load_skew"), std::string::npos) << header;
    // fleet row + one per device + one per stream
    std::size_t rows = 0;
    for (std::string line; std::getline(in, line);) rows += line.empty() ? 0 : 1;
    EXPECT_EQ(rows, 1 + 2 + 3);

    // The per-request ledger carries the device + migration columns.
    std::ifstream ledger(dir / "fleet_csv_fixed_5_3__round_robin.csv");
    ASSERT_TRUE(ledger.good());
    std::string ledger_header;
    std::getline(ledger, ledger_header);
    EXPECT_NE(ledger_header.find("device"), std::string::npos);
    EXPECT_NE(ledger_header.find("migrated"), std::string::npos);
    fs::remove_all(dir);
}

} // namespace
} // namespace lotus::fleet
