// Tests for the ServingEngine: request-timeline construction, conservation
// of requests (served + shed == offered), end-to-end latency accounting
// (queue wait visible to the governor's reward), thermal carry-over across
// interleaved streams, admission-control behaviour under overload, the
// per-stream/aggregate summaries, the Station serve step both engines
// share (expected-service EWMA, served and shed rows, frame counter), and
// how the serving and fleet traces reject a row with an unknown stream or
// device index.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "fleet/trace.hpp"
#include "governors/linux_governors.hpp"
#include "platform/presets.hpp"
#include "serving/engine.hpp"
#include "serving/scheduler.hpp"
#include "telemetry/recorder.hpp"
#include "util/stats.hpp"

#include "ledger_checks.hpp"

namespace lotus::serving {
namespace {

/// Records every FrameOutcome the engine reports (to observe what a
/// learning governor would see), otherwise pins levels like FixedGovernor.
class OutcomeSpy final : public governors::Governor {
public:
    [[nodiscard]] std::string name() const override { return "spy"; }
    governors::LevelRequest on_frame_start(const governors::Observation& obs) override {
        last_observation = obs;
        return governors::LevelRequest::set(5, 3);
    }
    void on_frame_end(const governors::FrameOutcome& outcome) override {
        outcomes.push_back(outcome);
    }

    std::vector<governors::FrameOutcome> outcomes;
    governors::Observation last_observation;
};

ServingConfig base_config(std::size_t streams, std::size_t requests, double rate_hz,
                          ArrivalKind kind = ArrivalKind::periodic,
                          double slo_s = 2.0) {
    ServingConfig cfg(platform::orin_nano_spec());
    for (std::size_t i = 0; i < streams; ++i) {
        StreamSpec s;
        s.name = "s";
        s.name += std::to_string(i); // "s" + ... trips GCC 12's -Wrestrict false positive
        s.dataset = "KITTI";
        s.slo_s = slo_s;
        s.requests = requests;
        s.arrival.kind = kind;
        s.arrival.rate_hz = rate_hz;
        s.arrival.phase_s = 0.3 * static_cast<double>(i);
        cfg.streams.push_back(std::move(s));
    }
    cfg.scheduler = "edf";
    cfg.seed = 5;
    return cfg;
}

TEST(ServingEngine, ValidatesConfig) {
    ServingConfig empty(platform::orin_nano_spec());
    EXPECT_THROW((void)ServingEngine(empty), std::invalid_argument);

    auto zero_requests = base_config(1, 1, 1.0);
    zero_requests.streams[0].requests = 0;
    EXPECT_THROW((void)ServingEngine(zero_requests), std::invalid_argument);

    auto bad_slo = base_config(1, 1, 1.0);
    bad_slo.streams[0].slo_s = 0.0;
    EXPECT_THROW((void)ServingEngine(bad_slo), std::invalid_argument);

    auto bad_dataset = base_config(1, 1, 1.0);
    bad_dataset.streams[0].dataset = "COCO";
    EXPECT_THROW((void)ServingEngine(bad_dataset), std::invalid_argument);

    auto bad_scheduler = base_config(1, 1, 1.0);
    bad_scheduler.scheduler = "lifo";
    EXPECT_THROW((void)ServingEngine(bad_scheduler), std::invalid_argument);
}

TEST(ServingEngine, RejectsInvalidArrivalSpecsAtConstruction) {
    auto zero_rate = base_config(2, 1, 1.0);
    zero_rate.streams[1].arrival.rate_hz = 0.0;
    EXPECT_THROW((void)ServingEngine(zero_rate), std::invalid_argument);

    auto zero_burst = base_config(2, 1, 1.0, ArrivalKind::bursty);
    zero_burst.streams[1].arrival.burst = 0;
    EXPECT_THROW((void)ServingEngine(zero_burst), std::invalid_argument);

    auto zero_floor = base_config(2, 1, 1.0, ArrivalKind::diurnal);
    zero_floor.streams[1].arrival.diurnal_floor = 0.0;
    EXPECT_THROW((void)ServingEngine(zero_floor), std::invalid_argument);
}

TEST(ServingEngine, BuildsMergedTimeline) {
    const ServingEngine engine(base_config(3, 4, 1.0));
    const auto requests = engine.build_requests();
    ASSERT_EQ(requests.size(), 12u);
    std::size_t per_stream[3] = {0, 0, 0};
    for (std::size_t i = 0; i < requests.size(); ++i) {
        EXPECT_EQ(requests[i].id, i);
        if (i > 0) {
            EXPECT_LE(requests[i - 1].arrival_s, requests[i].arrival_s);
        }
        ASSERT_LT(requests[i].stream, 3u);
        ++per_stream[requests[i].stream];
        EXPECT_DOUBLE_EQ(requests[i].slo_s, 2.0);
    }
    for (const auto n : per_stream) EXPECT_EQ(n, 4u);
}

TEST(ServingEngine, ConservesRequestsAndSummaries) {
    // Overloaded on purpose: 2 streams x 1 Hz against ~0.35 s service.
    auto cfg = base_config(2, 10, 1.0, ArrivalKind::periodic, /*slo=*/0.8);
    cfg.scheduler = "edf_admit";
    const ServingEngine engine(cfg);
    governors::FixedGovernor governor(5, 3);
    const auto trace = engine.run(governor);

    ASSERT_EQ(trace.size(), 20u);
    const auto agg = trace.aggregate();
    EXPECT_EQ(agg.requests, 20u);
    EXPECT_EQ(agg.served + agg.shed, 20u);
    EXPECT_EQ(agg.stream, "all");
    const auto s0 = trace.stream_summary(0);
    const auto s1 = trace.stream_summary(1);
    EXPECT_EQ(s0.requests + s1.requests, 20u);
    EXPECT_GT(trace.makespan_s(), 0.0);
    EXPECT_GT(trace.total_energy_j(), 0.0);
    EXPECT_GE(trace.max_queue_depth(), 1u);

    for (const auto& r : trace.records()) {
        if (r.shed) {
            EXPECT_TRUE(r.missed);
            EXPECT_EQ(r.service_s, 0.0);
        } else {
            EXPECT_NEAR(r.e2e_s, r.queue_wait_s + r.service_s, 1e-12);
            EXPECT_EQ(r.missed, r.e2e_s > r.slo_s);
        }
        EXPECT_GE(r.queue_wait_s, 0.0);
        EXPECT_GE(r.start_s, r.arrival_s - 1e-9);
    }
}

TEST(ServingEngine, LightLoadMeetsEveryDeadline) {
    // 2 streams x 0.2 Hz: the device is idle most of the time.
    const ServingEngine engine(base_config(2, 5, 0.2));
    governors::PerformanceGovernor governor;
    const auto trace = engine.run(governor);
    const auto agg = trace.aggregate();
    EXPECT_EQ(agg.served, 10u);
    EXPECT_EQ(agg.missed, 0u);
    EXPECT_EQ(agg.shed, 0u);
    EXPECT_LT(agg.mean_wait_ms, 50.0);
    EXPECT_GT(agg.p50_ms, 0.0);
    EXPECT_LE(agg.p50_ms, agg.p95_ms);
    EXPECT_LE(agg.p95_ms, agg.p99_ms);
}

TEST(ServingEngine, GovernorSeesEndToEndLatency) {
    // Saturated FIFO queue: later requests wait, and the governor's
    // FrameOutcome must include that wait (queue time burns the deadline).
    auto cfg = base_config(2, 8, 1.0, ArrivalKind::periodic, /*slo=*/0.7);
    cfg.scheduler = "fifo";
    const ServingEngine engine(cfg);
    OutcomeSpy spy;
    const auto trace = engine.run(spy);

    ASSERT_EQ(spy.outcomes.size(), trace.aggregate().served);
    double max_wait = 0.0;
    for (const auto& o : spy.outcomes) {
        EXPECT_NEAR(o.latency_s, o.queue_wait_s + (o.stage1_latency_s + o.stage2_latency_s),
                    0.05 * o.latency_s);
        max_wait = std::max(max_wait, o.queue_wait_s);
    }
    // The overload actually produced queueing, so the property is non-vacuous.
    EXPECT_GT(max_wait, 0.05);
}

TEST(ServingEngine, ThermalStateCarriesAcrossStreams) {
    auto cfg = base_config(4, 6, 0.8);
    const ServingEngine engine(cfg);
    governors::PerformanceGovernor governor;
    const auto trace = engine.run(governor);
    // Back-to-back max-frequency service heats the device well above the
    // 25 C ambient; the later records see the heat the earlier ones left.
    const auto& first = trace.records().front();
    const auto& last = trace.records().back();
    EXPECT_GT(0.5 * (last.cpu_temp + last.gpu_temp),
              0.5 * (first.cpu_temp + first.gpu_temp));
    EXPECT_GT(trace.aggregate().peak_device_temp_c, 30.0);
}

TEST(ServingEngine, AdmissionControlShedsUnderOverloadFifoDoesNot) {
    auto cfg = base_config(3, 10, 1.2, ArrivalKind::bursty, /*slo=*/0.6);
    cfg.scheduler = "fifo";
    governors::FixedGovernor fifo_governor(5, 3);
    const auto fifo_trace = ServingEngine(cfg).run(fifo_governor);
    EXPECT_EQ(fifo_trace.aggregate().shed, 0u);
    EXPECT_GT(fifo_trace.aggregate().missed, 0u);

    cfg.scheduler = "edf_admit";
    governors::FixedGovernor admit_governor(5, 3);
    const auto admit_trace = ServingEngine(cfg).run(admit_governor);
    EXPECT_GT(admit_trace.aggregate().shed, 0u);
    // Shedding must not lose requests: ledger still covers the full load.
    EXPECT_EQ(admit_trace.size(), 30u);
}

TEST(ServingEngine, RequestTelemetryNamesTheDevice) {
    // Overloaded enough to shed, with a few requests still served late.
    auto cfg = base_config(3, 10, 1.2, ArrivalKind::periodic, /*slo=*/0.8);
    cfg.scheduler = "edf_admit";
    telemetry::Recorder rec;
    {
        const telemetry::BindScope bind(&rec);
        governors::FixedGovernor governor(5, 3);
        (void)ServingEngine(cfg).run(governor);
    }
    const auto device = ",\"device\":" + telemetry::jstr(cfg.device_spec.name);
    const auto trace = rec.chrome_trace_json();
    EXPECT_NE(trace.find("\"outcome\":\"served\"" + device), std::string::npos);
    EXPECT_NE(trace.find("\"outcome\":\"missed\"" + device), std::string::npos);

    std::size_t sheds = 0;
    std::size_t misses = 0;
    std::istringstream breaches(rec.breaches_jsonl());
    for (std::string line; std::getline(breaches, line);) {
        sheds += line.find("\"reason\":\"shed\"") != std::string::npos;
        misses += line.find("\"reason\":\"slo_miss\"") != std::string::npos;
        const auto args = line.substr(0, line.find(",\"events\":"));
        EXPECT_NE(args.find(device), std::string::npos) << args;
    }
    EXPECT_GT(sheds, 0u);
    EXPECT_GT(misses, 0u);
}

TEST(SloBoundary, ExactlyOnSloIsSatisfied) {
    // One boundary rule across the repo: "<= limit is satisfied". The
    // serving ledger (missed = !util::meets_limit) and the experiment tables
    // (util::satisfaction_rate) must agree on the exact-boundary case.
    EXPECT_TRUE(util::meets_limit(2.0, 2.0));
    EXPECT_TRUE(util::meets_limit(1.999, 2.0));
    EXPECT_FALSE(util::meets_limit(std::nextafter(2.0, 3.0), 2.0));
    EXPECT_DOUBLE_EQ(util::satisfaction_rate({2.0}, 2.0), 1.0);
    EXPECT_DOUBLE_EQ(util::satisfaction_rate({std::nextafter(2.0, 3.0)}, 2.0), 0.0);
}

TEST(ServingEngine, ReportsThermalSteps) {
    const ServingEngine engine(base_config(1, 3, 0.5));
    governors::FixedGovernor governor(5, 3);
    const auto trace = engine.run(governor);
    EXPECT_GT(trace.thermal_steps(), 0u);
}

/// A station numbered `index` (at most 2) on a fresh Orin Nano, a telemetry
/// emitter for devices d0..d2 and the timeline of base_config(1, 3, 1.0).
struct StationRig {
    explicit StationRig(std::size_t index)
        : model(detector::make_detector(detector::DetectorKind::faster_rcnn)),
          station(platform::orin_nano_spec(), "edf", model, index),
          cfg(base_config(1, 3, 1.0)), requests(ServingEngine(cfg).build_requests()),
          tel(cfg.streams, {"d0", "d1", "d2"}) {}

    ServingRecord serve(std::size_t i, governors::Governor& governor) {
        return station.serve(requests[i], station.device.now(), governor, tel);
    }

    detector::DetectorModel model;
    Station station;
    ServingConfig cfg;
    std::vector<Request> requests;
    RequestTelemetry tel;
};

TEST(Station, FirstServiceSampleReplacesTheEstimateLaterOnesBlend) {
    StationRig rig(0);
    governors::FixedGovernor governor(5, 3);
    ASSERT_EQ(rig.station.expected_service_s, 0.0);
    const auto first = rig.serve(0, governor);
    EXPECT_GT(first.service_s, 0.0);
    EXPECT_EQ(rig.station.expected_service_s, first.service_s);
    const auto second = rig.serve(1, governor);
    EXPECT_NE(second.service_s, first.service_s);
    EXPECT_DOUBLE_EQ(rig.station.expected_service_s,
                     0.7 * first.service_s + 0.3 * second.service_s);
}

TEST(Station, ServedRowCarriesTheStationIndexAndCountsTheFrame) {
    StationRig rig(2);
    governors::FixedGovernor governor(5, 3);
    // Dispatched before its arrival instant: the wait clamps at 0.
    const auto early =
        rig.station.serve(rig.requests[1], rig.requests[1].arrival_s - 0.5, governor, rig.tel);
    EXPECT_EQ(early.queue_wait_s, 0.0);
    EXPECT_EQ(early.device, 2u);
    EXPECT_EQ(early.request_id, rig.requests[1].id);
    EXPECT_FALSE(early.shed);
    EXPECT_EQ(rig.station.frames, 1u);
    const auto row = rig.serve(2, governor);
    EXPECT_EQ(row.device, 2u);
    EXPECT_EQ(rig.station.frames, 2u);
    EXPECT_EQ(row.cpu_temp, rig.station.device.cpu_temp());
}

TEST(Station, ShedRowCarriesTheStationTemperaturesAndIndex) {
    telemetry::Recorder rec;
    const telemetry::BindScope bind(&rec);
    StationRig rig(1);
    governors::FixedGovernor governor(7, 5);
    (void)rig.serve(0, governor); // heat the device off its ambient
    const double now = rig.station.device.now();
    const auto row = rig.station.shed(rig.requests[1], now, rig.tel);
    EXPECT_TRUE(row.shed);
    EXPECT_TRUE(row.missed);
    EXPECT_EQ(row.device, 1u);
    EXPECT_EQ(row.start_s, now);
    EXPECT_GT(row.cpu_temp, 25.0);
    EXPECT_EQ(row.cpu_temp, rig.station.device.cpu_temp());
    EXPECT_EQ(row.gpu_temp, rig.station.device.gpu_temp());
    EXPECT_EQ(rig.station.frames, 1u); // a shed runs no frame
    EXPECT_NE(rec.breaches_jsonl().find("\"device\":\"d1\""), std::string::npos);
}

/// Adding `bad` must throw std::out_of_range and leave the trace's size,
/// rows and every summary as they were.
template <class Trace>
void expect_rejected(Trace& trace, const ServingRecord& bad, const std::string& label) {
    SCOPED_TRACE(label);
    const auto size = trace.size();
    const auto rows = trace.records().size();
    const auto before = trace.all_summaries();
    EXPECT_THROW(trace.add(bad), std::out_of_range);
    EXPECT_EQ(trace.size(), size);
    EXPECT_EQ(trace.records().size(), rows);
    const auto after = trace.all_summaries();
    ASSERT_EQ(after.size(), before.size());
    for (std::size_t i = 0; i < after.size(); ++i) expect_same_summary(after[i], before[i]);
}

/// A served row on stream 0, device 0.
ServingRecord valid_row() {
    ServingRecord r;
    r.e2e_s = 0.2;
    r.slo_s = 0.5;
    r.cpu_temp = 50.0;
    return r;
}

TEST(ServingTrace, RejectsUnknownStreamIndex) {
    ServingTrace trace(std::vector<std::string>{"a"});
    trace.add(valid_row());
    auto bad_stream = valid_row();
    bad_stream.stream = 1;
    expect_rejected(trace, bad_stream, "unknown stream");
    EXPECT_THROW((void)trace.stream_summary(1), std::out_of_range);
}

TEST(FleetTrace, RejectsUnknownDeviceAndStreamIndex) {
    fleet::FleetTrace trace({"d0"}, {"a"});
    trace.add(valid_row());
    auto bad_device = valid_row();
    bad_device.device = 1;
    expect_rejected(trace, bad_device, "unknown device");
    // The row's device is valid: its accumulator must not see the row either.
    auto bad_stream = valid_row();
    bad_stream.stream = 1;
    expect_rejected(trace, bad_stream, "unknown stream");
    EXPECT_THROW((void)trace.device_summary(1), std::out_of_range);
}

} // namespace
} // namespace lotus::serving
