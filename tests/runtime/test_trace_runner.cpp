// Tests for Trace summaries/CSV and the ExperimentRunner harness.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "governors/linux_governors.hpp"
#include "platform/presets.hpp"
#include "runtime/runner.hpp"
#include "workload/presets.hpp"

namespace lotus::runtime {
namespace {

TraceRow make_row(std::size_t i, double latency_ms, double constraint_ms = 450.0,
                  double cpu_temp = 60.0, double gpu_temp = 70.0) {
    TraceRow r;
    r.iteration = i;
    r.latency_s = latency_ms / 1e3;
    r.stage1_s = 0.8 * r.latency_s;
    r.stage2_s = 0.2 * r.latency_s;
    r.proposals = 100 + static_cast<int>(i);
    r.cpu_temp = cpu_temp;
    r.gpu_temp = gpu_temp;
    r.constraint_s = constraint_ms / 1e3;
    r.throttled = (i % 4 == 0);
    r.energy_j = 4.0;
    r.ambient_c = 25.0;
    r.dataset = "KITTI";
    return r;
}

TEST(Trace, SummaryBasics) {
    Trace t;
    t.add(make_row(0, 400));
    t.add(make_row(1, 500));
    t.add(make_row(2, 300));
    const auto s = t.summary();
    EXPECT_EQ(s.frames, 3u);
    EXPECT_NEAR(s.mean_latency_s, 0.4, 1e-12);
    EXPECT_NEAR(s.std_latency_s, 0.1, 1e-12);
    // 400 and 300 beat the 450 ms constraint; 500 does not.
    EXPECT_NEAR(s.satisfaction_rate, 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(s.mean_device_temp, 65.0, 1e-12);
    EXPECT_NEAR(s.mean_proposals, 101.0, 1e-12);
}

TEST(Trace, SummaryRange) {
    Trace t;
    for (std::size_t i = 0; i < 10; ++i) t.add(make_row(i, 300 + 10 * static_cast<double>(i)));
    const auto full = t.summary();
    const auto tail = t.summary(5, 10);
    EXPECT_EQ(tail.frames, 5u);
    EXPECT_GT(tail.mean_latency_s, full.mean_latency_s);
    EXPECT_THROW((void)t.summary(8, 8), std::invalid_argument);
}

TEST(Trace, PerRowConstraints) {
    // Satisfaction uses each row's own constraint (domain switches change L).
    Trace t;
    t.add(make_row(0, 400, 450)); // satisfied
    t.add(make_row(1, 400, 350)); // violated
    EXPECT_NEAR(t.summary().satisfaction_rate, 0.5, 1e-12);
}

TEST(Trace, ExactBoundaryCountsAsSatisfied) {
    // "<= is satisfied": Trace::summary calls util::meets_limit, the rule
    // util::satisfaction_rate and the serving ledger's misses share.
    Trace t;
    t.add(make_row(0, 450, 450)); // exactly on the constraint
    EXPECT_NEAR(t.summary().satisfaction_rate, 1.0, 1e-12);
}

TEST(Trace, ColumnExtraction) {
    Trace t;
    t.add(make_row(0, 400));
    t.add(make_row(1, 500));
    EXPECT_EQ(t.latencies_ms(), (std::vector<double>{400, 500}));
    EXPECT_EQ(t.device_temps(), (std::vector<double>{65, 65}));
    EXPECT_EQ(t.proposals(), (std::vector<double>{100, 101}));
    EXPECT_NEAR(t[0].stage2_s * 1e3, 80.0, 1e-9);
}

TEST(Trace, ThrottledFraction) {
    Trace t;
    for (std::size_t i = 0; i < 8; ++i) t.add(make_row(i, 400));
    EXPECT_NEAR(t.summary().throttled_fraction, 0.25, 1e-12);
}

TEST(Trace, MeanPowerFromEnergy) {
    Trace t;
    t.add(make_row(0, 400)); // 4 J over 0.4 s -> 10 W
    EXPECT_NEAR(t.summary().mean_power_w, 10.0, 1e-9);
}

TEST(Trace, CsvRoundTrip) {
    Trace t;
    t.add(make_row(0, 400));
    t.add(make_row(1, 500));
    const auto path =
        (std::filesystem::temp_directory_path() /
         ("lotus_trace_test_" + std::to_string(::getpid()) + ".csv"))
            .string();
    t.write_csv(path);
    std::ifstream in(path);
    std::string header;
    std::getline(in, header);
    EXPECT_NE(header.find("latency_ms"), std::string::npos);
    std::string row1;
    std::getline(in, row1);
    EXPECT_NE(row1.find("400"), std::string::npos);
    EXPECT_NE(row1.find("KITTI"), std::string::npos);
    int lines = 2;
    std::string rest;
    while (std::getline(in, rest)) ++lines;
    EXPECT_EQ(lines, 3); // header + 2 rows
    std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Runner.
// ---------------------------------------------------------------------------

ExperimentConfig small_config(std::size_t iterations = 30,
                              std::size_t pretrain = 0) {
    return static_experiment(platform::orin_nano_spec(),
                             detector::DetectorKind::faster_rcnn, "KITTI", iterations,
                             pretrain, /*seed=*/123);
}

TEST(Runner, ProducesRequestedIterations) {
    ExperimentRunner runner(small_config(25));
    governors::FixedGovernor gov(7, 5);
    const auto trace = runner.run(gov);
    ASSERT_EQ(trace.size(), 25u);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(trace[i].iteration, i);
        EXPECT_EQ(trace[i].dataset, "KITTI");
        EXPECT_GT(trace[i].latency_s, 0.0);
    }
}

TEST(Runner, DeterministicAcrossRuns) {
    ExperimentRunner runner(small_config(20));
    governors::FixedGovernor g1(7, 5);
    governors::FixedGovernor g2(7, 5);
    const auto t1 = runner.run(g1);
    const auto t2 = runner.run(g2);
    ASSERT_EQ(t1.size(), t2.size());
    for (std::size_t i = 0; i < t1.size(); ++i) {
        ASSERT_DOUBLE_EQ(t1[i].latency_s, t2[i].latency_s);
        ASSERT_EQ(t1[i].proposals, t2[i].proposals);
    }
}

TEST(Runner, SeedChangesWorkload) {
    auto cfg1 = small_config(20);
    auto cfg2 = small_config(20);
    cfg2.seed = 999;
    governors::FixedGovernor g1(7, 5);
    governors::FixedGovernor g2(7, 5);
    const auto t1 = ExperimentRunner(cfg1).run(g1);
    const auto t2 = ExperimentRunner(cfg2).run(g2);
    int same = 0;
    for (std::size_t i = 0; i < t1.size(); ++i) {
        if (t1[i].proposals == t2[i].proposals) ++same;
    }
    EXPECT_LT(same, 10);
}

TEST(Runner, PretrainResetsDeviceButKeepsStreamPosition) {
    // After pre-training, the measured phase starts from a cold device (the
    // first row's temperature must be near ambient).
    auto cfg = small_config(10, /*pretrain=*/20);
    ExperimentRunner runner(cfg);
    governors::FixedGovernor gov(7, 5);
    const auto trace = runner.run(gov);
    ASSERT_EQ(trace.size(), 10u);
    EXPECT_LT(trace[0].cpu_temp, 40.0) << "device was not reset after pretraining";
    EXPECT_DOUBLE_EQ(trace[0].start_time_s, 0.0);
}

TEST(Runner, DomainScheduleSwitchesDataset) {
    auto cfg = small_config(20);
    cfg.schedule = workload::DomainSchedule::segments({
        {0, "KITTI", 0.45},
        {10, "VisDrone2019", 0.56},
    });
    ExperimentRunner runner(cfg);
    governors::FixedGovernor gov(7, 5);
    const auto trace = runner.run(gov);
    EXPECT_EQ(trace[9].dataset, "KITTI");
    EXPECT_EQ(trace[10].dataset, "VisDrone2019");
    EXPECT_DOUBLE_EQ(trace[10].constraint_s, 0.56);
    // VisDrone frames are slower (bigger input).
    EXPECT_GT(trace[15].stage1_s, trace[5].stage1_s * 1.3);
}

TEST(Runner, AmbientProfileApplied) {
    auto cfg = small_config(20);
    cfg.ambient = workload::AmbientProfile::zones({{0, 25.0}, {10, 0.0}});
    ExperimentRunner runner(cfg);
    governors::FixedGovernor gov(7, 5);
    const auto trace = runner.run(gov);
    EXPECT_DOUBLE_EQ(trace[5].ambient_c, 25.0);
    EXPECT_DOUBLE_EQ(trace[15].ambient_c, 0.0);
}

TEST(Runner, StaticExperimentUsesPresetConstraint) {
    const auto cfg = small_config(5);
    const double expected = workload::latency_constraint_s(
        "jetson-orin-nano", detector::DetectorKind::faster_rcnn, "KITTI");
    EXPECT_DOUBLE_EQ(cfg.schedule.at(0).latency_constraint_s, expected);
}

TEST(Runner, ZeroIterationsRejected) {
    auto cfg = small_config(5);
    cfg.iterations = 0;
    EXPECT_THROW(ExperimentRunner{cfg}, std::invalid_argument);
}

} // namespace
} // namespace lotus::runtime
