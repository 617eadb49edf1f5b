// Integration tests: full stack (platform + detector + workload + governor +
// runtime) exercised end to end. These validate the causal structure behind
// the paper's results rather than exact numbers: throttling hurts the naive
// governor, the learning agents respect the thermal envelope, LOTUS's
// post-RPN decision reduces latency variation, and agents adapt across
// environment changes.

#include <gtest/gtest.h>

#include <cmath>

#include "governors/linux_governors.hpp"
#include "governors/ztt.hpp"
#include "lotus/agent.hpp"
#include "platform/presets.hpp"
#include "runtime/runner.hpp"
#include "workload/presets.hpp"

namespace lotus {
namespace {

using detector::DetectorKind;

runtime::ExperimentConfig orin_config(std::size_t iterations, std::size_t pretrain,
                                      const std::string& dataset = "KITTI") {
    return runtime::static_experiment(platform::orin_nano_spec(),
                                      DetectorKind::faster_rcnn, dataset, iterations,
                                      pretrain, /*seed=*/2024);
}

core::LotusConfig lotus_config() {
    core::LotusConfig cfg;
    cfg.reward.t_thres_celsius =
        platform::reward_threshold_celsius(platform::orin_nano_spec());
    cfg.seed = 31;
    return cfg;
}

TEST(EndToEnd, MaxFrequencyEventuallyThrottles) {
    // Pinning both domains at max must heat-soak the Orin into its trip
    // point -- the premise of the whole paper.
    runtime::ExperimentRunner runner(orin_config(1200, 0));
    governors::FixedGovernor gov(7, 5);
    const auto trace = runner.run(gov);
    const auto s = trace.summary();
    EXPECT_GT(s.throttled_fraction, 0.3);
    EXPECT_GT(s.max_device_temp, 75.0);
    // Once throttling starts, latency degrades vs the cold phase.
    const auto cold = trace.summary(0, 200);
    const auto hot = trace.summary(800, 1200);
    EXPECT_GT(hot.mean_latency_s, cold.mean_latency_s * 1.1);
    EXPECT_GT(hot.std_latency_s, cold.std_latency_s * 1.5);
}

TEST(EndToEnd, MidLadderNeverThrottles) {
    runtime::ExperimentRunner runner(orin_config(1200, 0));
    governors::FixedGovernor gov(5, 3); // DESIGN.md's sustainable point
    const auto trace = runner.run(gov);
    const auto s = trace.summary();
    EXPECT_LT(s.throttled_fraction, 0.01);
    EXPECT_LT(s.max_device_temp, platform::throttle_bound_celsius(
                                     platform::orin_nano_spec()));
}

TEST(EndToEnd, DefaultGovernorShowsThermalOscillation) {
    runtime::ExperimentRunner runner(orin_config(1500, 0));
    auto gov = governors::KernelGovernor::orin_nano();
    const auto trace = runner.run(gov);
    const auto hot = trace.summary(700, 1500);
    EXPECT_GT(hot.throttled_fraction, 0.4);
    // The trip/clamp limit cycle inflates variance in the hot phase.
    const auto cold = trace.summary(0, 300);
    EXPECT_GT(hot.std_latency_s, cold.std_latency_s * 1.5);
}

TEST(EndToEnd, LotusRespectsThermalEnvelope) {
    auto cfg = orin_config(1000, 2500);
    runtime::ExperimentRunner runner(cfg);
    core::LotusAgent agent(8, 6, lotus_config());
    const auto trace = runner.run(agent);
    const auto s = trace.summary();
    // A trained agent should essentially never trip the hardware throttler.
    EXPECT_LT(s.throttled_fraction, 0.10);
    EXPECT_LT(s.mean_device_temp, platform::throttle_bound_celsius(
                                      platform::orin_nano_spec()));
    // And still meet the constraint most of the time.
    EXPECT_GT(s.satisfaction_rate, 0.7);
}

TEST(EndToEnd, LotusBeatsDefaultOnVarianceAndSatisfaction) {
    // The headline claim (Table 1), tested at reduced scale: lower sigma_l
    // and higher R_L than the stock governors.
    auto cfg = orin_config(1200, 2500);
    runtime::ExperimentRunner runner(cfg);

    auto default_gov = governors::KernelGovernor::orin_nano();
    const auto trace_default = runner.run(default_gov);

    core::LotusAgent agent(8, 6, lotus_config());
    const auto trace_lotus = runner.run(agent);

    const auto sd = trace_default.summary();
    const auto sl = trace_lotus.summary();
    EXPECT_LT(sl.std_latency_s, sd.std_latency_s);
    EXPECT_GT(sl.satisfaction_rate, sd.satisfaction_rate);
    EXPECT_LE(sl.mean_latency_s, sd.mean_latency_s * 1.05);
}

TEST(EndToEnd, PostRpnDecisionReducesVariance) {
    // Ablation of the paper's core design claim (Sec. 4.2): the two-decision
    // agent achieves lower latency variance than the same agent restricted
    // to the frame-start decision, because only the former can compensate
    // the proposal count.
    auto cfg = orin_config(1200, 3000, "VisDrone2019");
    runtime::ExperimentRunner runner(cfg);

    core::LotusAgent both(8, 6, lotus_config());
    const auto trace_both = runner.run(both);

    auto fs_cfg = lotus_config();
    fs_cfg.decision_mode = core::DecisionMode::frame_start_only;
    core::LotusAgent frame_start_only(8, 6, fs_cfg);
    const auto trace_fs = runner.run(frame_start_only);

    EXPECT_LT(trace_both.summary().std_latency_s,
              trace_fs.summary().std_latency_s * 1.1);
}

TEST(EndToEnd, ZttLandsBetweenDefaultAndLotus) {
    auto cfg = orin_config(1200, 2500);
    runtime::ExperimentRunner runner(cfg);

    auto default_gov = governors::KernelGovernor::orin_nano();
    const auto sd = runner.run(default_gov).summary();

    governors::ZttConfig zc;
    zc.t_thres_celsius =
        platform::reward_threshold_celsius(platform::orin_nano_spec());
    governors::ZttGovernor ztt(8, 6, zc);
    const auto sz = runner.run(ztt).summary();

    core::LotusAgent agent(8, 6, lotus_config());
    const auto sl = runner.run(agent).summary();

    // Satisfaction-rate ordering of Tables 1-2: LOTUS >= zTT >= default.
    EXPECT_GE(sl.satisfaction_rate + 0.03, sz.satisfaction_rate);
    EXPECT_GE(sz.satisfaction_rate + 0.03, sd.satisfaction_rate);
    // Variance ordering: LOTUS lowest.
    EXPECT_LT(sl.std_latency_s, sd.std_latency_s);
}

TEST(EndToEnd, AmbientDropCoolsDevice) {
    // Fig. 7a mechanism: moving to the cold zone must lower device
    // temperature under an unchanged governor. The windows are placed a full
    // board time constant after each change so the comparison is between
    // near-equilibrated phases.
    auto cfg = orin_config(1400, 0);
    cfg.ambient = workload::AmbientProfile::zones({{0, 25.0}, {700, 0.0}});
    runtime::ExperimentRunner runner(cfg);
    governors::FixedGovernor gov(5, 3);
    const auto trace = runner.run(gov);
    const auto warm = trace.summary(600, 700);
    const auto cold = trace.summary(1250, 1400);
    EXPECT_LT(cold.mean_device_temp, warm.mean_device_temp - 10.0);
}

TEST(EndToEnd, DomainSwitchRaisesLatency) {
    // Fig. 7b mechanism: KITTI -> VisDrone switch increases work sharply.
    auto cfg = orin_config(600, 0);
    cfg.schedule = workload::DomainSchedule::segments({
        {0, "KITTI", 0.45},
        {300, "VisDrone2019", 0.56},
    });
    runtime::ExperimentRunner runner(cfg);
    governors::FixedGovernor gov(7, 5);
    const auto trace = runner.run(gov);
    const auto kitti = trace.summary(100, 300);
    const auto visdrone = trace.summary(300, 500);
    EXPECT_GT(visdrone.mean_latency_s, kitti.mean_latency_s * 1.25);
}

TEST(EndToEnd, Mi11RunsSlowerAndCooler) {
    // Table 2 vs Table 1: the phone is ~3-4x slower; Fig. 6 vs Fig. 4: it
    // operates in a much lower temperature band.
    auto orin_cfg = orin_config(150, 0);
    runtime::ExperimentRunner orin_runner(orin_cfg);
    governors::FixedGovernor orin_gov(7, 5);
    const auto orin_s = orin_runner.run(orin_gov).summary();

    auto mi11_cfg = runtime::static_experiment(platform::mi11_lite_spec(),
                                               DetectorKind::faster_rcnn, "KITTI",
                                               150, 0, 2024);
    runtime::ExperimentRunner mi11_runner(mi11_cfg);
    governors::FixedGovernor mi11_gov(7, 7);
    const auto mi11_s = mi11_runner.run(mi11_gov).summary();

    EXPECT_GT(mi11_s.mean_latency_s / orin_s.mean_latency_s, 2.5);
    EXPECT_LT(mi11_s.mean_latency_s / orin_s.mean_latency_s, 6.0);
    EXPECT_LT(mi11_s.max_device_temp, 50.0);
}

TEST(EndToEnd, MaskRcnnSlowerThanFasterRcnn) {
    auto cfg = orin_config(150, 0);
    runtime::ExperimentRunner fr_runner(cfg);
    governors::FixedGovernor g1(7, 5);
    const auto fr = fr_runner.run(g1).summary();

    auto mr_cfg = runtime::static_experiment(platform::orin_nano_spec(),
                                             DetectorKind::mask_rcnn, "KITTI", 150, 0,
                                             2024);
    runtime::ExperimentRunner mr_runner(mr_cfg);
    governors::FixedGovernor g2(7, 5);
    const auto mr = mr_runner.run(g2).summary();
    EXPECT_GT(mr.mean_latency_s, fr.mean_latency_s * 1.1);
}

TEST(EndToEnd, YoloHasNegligibleVariance) {
    // Fig. 1: one-stage detectors show tiny latency variation at fixed
    // frequency compared to two-stage models.
    auto yolo_cfg = runtime::static_experiment(platform::orin_nano_spec(),
                                               DetectorKind::yolo_v5, "KITTI", 200, 0,
                                               2024);
    runtime::ExperimentRunner yolo_runner(yolo_cfg);
    governors::FixedGovernor g1(5, 3);
    const auto yolo = yolo_runner.run(g1).summary();

    auto fr_cfg = orin_config(200, 0);
    runtime::ExperimentRunner fr_runner(fr_cfg);
    governors::FixedGovernor g2(5, 3);
    const auto fr = fr_runner.run(g2).summary();

    const double yolo_cv = yolo.std_latency_s / yolo.mean_latency_s;
    const double fr_cv = fr.std_latency_s / fr.mean_latency_s;
    // At fixed frequency the two-stage model's proposal-driven variance must
    // clearly exceed the common OS/scene noise floor that both models share.
    // (Fig. 1's much larger contrast additionally includes thermal cycling;
    // bench_fig1_motivation reproduces that setting.)
    EXPECT_LT(yolo_cv * 1.4, fr_cv);
}

} // namespace
} // namespace lotus
