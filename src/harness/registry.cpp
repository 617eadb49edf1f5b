#include "harness/registry.hpp"

#include <cstdlib>
#include <stdexcept>

#include "fleet/engine.hpp"
#include "platform/presets.hpp"
#include "util/csv.hpp"
#include "workload/presets.hpp"

namespace lotus::harness {

namespace {

using detector::DetectorKind;

bool env_flag(const char* name) {
    const char* v = std::getenv(name);
    return v != nullptr && v[0] != '\0' && v[0] != '0';
}

std::vector<ArmSpec> standard_arms(const platform::DeviceSpec& spec) {
    std::vector<ArmSpec> arms;
    arms.push_back(default_arm());
    arms.push_back(ztt_arm());
    arms.push_back(lotus_arm(spec));
    return arms;
}

/// Drone mission ambient: ground (25 C) -> climb (linear to -5 C) -> loiter
/// (-5 C) -> descend (back to 25 C) -> landed (25 C), phased as fractions of
/// the mission so fast mode shrinks cleanly.
workload::AmbientProfile mission_profile(std::size_t frames) {
    return workload::AmbientProfile::piecewise(
        frames,
        {{.start = 0.0, .from_c = 25.0, .to_c = 25.0},                              // pre-flight
         {.start = 1.0 / 6.0, .from_c = 25.0, .to_c = -5.0, .span = 2.0 / 9.0},     // climb
         {.start = 7.0 / 18.0, .from_c = -5.0, .to_c = -5.0},                       // loiter
         {.start = 13.0 / 18.0, .from_c = -5.0, .to_c = 25.0, .span = 2.0 / 9.0},   // descend
         {.start = 17.0 / 18.0, .from_c = 25.0, .to_c = 25.0}},                     // landed
        "drone mission: ground/climb/loiter/descend");
}

/// Requests per stream for the FLEET scenarios. Deliberately shorter than
/// the single-device serving budget: the fleet scenarios study the
/// transient regime where an airflow gradient leaves real headroom
/// differences across the pool. Minutes of sustained overload drive every
/// die to its trip point regardless of placement -- at that equilibrium no
/// router can win anything, shedding policy is all that is left.
std::size_t fleet_requests() { return fast_mode() ? 25 : 60; }

serving::StreamSpec cam_stream(std::string name, std::string dataset, double slo_s,
                               std::size_t requests, serving::ArrivalSpec arrival) {
    serving::StreamSpec s;
    s.name = std::move(name);
    s.dataset = std::move(dataset);
    s.slo_s = slo_s;
    s.requests = requests;
    s.arrival = arrival;
    return s;
}

/// A registry serving (or fleet) scenario: load_scenario's shell on the
/// Faster R-CNN / KITTI pair with the registry's warm-up budget.
Scenario serving_scenario(const platform::DeviceSpec& spec, std::string name,
                          std::string title, std::string description,
                          std::string scheduler, bool fleet = false) {
    auto s = load_scenario(spec, std::move(name), std::move(title),
                           {.scheduler = std::move(scheduler),
                            .pretrain_iterations = pretrain_iterations(),
                            .fleet = fleet});
    s.description = std::move(description);
    return s;
}

/// Heatwave ambient: 25 C baseline, ramp to a mid-run peak, ramp back --
/// a summer-afternoon profile no paper figure covers.
workload::AmbientProfile heatwave_profile(std::size_t frames, double peak_c) {
    return workload::AmbientProfile::piecewise(
        frames,
        {{.start = 0.0, .from_c = 25.0, .to_c = 25.0},
         {.start = 0.25, .from_c = 25.0, .to_c = peak_c, .span = 0.25},
         {.start = 0.5, .from_c = peak_c, .to_c = peak_c},
         {.start = 0.75, .from_c = peak_c, .to_c = 25.0, .span = 0.25}},
        "heatwave: 25C -> " + util::format_double(peak_c, 0) + "C -> 25C");
}

} // namespace

bool fast_mode() { return env_flag("LOTUS_BENCH_FAST"); }

std::size_t orin_iterations() { return fast_mode() ? 600 : 3000; }
std::size_t mi11_iterations() { return fast_mode() ? 300 : 1000; }
std::size_t pretrain_iterations() { return fast_mode() ? 500 : 2500; }
std::size_t mi11_pretrain_iterations() { return fast_mode() ? 500 : 6000; }
std::size_t serve_requests() { return fast_mode() ? 25 : 150; }

ScenarioRegistry::ScenarioRegistry() {
    const auto orin = platform::orin_nano_spec();
    const auto mi11 = platform::mi11_lite_spec();
    const auto orin_iters = orin_iterations();
    const auto mi11_iters = mi11_iterations();
    const auto orin_pre = pretrain_iterations();
    const auto mi11_pre = mi11_pretrain_iterations();

    // --- Fig. 1: latency mean/variation per detector and dataset ------------
    for (const char* dataset : {"KITTI", "VisDrone2019"}) {
        const std::string suffix = (dataset == std::string("KITTI")) ? "kitti" : "visdrone";
        Scenario s(runtime::static_experiment(orin, DetectorKind::faster_rcnn, dataset,
                                              orin_iters, 0));
        s.name = "fig1_" + suffix;
        s.title = "Fig. 1 (" + std::string(dataset) + ")";
        s.description = "Latency mean/variation of FasterRCNN, MaskRCNN and YOLOv5 on " +
                        std::string(dataset) + " under the Orin Nano's stock governors.";
        s.tags = {"paper", "figure"};
        for (const auto kind : {DetectorKind::faster_rcnn, DetectorKind::mask_rcnn,
                                DetectorKind::yolo_v5}) {
            auto arm = governor_arm(StockGovernors{}, detector::to_string(kind));
            arm.overrides.detector = kind;
            arm.overrides.schedule = workload::DomainSchedule::constant(
                dataset, workload::latency_constraint_s(orin.name, kind, dataset));
            s.arms.push_back(std::move(arm));
        }
        scenarios_.push_back(std::move(s));
    }

    // --- Fig. 2: stage-2 latency vs proposal count ---------------------------
    {
        const struct {
            const char* name;
            DetectorKind kind;
            int max;
            int step;
        } sweeps[] = {
            {"fig2_frcnn_sweep", DetectorKind::faster_rcnn, 600, 60},
            {"fig2_mrcnn_sweep", DetectorKind::mask_rcnn, 300, 30},
        };
        for (const auto& sweep : sweeps) {
            Scenario s(runtime::static_experiment(orin, sweep.kind, "KITTI", 1, 0));
            s.name = sweep.name;
            s.title = std::string("Fig. 2 (") + detector::to_string(sweep.kind) + ")";
            s.description = "Second-stage latency as a function of the RPN proposal "
                            "count at a pinned CPU/GPU frequency (one cold-start frame "
                            "per probe point).";
            s.tags = {"paper", "figure", "probe"};
            s.config.schedule = workload::DomainSchedule::constant("KITTI", 10.0);
            for (int p = 0; p <= sweep.max; p += sweep.step) {
                auto arm = governor_arm(Fixed{5, 3}, "p=" + std::to_string(p));
                arm.overrides.pinned_proposals = p;
                s.arms.push_back(std::move(arm));
            }
            scenarios_.push_back(std::move(s));
        }
    }

    // --- Figs. 4-6: governor-comparison traces -------------------------------
    const struct {
        const char* name;
        const char* fig;
        const platform::DeviceSpec* spec;
        DetectorKind kind;
        const char* dataset;
        std::size_t iters;
        std::size_t pre;
    } traces[] = {
        {"fig4_visdrone", "Fig. 4", &orin, DetectorKind::faster_rcnn, "VisDrone2019",
         orin_iters, orin_pre},
        {"fig4_kitti", "Fig. 4", &orin, DetectorKind::faster_rcnn, "KITTI", orin_iters,
         orin_pre},
        {"fig5_visdrone", "Fig. 5", &orin, DetectorKind::mask_rcnn, "VisDrone2019",
         orin_iters, orin_pre},
        {"fig5_kitti", "Fig. 5", &orin, DetectorKind::mask_rcnn, "KITTI", orin_iters,
         orin_pre},
        {"fig6_visdrone", "Fig. 6", &mi11, DetectorKind::faster_rcnn, "VisDrone2019",
         mi11_iters, mi11_pre},
        {"fig6_kitti", "Fig. 6", &mi11, DetectorKind::faster_rcnn, "KITTI", mi11_iters,
         mi11_pre},
    };
    for (const auto& t : traces) {
        Scenario s(runtime::static_experiment(*t.spec, t.kind, t.dataset, t.iters, t.pre));
        s.name = t.name;
        s.title = std::string(t.fig) + " (" + t.dataset + ")";
        s.description = std::string(t.spec->name) + " + " + detector::to_string(t.kind) +
                        " on " + t.dataset + ": default vs zTT vs Lotus traces.";
        s.tags = {"paper", "figure"};
        s.arms = standard_arms(*t.spec);
        scenarios_.push_back(std::move(s));
    }

    // --- Fig. 7a: ambient warm/cold/warm zones -------------------------------
    {
        Scenario s(runtime::static_experiment(orin, DetectorKind::mask_rcnn,
                                              "VisDrone2019", orin_iters, orin_pre));
        s.name = "fig7a_temp_changes";
        s.title = "Fig. 7a (temperature changes)";
        s.description = "MaskRCNN + VisDrone2019 on the Orin Nano while the ambient "
                        "moves warm (25C) -> cold (0C) -> warm (25C).";
        s.tags = {"paper", "figure", "dynamic"};
        const auto third = orin_iters / 3;
        s.config.ambient =
            workload::AmbientProfile::zones({{0, 25.0}, {third, 0.0}, {2 * third, 25.0}});
        s.arms = standard_arms(orin);
        scenarios_.push_back(std::move(s));
    }

    // --- Fig. 7b: mid-run domain switch --------------------------------------
    {
        const auto half = orin_iters / 2;
        const double l_kitti = workload::latency_constraint_s(
            orin.name, DetectorKind::faster_rcnn, "KITTI");
        const double l_visdrone = workload::latency_constraint_s(
            orin.name, DetectorKind::faster_rcnn, "VisDrone2019");
        Scenario s(runtime::ExperimentConfig{
            .device_spec = orin,
            .detector = DetectorKind::faster_rcnn,
            .schedule = workload::DomainSchedule::segments(
                {{0, "KITTI", l_kitti}, {half, "VisDrone2019", l_visdrone}}),
            .ambient = workload::AmbientProfile::constant(25.0),
            .iterations = orin_iters,
            .pretrain_iterations = orin_pre,
            .seed = 42,
            .pinned_proposals = std::nullopt,
        });
        s.name = "fig7b_domain_changes";
        s.title = "Fig. 7b (domain changes)";
        s.description = "FasterRCNN on the Orin Nano; the dataset (and latency "
                        "constraint) switches KITTI -> VisDrone2019 mid-run.";
        s.tags = {"paper", "figure", "dynamic"};
        s.arms = standard_arms(orin);
        scenarios_.push_back(std::move(s));
    }

    // --- Tables 1-2: quantitative cells with the paper's reference values ----
    const struct {
        const char* name;
        const char* table;
        const platform::DeviceSpec* spec;
        DetectorKind kind;
        const char* dataset;
        std::size_t iters;
        std::size_t pre;
        PaperRow paper_default;
        PaperRow paper_ztt;
        PaperRow paper_lotus;
    } cells[] = {
        {"table1_frcnn_kitti", "Table 1", &orin, DetectorKind::faster_rcnn, "KITTI",
         orin_iters, orin_pre, {434.6, 139.8, 0.514}, {363.7, 85.6, 0.555},
         {343.2, 68.6, 0.665}},
        {"table1_frcnn_visdrone", "Table 1", &orin, DetectorKind::faster_rcnn,
         "VisDrone2019", orin_iters, orin_pre, {686.0, 241.1, 0.294},
         {577.6, 167.5, 0.463}, {523.5, 102.9, 0.711}},
        {"table1_mrcnn_kitti", "Table 1", &orin, DetectorKind::mask_rcnn, "KITTI",
         orin_iters, orin_pre, {443.9, 148.0, 0.598}, {408.3, 111.7, 0.871},
         {388.5, 88.9, 0.952}},
        {"table1_mrcnn_visdrone", "Table 1", &orin, DetectorKind::mask_rcnn,
         "VisDrone2019", orin_iters, orin_pre, {768.4, 260.4, 0.390},
         {584.3, 114.2, 0.501}, {531.4, 70.7, 0.749}},
        {"table2_frcnn_kitti", "Table 2", &mi11, DetectorKind::faster_rcnn, "KITTI",
         mi11_iters, mi11_pre, {1377.5, 525.1, 0.709}, {1260.9, 448.2, 0.833},
         {1185.8, 429.9, 0.897}},
        {"table2_frcnn_visdrone", "Table 2", &mi11, DetectorKind::faster_rcnn,
         "VisDrone2019", mi11_iters, mi11_pre, {2728.0, 761.5, 0.633},
         {2509.7, 649.3, 0.797}, {2421.0, 558.7, 0.925}},
        {"table2_mrcnn_kitti", "Table 2", &mi11, DetectorKind::mask_rcnn, "KITTI",
         mi11_iters, mi11_pre, {1652.1, 781.8, 0.613}, {1582.7, 610.5, 0.798},
         {1429.5, 552.3, 0.915}},
        {"table2_mrcnn_visdrone", "Table 2", &mi11, DetectorKind::mask_rcnn,
         "VisDrone2019", mi11_iters, mi11_pre, {3241.9, 725.5, 0.401},
         {2972.5, 621.7, 0.594}, {2649.5, 591.2, 0.838}},
    };
    for (const auto& c : cells) {
        Scenario s(runtime::static_experiment(*c.spec, c.kind, c.dataset, c.iters, c.pre));
        s.name = c.name;
        s.title = std::string(c.table) + ": " + detector::to_string(c.kind) + " / " +
                  c.dataset;
        s.description = std::string("Quantitative cell on the ") + c.spec->name +
                        " printed next to the paper's reported values.";
        s.tags = {"paper", "table"};
        s.arms = standard_arms(*c.spec);
        s.arms[0].paper = c.paper_default;
        s.arms[1].paper = c.paper_ztt;
        s.arms[2].paper = c.paper_lotus;
        scenarios_.push_back(std::move(s));
    }

    // --- Design ablation ------------------------------------------------------
    {
        Scenario s(runtime::static_experiment(orin, DetectorKind::faster_rcnn,
                                              "VisDrone2019", orin_iters, orin_pre));
        s.name = "ablation_design";
        s.title = "Ablation: LOTUS design choices";
        s.description = "Each design choice of Secs. 4.2-4.3.5 removed in isolation on "
                        "the hardest static cell (Orin + FasterRCNN + VisDrone2019).";
        s.tags = {"paper", "ablation"};
        // Each arm edits a fresh copy of the full config: one change apiece.
        const auto full = lotus_config(orin);
        s.arms.push_back(governor_arm(Lotus{full}, "Lotus(full)"));
        auto c = full;
        c.decision_mode = core::DecisionMode::frame_start_only;
        s.arms.push_back(governor_arm(Lotus{c}, "frame-start-only"));
        c = full;
        c.decision_mode = core::DecisionMode::post_rpn_only;
        s.arms.push_back(governor_arm(Lotus{c}, "post-rpn-only"));
        c = full;
        c.use_two_networks = true;
        s.arms.push_back(governor_arm(Lotus{c}, "two-networks"));
        c = full;
        c.ztt_style_cooldown = true;
        s.arms.push_back(governor_arm(Lotus{c}, "ztt-cooldown"));
        c = full;
        c.double_dqn = true;
        s.arms.push_back(governor_arm(Lotus{c}, "double-dqn"));
        scenarios_.push_back(std::move(s));
    }

    // --- Example missions -----------------------------------------------------
    {
        Scenario s(runtime::static_experiment(orin, DetectorKind::faster_rcnn, "KITTI",
                                              fast_mode() ? 600 : 2000,
                                              fast_mode() ? 500 : 1500));
        s.name = "example_quickstart";
        s.title = "Quickstart: Orin Nano + FasterRCNN + KITTI";
        s.description = "The three headline metrics (mean latency, std, satisfaction "
                        "rate) for default vs zTT vs Lotus on the canonical cell.";
        s.tags = {"example"};
        s.arms = standard_arms(orin);
        scenarios_.push_back(std::move(s));
    }
    {
        Scenario s(runtime::static_experiment(orin, DetectorKind::faster_rcnn, "KITTI",
                                              fast_mode() ? 600 : 2500, orin_pre));
        s.name = "example_autonomous_driving";
        s.title = "Autonomous driving: KITTI perception with a hard deadline";
        s.description = "A long heat-soaked drive; the application cares about tail "
                        "latency (p95/p99, miss streaks), not just the mean.";
        s.tags = {"example"};
        s.arms = standard_arms(orin);
        scenarios_.push_back(std::move(s));
    }
    {
        const std::size_t frames = fast_mode() ? 600 : 1800;
        Scenario s(runtime::static_experiment(orin, DetectorKind::mask_rcnn,
                                              "VisDrone2019", frames,
                                              fast_mode() ? 500 : 2000));
        s.name = "example_drone_mission";
        s.title = "Drone surveillance: MaskRCNN patrol mission";
        s.description = "Ground training, then a climb/loiter/descend mission whose "
                        "altitude drives the ambient temperature.";
        s.tags = {"example", "dynamic"};
        s.config.ambient = mission_profile(frames);
        s.arms.push_back(default_arm());
        s.arms.push_back(lotus_arm(orin));
        scenarios_.push_back(std::move(s));
    }

    // --- Stress scenarios (beyond the paper) ----------------------------------
    {
        Scenario s(runtime::static_experiment(orin, DetectorKind::faster_rcnn,
                                              "VisDrone2019", orin_iters, 0));
        s.name = "stress_cold_start";
        s.title = "Stress: cold-start learning";
        s.description = "No pre-training budget at all: the learning governors must "
                        "converge online while frames are being scored.";
        s.tags = {"stress"};
        s.arms = standard_arms(orin);
        scenarios_.push_back(std::move(s));
    }
    {
        Scenario s(runtime::static_experiment(orin, DetectorKind::mask_rcnn,
                                              "VisDrone2019", orin_iters, orin_pre));
        s.name = "stress_heatwave";
        s.title = "Stress: heatwave ambient ramp";
        s.description = "MaskRCNN + VisDrone2019 on the Orin Nano while the ambient "
                        "ramps 25C -> 45C -> 25C; the thermal headroom collapses to "
                        "almost nothing at the peak.";
        s.tags = {"stress", "dynamic"};
        s.config.ambient = heatwave_profile(orin_iters, 45.0);
        s.arms = standard_arms(orin);
        scenarios_.push_back(std::move(s));
    }
    {
        Scenario s(runtime::static_experiment(mi11, DetectorKind::faster_rcnn, "KITTI",
                                              mi11_iters, mi11_pre));
        s.name = "stress_mi11_heatwave";
        s.title = "Stress: phone in the sun";
        s.description = "The skin-limited Mi 11 Lite under a 25C/40C/25C ambient zone "
                        "profile -- the phone analogue of Fig. 7a.";
        s.tags = {"stress", "dynamic"};
        const auto third = mi11_iters / 3;
        s.config.ambient =
            workload::AmbientProfile::zones({{0, 25.0}, {third, 40.0}, {2 * third, 25.0}});
        s.arms = standard_arms(mi11);
        scenarios_.push_back(std::move(s));
    }
    {
        Scenario s(runtime::static_experiment(orin, DetectorKind::faster_rcnn, "KITTI",
                                              orin_iters, orin_pre));
        s.name = "stress_domain_storm";
        s.title = "Stress: domain-shift storm";
        s.description = "The dataset (and constraint) flips between KITTI and "
                        "VisDrone2019 every eighth of the run -- far more often than "
                        "Fig. 7b's single switch.";
        s.tags = {"stress", "dynamic"};
        const double l_kitti = workload::latency_constraint_s(
            orin.name, DetectorKind::faster_rcnn, "KITTI");
        const double l_visdrone = workload::latency_constraint_s(
            orin.name, DetectorKind::faster_rcnn, "VisDrone2019");
        std::vector<workload::DomainSegment> segs;
        const auto eighth = orin_iters / 8;
        for (std::size_t k = 0; k < 8; ++k) {
            const bool kitti = k % 2 == 0;
            segs.push_back({k * eighth, kitti ? "KITTI" : "VisDrone2019",
                            kitti ? l_kitti : l_visdrone});
        }
        s.config.schedule = workload::DomainSchedule::segments(std::move(segs));
        s.arms = standard_arms(orin);
        scenarios_.push_back(std::move(s));
    }
    {
        Scenario s(runtime::static_experiment(orin, DetectorKind::faster_rcnn,
                                              "VisDrone2019", orin_iters, orin_pre));
        s.name = "stress_constraint_sweep";
        s.title = "Stress: latency-constraint sweep";
        s.description = "LOTUS on the hardest static cell under constraints from 0.8x "
                        "to 1.2x the calibrated L -- how gracefully does satisfaction "
                        "degrade as the deadline tightens?";
        s.tags = {"stress", "sweep"};
        const double l = workload::latency_constraint_s(orin.name, DetectorKind::faster_rcnn,
                                                        "VisDrone2019");
        for (const double scale : {0.8, 0.9, 1.0, 1.1, 1.2}) {
            auto arm = governor_arm(Lotus{lotus_config(orin)},
                                    "Lotus@" + util::format_double(scale, 2) + "L");
            arm.overrides.schedule =
                workload::DomainSchedule::constant("VisDrone2019", l * scale);
            s.arms.push_back(std::move(arm));
        }
        scenarios_.push_back(std::move(s));
    }

    // --- Serving scenarios (multi-stream runtime) -----------------------------
    // N camera/client streams multiplexed onto one device through the
    // serving::ServingEngine. The Orin + FasterRCNN cell sustains roughly
    // 2.2-2.9 requests/s depending on the governor, which calibrates the
    // load points below: "light" sits well under capacity, "saturation"
    // ~30% above it, and the rest shape *when* the load lands rather than
    // how much of it there is.
    {
        const double slo = 0.9; // 2x the single-frame constraint: queueing headroom
        const std::size_t n = serve_requests();

        {
            Scenario s = serving_scenario(
                orin, "serve_light", "Serving: light load",
                "4 periodic KITTI streams at 1.2 req/s total -- far under device "
                "capacity; every policy should be near-perfect here (regression "
                "anchor for the serving stack).",
                "fifo");
            for (int i = 0; i < 4; ++i) {
                s.serving->streams.push_back(cam_stream(
                    "cam" + std::to_string(i), "KITTI", slo, n,
                    {.kind = serving::ArrivalKind::periodic, .rate_hz = 0.3,
                     .phase_s = 0.8 * i}));
            }
            s.arms.push_back(default_arm());
            s.arms.push_back(lotus_arm(orin));
            scenarios_.push_back(std::move(s));
        }
        {
            Scenario s = serving_scenario(
                orin, "serve_saturation", "Serving: saturation",
                "8 Poisson KITTI streams at ~3.4 req/s total, ~30% above device "
                "capacity: the queue never drains, so admission control and "
                "thermal headroom decide the deadline-miss rate. The headline "
                "LOTUS-vs-Linux-governors serving comparison.",
                "edf_admit");
            for (int i = 0; i < 8; ++i) {
                s.serving->streams.push_back(cam_stream(
                    "cam" + std::to_string(i), "KITTI", slo, n,
                    {.kind = serving::ArrivalKind::poisson, .rate_hz = 0.42,
                     .phase_s = 0.25 * i}));
            }
            s.arms.push_back(default_arm());
            s.arms.push_back(performance_arm());
            s.arms.push_back(ztt_arm());
            s.arms.push_back(lotus_arm(orin));
            scenarios_.push_back(std::move(s));
        }
        {
            Scenario s = serving_scenario(
                orin, "serve_burst_storm", "Serving: burst storm",
                "8 motion-triggered KITTI streams firing 6-request volleys; the "
                "mean rate is sustainable but volleys overlap, so the queue "
                "oscillates between empty and deep.",
                "edf_admit");
            for (int i = 0; i < 8; ++i) {
                s.serving->streams.push_back(cam_stream(
                    "cam" + std::to_string(i), "KITTI", slo, n,
                    {.kind = serving::ArrivalKind::bursty, .rate_hz = 0.33,
                     .phase_s = 2.1 * i, .burst = 6}));
            }
            s.arms.push_back(default_arm());
            s.arms.push_back(lotus_arm(orin));
            scenarios_.push_back(std::move(s));
        }
        {
            Scenario s = serving_scenario(
                orin, "serve_mixed_slo", "Serving: mixed tenants, tight and bulk SLOs",
                "3 tight-SLO KITTI streams (600 ms) share the device with 3 "
                "bulk VisDrone2019 streams (2.5 s): EDF must interleave heavy "
                "low-urgency frames with light urgent ones.",
                "edf");
            for (int i = 0; i < 3; ++i) {
                s.serving->streams.push_back(cam_stream(
                    "tight" + std::to_string(i), "KITTI", 0.6, n,
                    {.kind = serving::ArrivalKind::poisson, .rate_hz = 0.3,
                     .phase_s = 0.5 * i}));
                s.serving->streams.push_back(cam_stream(
                    "bulk" + std::to_string(i), "VisDrone2019", 2.5, n,
                    {.kind = serving::ArrivalKind::poisson, .rate_hz = 0.18,
                     .phase_s = 1.0 + 0.5 * i}));
            }
            s.arms.push_back(default_arm());
            s.arms.push_back(lotus_arm(orin));
            scenarios_.push_back(std::move(s));
        }
        {
            Scenario s = serving_scenario(
                orin, "serve_diurnal", "Serving: diurnal ramp",
                "6 KITTI streams under a non-homogeneous Poisson day/night "
                "profile: the trough idles (and cools) the device, the peak "
                "pushes past capacity -- sustained-load adaptation in one run.",
                "edf_admit");
            for (int i = 0; i < 6; ++i) {
                s.serving->streams.push_back(cam_stream(
                    "cam" + std::to_string(i), "KITTI", slo, n,
                    {.kind = serving::ArrivalKind::diurnal, .rate_hz = 0.4,
                     .phase_s = 0.7 * i}));
            }
            s.arms.push_back(default_arm());
            s.arms.push_back(lotus_arm(orin));
            scenarios_.push_back(std::move(s));
        }
        {
            Scenario s = serving_scenario(
                orin, "serve_latency_attack", "Serving: latency attack",
                "2 well-behaved periodic streams suffer 2 adversarial streams "
                "that stay quiet long enough for the device to cool, then dump "
                "dense 10-request volleys with a 300 ms SLO -- the bursty "
                "worst case of \"Can't Slow me Down\". Admission control must "
                "shed the hopeless volley tail instead of sacrificing the "
                "victims.",
                "edf_admit");
            for (int i = 0; i < 2; ++i) {
                s.serving->streams.push_back(cam_stream(
                    "victim" + std::to_string(i), "KITTI", slo, n,
                    {.kind = serving::ArrivalKind::periodic, .rate_hz = 0.3,
                     .phase_s = 1.6 * i}));
                s.serving->streams.push_back(cam_stream(
                    "attack" + std::to_string(i), "KITTI", 0.3, n,
                    {.kind = serving::ArrivalKind::attack, .rate_hz = 0.5,
                     .phase_s = 3.0 * i, .burst = 10}));
            }
            s.arms.push_back(default_arm());
            s.arms.push_back(lotus_arm(orin));
            scenarios_.push_back(std::move(s));
        }
    }

    // --- Fleet scenarios (request routing across a device pool) ---------------
    // The dispatcher multiplexes the merged stream timeline across N devices
    // (per-device governors, queues and thermal state). One Orin sustains
    // ~2.2-2.9 req/s on the FasterRCNN+KITTI cell, which calibrates the load
    // points: "saturation" offers ~30% more than a 4-Orin pool sustains,
    // "hetero" sizes to a mixed Orin/phone pool where *placement* decides
    // tail latency, and the rest shape when and where the load lands.
    {
        const double slo = 0.9; // 2x the Orin single-frame constraint
        const std::size_t n = fleet_requests();

        {
            Scenario s = serving_scenario(
                orin, "serve_fleet_saturation", "Fleet: homogeneous saturation",
                "8 Poisson KITTI streams at ~9.6 req/s offered to a pool of 4 "
                "identical Orin Nanos (right at pool capacity) racked in a "
                "hot aisle with an airflow gradient (72C at the choked corner "
                "down to 48C): blind placement feeds the hot corner more than "
                "it can dissipate and its queue spirals, headroom-aware "
                "placement gives it exactly the load it can carry. The "
                "headline router comparison (bench_fleet).",
                "edf_admit", true);
            s.fleet->devices = fleet::device_pool(orin, "orin", 4);
            // Rack-position ambient gradient: the devices are identical, the
            // airflow is not -- which is exactly where placement decides
            // whether a die trips.
            for (std::size_t d = 0; d < 4; ++d) {
                s.fleet->devices[d].ambient_celsius = 72.0 - 8.0 * static_cast<double>(d);
            }
            for (int i = 0; i < 8; ++i) {
                s.fleet->streams.push_back(cam_stream(
                    "cam" + std::to_string(i), "KITTI", slo, n,
                    {.kind = serving::ArrivalKind::poisson, .rate_hz = 1.2,
                     .phase_s = 0.11 * i}));
            }
            s.arms.push_back(fleet_arm(lotus_arm(orin), "round_robin"));
            s.arms.push_back(fleet_arm(lotus_arm(orin), "least_queue"));
            s.arms.push_back(fleet_arm(lotus_arm(orin), "thermal_aware"));
            s.arms.push_back(fleet_arm(lotus_arm(orin), "lotus_fleet"));
            s.arms.push_back(fleet_arm(performance_arm(), "round_robin"));
            s.arms.push_back(fleet_arm(performance_arm(), "thermal_aware"));
            scenarios_.push_back(std::move(s));
        }
        {
            Scenario s = serving_scenario(
                orin, "serve_fleet_hetero", "Fleet: heterogeneous pool",
                "2 Orin Nanos + 2 Mi 11 Lites (a ~4x per-frame speed gap) "
                "serve 6 Poisson KITTI streams near pool capacity: blind "
                "placement drowns the phones, backlog- and pace-aware routers "
                "keep them useful for the load they can actually carry.",
                "edf_admit", true);
            const double mi11_l = workload::latency_constraint_s(
                mi11.name, DetectorKind::faster_rcnn, "KITTI");
            s.fleet->devices = fleet::device_pool(orin, "orin", 2);
            for (std::size_t i = 0; i < 2; ++i) {
                auto d = fleet::make_device("mi11_" + std::to_string(i), mi11);
                d.pretrain_constraint_s = mi11_l;
                s.fleet->devices.push_back(std::move(d));
            }
            // The SLO must leave room for a phone-served frame plus queueing.
            const double hetero_slo = 2.0 * mi11_l;
            for (int i = 0; i < 6; ++i) {
                s.fleet->streams.push_back(cam_stream(
                    "cam" + std::to_string(i), "KITTI", hetero_slo, n,
                    {.kind = serving::ArrivalKind::poisson, .rate_hz = 0.9,
                     .phase_s = 0.19 * i}));
            }
            s.arms.push_back(fleet_arm(lotus_arm(orin), "round_robin"));
            s.arms.push_back(fleet_arm(lotus_arm(orin), "least_queue"));
            s.arms.push_back(fleet_arm(lotus_arm(orin), "lotus_fleet"));
            scenarios_.push_back(std::move(s));
        }
        {
            Scenario s = serving_scenario(
                orin, "serve_fleet_diurnal_holdout", "Fleet: diurnal ramp with a failure",
                "6 diurnal KITTI streams over 4 Orin Nanos; one device is "
                "withdrawn at 40% of the run (failure / maintenance holdout) "
                "and its queue re-routes to the survivors -- the pool must "
                "absorb the peak with 3/4 of its capacity.",
                "edf_admit", true);
            s.fleet->devices = fleet::device_pool(orin, "orin", 4);
            const double rate = 1.15;
            // The timeline spans ~requests/rate seconds per stream; withdraw
            // the device at 40% of that horizon.
            s.fleet->devices[3].fail_at_s = 0.4 * static_cast<double>(n) / rate;
            for (int i = 0; i < 6; ++i) {
                s.fleet->streams.push_back(cam_stream(
                    "cam" + std::to_string(i), "KITTI", slo, n,
                    {.kind = serving::ArrivalKind::diurnal, .rate_hz = rate,
                     .phase_s = 0.23 * i}));
            }
            s.arms.push_back(fleet_arm(lotus_arm(orin), "least_queue"));
            s.arms.push_back(fleet_arm(lotus_arm(orin), "lotus_fleet"));
            scenarios_.push_back(std::move(s));
        }
        {
            Scenario s = serving_scenario(
                orin, "serve_fleet_burst_migration", "Fleet: burst storm, migration on/off",
                "6 motion-triggered KITTI streams volley 10 requests at a "
                "time into 3 Orin Nanos with badly skewed airflow (68C at "
                "the choked corner). A blind round-robin keeps feeding the "
                "hot corner until a volley bakes it past its trip; with "
                "migration enabled, the trip drains the clamped device's "
                "queue to the rest of the pool instead of serving the "
                "backlog at clamp speed.",
                "edf_admit", true);
            s.fleet->devices = fleet::device_pool(orin, "orin", 3);
            // Strong airflow gradient: the choked corner trips under volley
            // load that the rest of the pool shrugs off -- the regime where
            // migration pays (or does not; that is the arm comparison).
            for (std::size_t d = 0; d < 3; ++d) {
                s.fleet->devices[d].ambient_celsius = 68.0 - 10.0 * static_cast<double>(d);
            }
            for (int i = 0; i < 6; ++i) {
                s.fleet->streams.push_back(cam_stream(
                    "cam" + std::to_string(i), "KITTI", slo, n,
                    {.kind = serving::ArrivalKind::bursty, .rate_hz = 1.2,
                     .phase_s = 1.3 * i, .burst = 10}));
            }
            s.arms.push_back(fleet_arm(lotus_arm(orin), "round_robin"));
            s.arms.push_back(fleet_arm(lotus_arm(orin), "round_robin", true));
            s.arms.push_back(fleet_arm(performance_arm(), "round_robin"));
            s.arms.push_back(fleet_arm(performance_arm(), "round_robin", true));
            scenarios_.push_back(std::move(s));
        }
    }

    // --- Overhead analysis (Sec. 4.4.2) ---------------------------------------
    {
        Scenario s(runtime::static_experiment(orin, DetectorKind::faster_rcnn, "KITTI",
                                              fast_mode() ? 200 : 1000,
                                              fast_mode() ? 200 : 1000));
        s.name = "overhead_analysis";
        s.title = "Overhead: agent cost per inference";
        s.description = "Short KITTI run for the agent-overhead accounting of "
                        "Sec. 4.4.2: the charged per-decision communication cost vs "
                        "the detector's frame latency, zTT (one decision) vs LOTUS "
                        "(two decisions). bench_overhead adds wall-clock "
                        "microbenchmarks of the Q-network on top.";
        s.tags = {"paper", "overhead"};
        s.arms.push_back(ztt_arm());
        s.arms.push_back(lotus_arm(orin));
        scenarios_.push_back(std::move(s));
    }
}

const ScenarioRegistry& ScenarioRegistry::instance() {
    static const ScenarioRegistry registry;
    return registry;
}

const Scenario* ScenarioRegistry::find(const std::string& name) const {
    for (const auto& s : scenarios_) {
        if (s.name == name) return &s;
    }
    return nullptr;
}

const Scenario& ScenarioRegistry::at(const std::string& name) const {
    if (const Scenario* s = find(name)) return *s;
    std::string known;
    for (const auto& s : scenarios_) {
        known += known.empty() ? s.name : ", " + s.name;
    }
    throw std::out_of_range("unknown scenario '" + name + "' (known: " + known + ")");
}

std::vector<const Scenario*> ScenarioRegistry::with_tag(const std::string& tag) const {
    std::vector<const Scenario*> out;
    out.reserve(scenarios_.size());
    for (const auto& s : scenarios_) {
        if (s.has_tag(tag)) out.push_back(&s);
    }
    return out;
}

} // namespace lotus::harness
