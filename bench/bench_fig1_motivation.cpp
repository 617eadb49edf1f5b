// Fig. 1 reproduction: mean and variation of inference latency plus mAP@0.5
// for two-stage detectors (FasterRCNN, MaskRCNN) and the one-stage YOLOv5 on
// KITTI and VisDrone2019.
//
// Methodology: each detector runs under the board's stock governors on the
// Jetson Orin Nano for a full heat-soaked window, exactly the regime the
// paper's motivation section measures -- so the two-stage numbers include
// both proposal-count variance and thermal-throttling variance, while
// YOLOv5's fixed-work pipeline shows a tight distribution. mAP values are
// static metadata reproduced from the paper (the detectors are simulated,
// so there is no mAP to measure).

#include <cstdio>

#include "lotus_repro.hpp"

using namespace lotus;

int main() {
    std::printf("Fig. 1 -- latency mean/variation and mAP@0.5 per detector and dataset\n");
    std::printf("(Jetson Orin Nano, stock governors, %zu iterations per cell)\n\n",
                harness::orin_iterations());

    util::TextTable table({"dataset", "detector", "mean (ms)", "std (ms)",
                           "p5 (ms)", "p95 (ms)", "mAP@0.5 (paper)"});

    // One registry scenario per dataset; one arm per detector.
    for (const char* name : {"fig1_kitti", "fig1_visdrone"}) {
        const auto& sc = harness::ScenarioRegistry::instance().at(name);
        const auto results = harness::ExperimentHarness().run(sc);
        for (const auto& r : results) {
            const auto s = r.trace.summary();
            const auto pct = util::percentiles(r.trace.latencies_ms(), {5.0, 95.0});
            const auto& dataset = r.config.schedule.at(0).dataset;
            table.add_row({
                dataset,
                r.arm, // arm name == detector name in the Fig. 1 scenarios
                util::format_double(s.mean_latency_s * 1e3, 1),
                util::format_double(s.std_latency_s * 1e3, 1),
                util::format_double(pct[0], 1),
                util::format_double(pct[1], 1),
                util::format_double(workload::map50(r.config.detector, dataset), 1),
            });
        }
    }
    std::printf("%s\n", table.render("Fig. 1 (measured latency; mAP from paper)").c_str());
    std::printf("Expected shape: two-stage detectors show std an order of magnitude\n"
                "above YOLOv5's, and higher mAP on both datasets (the accuracy/stability\n"
                "trade-off motivating LOTUS).\n");
    return 0;
}
