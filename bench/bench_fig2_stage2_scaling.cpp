// Fig. 2 reproduction: inference latency of the second stage as a function
// of the RPN proposal count, for FasterRCNN and MaskRCNN, at a fixed
// CPU/GPU frequency (the paper pins the frequency and scatters per-image
// measurements; we sweep the proposal count directly).
//
// Each sweep point is one cold-start single-frame episode of the
// fig2_*_sweep probe scenarios; the harness runs all points in parallel.

#include <algorithm>
#include <cstdio>

#include "lotus_repro.hpp"

using namespace lotus;

namespace {

void sweep(const char* scenario_name) {
    const auto& sc = harness::ScenarioRegistry::instance().at(scenario_name);
    const auto results = harness::ExperimentHarness().run(sc);

    // Probe episodes are exactly one frame each; the pinned levels and the
    // proposal counts come from the executed traces, not from re-stating the
    // registry's constants.
    const auto& spec = sc.config.device_spec;
    const auto& first = results.front().trace[0];
    std::printf("%s (CPU pinned to %.0f MHz, GPU to %.0f MHz)\n",
                detector::to_string(sc.config.detector),
                spec.cpu.opp.freq(first.cpu_level) / 1e6,
                spec.gpu.opp.freq(first.gpu_level) / 1e6);
    util::TextTable table({"#proposals", "stage2 (ms)", "stage1 (ms)", "total (ms)",
                           "stage2 share (%)"});
    std::vector<double> ys;
    int max_proposals = 0;
    for (const auto& r : results) {
        const auto& row = r.trace[0];
        table.add_row({
            std::to_string(row.proposals),
            util::format_double(row.stage2_s * 1e3, 2),
            util::format_double(row.stage1_s * 1e3, 2),
            util::format_double(row.latency_s * 1e3, 2),
            util::format_double(100.0 * row.stage2_s / row.latency_s, 1),
        });
        ys.push_back(row.stage2_s * 1e3);
        max_proposals = std::max(max_proposals, row.proposals);
    }
    std::printf("%s", table.render().c_str());

    util::AsciiChart chart(100, 12);
    chart.add_series({"stage2 latency", ys});
    std::printf("%s\n",
                chart.render("stage-2 latency vs proposals (x: 0.." +
                                 std::to_string(max_proposals) + ")",
                             "ms")
                    .c_str());
}

} // namespace

int main() {
    std::printf("Fig. 2 -- second-stage latency vs number of proposals\n\n");
    // Axis ranges follow the paper's panels: FasterRCNN 0..600, MaskRCNN 0..300.
    sweep("fig2_frcnn_sweep");
    sweep("fig2_mrcnn_sweep");
    std::printf("Expected shape: near-linear growth; the MaskRCNN slope (per-proposal\n"
                "mask head) is several times the FasterRCNN slope, so its panel reaches\n"
                "~200 ms at 300 proposals while FasterRCNN reaches ~100 ms at 600.\n");
    return 0;
}
