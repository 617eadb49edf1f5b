// Custom-governor example: how a downstream user extends the framework.
//
// Implements a simple deadline-aware heuristic governor ("budget", in
// budget_governor.hpp) through the public Governor interface: it tracks the recent latency slack and
// steps the GPU ladder up or down to hold a target margin below the
// deadline, with a hard back-off when the device approaches the throttling
// bound. The example builds an *ad-hoc* Scenario around it -- custom arms
// slot into the same ExperimentHarness the registry scenarios use -- and
// evaluates it against the stock governors and LOTUS.
//
// Run: ./build/custom_governor

#include <cstdio>

#include "budget_governor.hpp"

using namespace lotus;

namespace {

void report(const std::string& name, const runtime::Trace& trace) {
    const auto s = trace.summary();
    std::printf("  %-34s mean %7.1f ms  std %6.1f ms  R_L %5.1f %%  T_dev %5.1f C  "
                "throttled %4.1f %%\n",
                name.c_str(), s.mean_latency_s * 1e3, s.std_latency_s * 1e3,
                s.satisfaction_rate * 100.0, s.mean_device_temp,
                s.throttled_fraction * 100.0);
}

} // namespace

int main() {
    const auto spec = platform::orin_nano_spec();
    const std::size_t frames = harness::fast_mode() ? 600 : 2000;

    std::printf("Custom governor sandbox: FasterRCNN + VisDrone2019 on %s\n\n",
                spec.name.c_str());

    // Ad-hoc scenario: the registry is convenient, not mandatory.
    harness::Scenario scenario(runtime::static_experiment(
        spec, detector::DetectorKind::faster_rcnn, "VisDrone2019", frames,
        harness::pretrain_iterations()));
    scenario.name = "custom_governor_sandbox";
    scenario.title = "Custom governor sandbox";
    scenario.arms.push_back(harness::default_arm());
    scenario.arms.push_back(budget_arm());
    scenario.arms.push_back(harness::lotus_arm(spec));

    const harness::ExperimentHarness harness;
    for (const auto& r : harness.run(scenario)) {
        report(r.arm, r.trace);
    }

    std::printf("\nThe heuristic holds the deadline but needs hand-tuned thresholds per\n"
                "device/detector/dataset; the learned agent discovers the operating point\n"
                "(and the proposal-conditional boost) on its own -- the paper's case for\n"
                "DRL-based management.\n");
    return 0;
}
