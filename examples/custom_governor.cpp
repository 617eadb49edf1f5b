// Custom-governor example: how a downstream user extends the framework.
//
// Implements a simple deadline-aware heuristic governor ("budget") through
// the public Governor interface: it tracks the recent latency slack and
// steps the GPU ladder up or down to hold a target margin below the
// deadline, with a hard back-off when the device approaches the throttling
// bound. The example builds an *ad-hoc* Scenario around it -- custom arms
// slot into the same ExperimentHarness the registry scenarios use -- and
// evaluates it against the stock governors and LOTUS.
//
// Run: ./build/custom_governor

#include <algorithm>
#include <cstdio>

#include "lotus_repro.hpp"

using namespace lotus;

namespace {

/// Heuristic: keep latency in [0.8 L, 0.95 L]; slow down when cool slack is
/// large, speed up when close to the deadline, and drop two levels when the
/// die temperature approaches the trip point.
class BudgetGovernor final : public governors::Governor {
public:
    explicit BudgetGovernor(double t_safe_celsius) : t_safe_(t_safe_celsius) {}

    [[nodiscard]] std::string name() const override { return "budget-heuristic"; }

    governors::LevelRequest on_frame_start(const governors::Observation& obs) override {
        cpu_ = std::min(cpu_, obs.cpu_levels - 1);
        gpu_ = std::min(gpu_, obs.gpu_levels - 1);

        if (obs.cpu_temp > t_safe_ || obs.gpu_temp > t_safe_) {
            gpu_ = gpu_ >= 2 ? gpu_ - 2 : 0;
            cpu_ = cpu_ >= 1 ? cpu_ - 1 : 0;
        } else if (obs.last_frame_latency_s > 0.0) {
            const double ratio = obs.last_frame_latency_s / obs.latency_constraint_s;
            if (ratio > 0.95) {
                if (gpu_ + 1 < obs.gpu_levels) ++gpu_;
                if (cpu_ + 1 < obs.cpu_levels) ++cpu_;
            } else if (ratio < 0.80 && gpu_ > 0) {
                --gpu_;
            }
        }
        return governors::LevelRequest::set(cpu_, gpu_);
    }

    governors::LevelRequest on_post_rpn(const governors::Observation& obs) override {
        // Proposal-aware boost, LOTUS-style but hand-written: many proposals
        // with little remaining budget -> jump the GPU to the ceiling.
        const double remaining = obs.latency_constraint_s - obs.elapsed_in_frame_s;
        if (obs.proposals > 300 && remaining < 0.35 * obs.latency_constraint_s) {
            return governors::LevelRequest::set(cpu_, obs.gpu_levels - 1);
        }
        return governors::LevelRequest::none();
    }

private:
    double t_safe_;
    std::size_t cpu_ = 7;
    std::size_t gpu_ = 3;
};

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
    {
        harness::ArmSpec arm;
        arm.name = "budget-heuristic";
        arm.make_for = [](const platform::DeviceSpec& dev, std::uint64_t)
            -> std::unique_ptr<governors::Governor> {
            return std::make_unique<BudgetGovernor>(platform::reward_threshold_celsius(dev));
        };
        scenario.arms.push_back(std::move(arm));
    }
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
