#pragma once
// The custom_governor example's hand-made governor and its experiment arm,
// in a header so tests can check the arm the example runs.

#include <algorithm>
#include <memory>
#include <string>

#include "lotus_repro.hpp"

namespace lotus {

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

/// The arm the example adds to its scenario. The governor is outside the
/// vocabulary, so the arm sets its own make_for (threshold from the device
/// it is built for) and names itself in a Custom spec.
inline harness::ArmSpec budget_arm() {
    harness::ArmSpec arm;
    arm.name = "budget-heuristic";
    arm.governor = harness::Custom{arm.name};
    arm.make_for = [](const platform::DeviceSpec& dev,
                      std::uint64_t) -> std::unique_ptr<governors::Governor> {
        return std::make_unique<BudgetGovernor>(platform::reward_threshold_celsius(dev));
    };
    return arm;
}

} // namespace lotus
