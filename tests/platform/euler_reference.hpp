#pragma once
// Explicit-Euler integrator of the RC thermal network, kept in test code as
// the independent reference ThermalNetwork's closed-form stepper is checked
// against. It integrates the same ODE,
//
//      C_i dT_i/dt = P_i + sum_j G_ij (T_j - T_i) + G_i,amb (T_amb - T_i),
//
// in fixed 5 ms sub-steps and counts each sub-step, so tests can compare both
// temperatures and integration-step counts.

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>

#include "platform/thermal.hpp"

namespace lotus::platform {

class EulerReference {
public:
    /// Euler sub-step [s].
    static constexpr double kSubstep = 0.005;

    EulerReference(const ThermalParams& params, double initial_celsius)
        : params_(params), temps_{initial_celsius, initial_celsius, initial_celsius} {}

    /// Integrate `dt` seconds under constant node powers [W] and ambient.
    void step(double dt, const std::array<double, kNumThermalNodes>& power_w,
              double ambient_celsius) {
        if (dt < 0.0) throw std::invalid_argument("EulerReference::step: negative dt");
        constexpr std::size_t cpu = 0;
        constexpr std::size_t gpu = 1;
        constexpr std::size_t board = 2;
        while (dt > 0.0) {
            const double h = std::min(dt, kSubstep);
            dt -= h;
            const double q_cpu_board = params_.g_to_board[cpu] * (temps_[board] - temps_[cpu]);
            const double q_gpu_board = params_.g_to_board[gpu] * (temps_[board] - temps_[gpu]);
            const double d_cpu = power_w[cpu] + q_cpu_board +
                                 params_.g_to_ambient[cpu] * (ambient_celsius - temps_[cpu]);
            const double d_gpu = power_w[gpu] + q_gpu_board +
                                 params_.g_to_ambient[gpu] * (ambient_celsius - temps_[gpu]);
            const double d_board = power_w[board] - q_cpu_board - q_gpu_board +
                                   params_.g_to_ambient[board] *
                                       (ambient_celsius - temps_[board]);
            temps_[cpu] += h * d_cpu / params_.capacity[cpu];
            temps_[gpu] += h * d_gpu / params_.capacity[gpu];
            temps_[board] += h * d_board / params_.capacity[board];
            ++steps_;
        }
    }

    [[nodiscard]] double temperature(ThermalNode n) const noexcept {
        return temps_[static_cast<std::size_t>(n)];
    }
    [[nodiscard]] const std::array<double, kNumThermalNodes>& temperatures() const noexcept {
        return temps_;
    }
    [[nodiscard]] std::uint64_t steps() const noexcept { return steps_; }

private:
    ThermalParams params_;
    std::array<double, kNumThermalNodes> temps_;
    std::uint64_t steps_ = 0;
};

} // namespace lotus::platform
