#pragma once
// Per-domain power model.
//
//   P(f, V, u, T) = u_eff * C_eff * f * V^2  +  P_leak0 * V * exp(kT (T - T0))
//
// The dynamic term is the classic alpha-C-f-V^2 switching power with
// utilization u_eff = idle_fraction + (1 - idle_fraction) * u (a loaded
// domain never drops to exactly zero switching activity). The leakage term
// grows exponentially with temperature, which is what makes sustained
// high-frequency operation thermally unstable on passively cooled edge
// devices -- the effect LOTUS and zTT must learn to avoid.
//
// The evaluation functions are defined here so the device's per-segment
// loop can inline them.

#include <algorithm>
#include <cmath>

namespace lotus::platform {

struct PowerParams {
    /// Effective switched capacitance [W / (Hz * V^2)].
    double c_eff = 0.0;
    /// Leakage at V = 1 V and T = t0_celsius [W / V].
    double leak0_w_per_v = 0.0;
    /// Exponential leakage temperature coefficient [1/K].
    double leak_temp_coeff = 0.02;
    /// Reference temperature for leak0 [deg C].
    double t0_celsius = 25.0;
    /// Fraction of dynamic power drawn when idle (clock/uncore activity).
    double idle_fraction = 0.05;
};

class PowerModel {
public:
    explicit PowerModel(PowerParams params);

    /// Dynamic switching power at frequency f [Hz], voltage V, utilization
    /// u in [0, 1].
    [[nodiscard]] double dynamic_power(double f, double v, double u) const noexcept {
        u = std::clamp(u, 0.0, 1.0);
        const double u_eff = params_.idle_fraction + (1.0 - params_.idle_fraction) * u;
        return u_eff * params_.c_eff * f * v * v;
    }

    /// Temperature-dependent leakage at voltage V and temperature T [deg C].
    [[nodiscard]] double leakage(double v, double t_celsius) const noexcept {
        return params_.leak0_w_per_v * v *
               std::exp(params_.leak_temp_coeff * (t_celsius - params_.t0_celsius));
    }

    /// Total domain power.
    [[nodiscard]] double total(double f, double v, double u, double t_celsius) const noexcept {
        return dynamic_power(f, v, u) + leakage(v, t_celsius);
    }

    [[nodiscard]] const PowerParams& params() const noexcept { return params_; }

private:
    PowerParams params_;
};

} // namespace lotus::platform
