#pragma once
// Lumped RC thermal network.
//
// Three thermal nodes -- CPU die, GPU die and the shared board/chassis --
// exchange heat through thermal conductances and leak to ambient:
//
//      C_i dT_i/dt = P_i + sum_j G_ij (T_j - T_i) + G_i,amb (T_amb - T_i)
//
// This captures the two effects the paper's motivation hinges on: thermal
// *coupling* between CPU and GPU through the board (Sec. 3, "thermal
// coupling among processors"), and a slow board time constant that makes
// overheating a delayed consequence of earlier frequency decisions -- the
// credit-assignment problem the DRL agent must solve.
//
// For *constant* node powers the system is linear, C dT/dt = -G T + b, so
// it admits an exact solution: T(t) = T_ss + C^{-1/2} V e^{-Lambda t} V^T
// C^{1/2} (T_0 - T_ss), where S = C^{-1/2} G C^{-1/2} = V Lambda V^T is a
// constant symmetric matrix that only depends on the network parameters.
// advance_bounded() evaluates that solution in one integration step,
// bounded analytically so the power-freezing error (leakage drifts with
// temperature inside a segment) stays below a configured tolerance. Every
// node needs a conductive path to ambient: without one G is singular and
// there is no steady state to decay towards, so the constructor rejects it.
//
// A segment is one serial chain -- steady state, projection, drift bound,
// step length h, decays e^{-lambda_k h}, new temperatures -- so its cost is
// the chain's latency. Most segments end at dt_max (the next poll or event),
// not at the drift bound, so advance_bounded() starts the three
// e^{-lambda_k dt_max} before the chain's divisions, where they overlap,
// and recomputes the decays only when the bound or the 1 ns floor made h
// shorter. Both are the same expression of the same h, so every bit of the
// result is unchanged; the power-independent products and sums of the
// projection and of steady_state() are computed once, in decompose().

#include <array>
#include <cstddef>
#include <cstdint>

namespace lotus::platform {

enum class ThermalNode : std::size_t { cpu = 0, gpu = 1, board = 2 };
inline constexpr std::size_t kNumThermalNodes = 3;

struct ThermalParams {
    /// Heat capacities [J/K].
    std::array<double, kNumThermalNodes> capacity{8.0, 10.0, 70.0};
    /// Conductance die->board [W/K], indexed by die node (board unused).
    std::array<double, kNumThermalNodes> g_to_board{0.8, 0.9, 0.0};
    /// Conductance node->ambient [W/K].
    std::array<double, kNumThermalNodes> g_to_ambient{0.02, 0.02, 0.22};
    /// Initial temperatures [deg C].
    std::array<double, kNumThermalNodes> initial{25.0, 25.0, 25.0};
};

class ThermalNetwork {
public:
    /// Throws std::invalid_argument on a non-positive capacity, a negative
    /// conductance or a node with no conductive path to ambient.
    explicit ThermalNetwork(ThermalParams params);

    /// Advance under constant power [W] (board power is usually 0) and
    /// ambient [deg C] by min(dt_max, drift bound) with the closed-form
    /// solution, and return the time actually advanced (> 0 for
    /// dt_max > 0). The drift bound is the longest time no node's
    /// temperature can move more than `delta_k` kelvin: per node i with
    /// modal coefficients c_ik = V_ik a_k / sqrt(C_i),
    /// |dT_i(t)| <= min(A_i, t * R_i) with A_i = sum_k |c_ik| (saturation)
    /// and R_i = sum_k |c_ik| lambda_k (initial-rate bound, from
    /// 1 - e^{-x} <= min(1, x)); nodes with A_i <= delta can never cross,
    /// the rest cross no earlier than delta / R_i. An infinite `delta_k`
    /// takes the whole dt_max in one step.
    double advance_bounded(double dt_max, const std::array<double, kNumThermalNodes>& power_w,
                           double ambient_celsius, double delta_k);

    /// advance_bounded() calls that moved time so far; cleared by reset().
    [[nodiscard]] std::uint64_t steps() const noexcept { return steps_; }

    [[nodiscard]] double temperature(ThermalNode n) const noexcept {
        return temps_[static_cast<std::size_t>(n)];
    }
    [[nodiscard]] const std::array<double, kNumThermalNodes>& temperatures() const noexcept {
        return temps_;
    }

    /// Closed-form steady-state temperatures for constant power/ambient;
    /// used by tests and for calibration sanity checks.
    [[nodiscard]] std::array<double, kNumThermalNodes> steady_state(
        const std::array<double, kNumThermalNodes>& power_w, double ambient_celsius) const;

    void reset(double ambient_celsius);
    void reset();

    [[nodiscard]] const ThermalParams& params() const noexcept { return params_; }

private:
    void decompose();

    ThermalParams params_;
    std::array<double, kNumThermalNodes> temps_{};
    std::uint64_t steps_ = 0;

    // Constant modal decomposition of S = C^{-1/2} G C^{-1/2} (symmetric),
    // computed once at construction.
    std::array<double, kNumThermalNodes> sqrt_c_{};
    std::array<double, kNumThermalNodes> eigenvalues_{};          // 1/s, >= 0
    std::array<std::array<double, kNumThermalNodes>, kNumThermalNodes>
        eigenvectors_{};                                          // columns
    // projection_[i][k] = V_ik sqrt(C_i): a_k = sum_i projection_[i][k] (T_i - T_ss,i).
    std::array<std::array<double, kNumThermalNodes>, kNumThermalNodes> projection_{};
    // steady_state()'s die sums s_d = Gdb + Gda and board denominator.
    double ss_s0_ = 0.0;
    double ss_s1_ = 0.0;
    double ss_board_den_ = 0.0;
};

} // namespace lotus::platform
