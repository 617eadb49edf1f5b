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
// e^{-lambda_k dt_max} before the chain, where they overlap, and runs a
// division-free free-step test before the drift bound's divisions: when it
// proves that no node can bind, h is dt_max and the bound is skipped. The
// exact bound runs only when the test fails, and the decays are recomputed
// only when the bound or the 1 ns floor made h shorter. The test passes only
// when the exact bound would have returned dt_max (proof at
// advance_bounded()), so every bit of the result is unchanged; the
// power-independent products and sums of the projection, of steady_state()
// and of the test are computed once, in decompose().

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
    ///
    /// Free-step test. With p_ik = |V_ik a_k| (the same rounded products
    /// the exact bound divides by sqrt(C_i)), the test passes when, for
    /// every node i,
    ///   fl(r_i * dt_max) <= fl(delta - 2^-1074),
    ///   r_i = fl(tau + sum_k p_ik mu_ik),  mu_ik >= rho_ik (1 + m) / sqrt(C_i),
    /// summed in k order, with m = 2^-40 and rho_ik = lambda_k, or
    /// max(lambda_k, 1) for a node with sqrt(C_i) < 1. mu_ik is rho_ik /
    /// sqrt(C_i) times 1 + m, each rounding followed by one step up
    /// (nextafter), so it bounds the real value from above even when it is
    /// subnormal. A pass implies fl(delta / R_i) >= dt_max for every node
    /// that the exact bound does not skip, hence h == dt_max (u = 2^-53,
    /// eta = 2^-1075 the absolute error of a rounding into the subnormal
    /// range):
    /// - Overflow fails the test first. mu_ik > lambda_k (1 + m) / sqrt(C_i),
    ///   so a product |c_ik| lambda_k or a rate sum of the exact bound that
    ///   rounds to inf makes p_ik mu_ik or r_i inf as well. A quotient
    ///   |c_ik| = p_ik / sqrt(C_i) can round to inf only when sqrt(C_i) < 1,
    ///   and there mu_ik > (1 + m) / sqrt(C_i) makes p_ik mu_ik inf too. On a
    ///   pass with a finite delta every rounding of the exact rate costs at
    ///   most a factor 1 + u and an absolute eta: R_i <= (1 + u)^4 S_i /
    ///   sqrt(C_i) + E with S_i = sum_k p_ik lambda_k and E <= 2 eta
    ///   (sum lambda + 3).
    /// - The test's 3 products and 3 sums give r_i >= (1 - u)^4 (1 + m)
    ///   S_i / sqrt(C_i) + (tau - 3 eta)(1 - u)^3. The absolute term tau =
    ///   2^-1000 (sum lambda + 1) exceeds 3 eta + 2E, so it covers every
    ///   subnormal product on both sides: R_i <= (1 + u)^4 r_i / ((1 + m)
    ///   (1 - u)^4).
    /// - Subtracting 2^-1074 from delta covers the rounding of
    ///   r_i * dt_max into the subnormal range: r_i dt_max <= delta (1 + u)
    ///   / (1 - u), also for a subnormal delta.
    /// - Together R_i dt_max <= delta ((1 + u) / (1 - u))^5 / (1 + m) <=
    ///   delta, since 11u < m: the relative margin m covers every rounding
    ///   of both sums, of the comparison and of delta / R_i. Rounding is
    ///   monotone and dt_max is a double, so fl(delta / R_i) >= dt_max.
    /// A NaN fails the comparison, and an infinite delta passes only where
    /// the exact bound skips every node; every other outcome runs the exact
    /// bound. exact_bounds() counts those runs.
    double advance_bounded(double dt_max, const std::array<double, kNumThermalNodes>& power_w,
                           double ambient_celsius, double delta_k);

    /// advance_bounded() calls that moved time so far; cleared by reset().
    [[nodiscard]] std::uint64_t steps() const noexcept { return steps_; }
    /// Of those, the steps whose free-step test failed and that ran the
    /// exact drift bound; cleared by reset().
    [[nodiscard]] std::uint64_t exact_bounds() const noexcept { return exact_bounds_; }

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
    std::uint64_t exact_bounds_ = 0;

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
    // Free-step test constants (see advance_bounded()): mu_ik and tau.
    std::array<std::array<double, kNumThermalNodes>, kNumThermalNodes> free_rate_{};
    double free_floor_ = 0.0;
};

} // namespace lotus::platform
