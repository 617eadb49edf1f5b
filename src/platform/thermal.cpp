#include "platform/thermal.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace lotus::platform {

namespace {
constexpr std::size_t kCpu = static_cast<std::size_t>(ThermalNode::cpu);
constexpr std::size_t kGpu = static_cast<std::size_t>(ThermalNode::gpu);
constexpr std::size_t kBoard = static_cast<std::size_t>(ThermalNode::board);
} // namespace

ThermalNetwork::ThermalNetwork(ThermalParams params) : params_(params) {
    for (const double c : params_.capacity) {
        if (c <= 0.0) throw std::invalid_argument("ThermalNetwork: capacity must be > 0");
    }
    for (const double g : params_.g_to_board) {
        if (g < 0.0) throw std::invalid_argument("ThermalNetwork: negative conductance");
    }
    for (const double g : params_.g_to_ambient) {
        if (g < 0.0) throw std::invalid_argument("ThermalNetwork: negative conductance");
    }
    // Every node needs a conductive path to ambient: directly, or for a die
    // through the board. Otherwise G is singular and has no steady state.
    const auto& g_amb = params_.g_to_ambient;
    const auto& g_board = params_.g_to_board;
    const bool board_path = g_amb[kBoard] > 0.0 || (g_board[kCpu] > 0.0 && g_amb[kCpu] > 0.0) ||
                            (g_board[kGpu] > 0.0 && g_amb[kGpu] > 0.0);
    const bool path[] = {g_amb[kCpu] > 0.0 || (g_board[kCpu] > 0.0 && board_path),
                         g_amb[kGpu] > 0.0 || (g_board[kGpu] > 0.0 && board_path), board_path};
    const char* const names[] = {"cpu", "gpu", "board"};
    for (std::size_t n = 0; n < kNumThermalNodes; ++n) {
        if (!path[n]) {
            throw std::invalid_argument(std::string("ThermalNetwork: the ") + names[n] +
                                        " node has no path to ambient (no steady state)");
        }
    }
    temps_ = params_.initial;
    decompose();
}

void ThermalNetwork::decompose() {
    // Conductance matrix G of C dT/dt = -G T + b (b = P + G_amb * T_amb).
    std::array<std::array<double, kNumThermalNodes>, kNumThermalNodes> g{};
    g[kCpu][kCpu] = params_.g_to_board[kCpu] + params_.g_to_ambient[kCpu];
    g[kGpu][kGpu] = params_.g_to_board[kGpu] + params_.g_to_ambient[kGpu];
    g[kBoard][kBoard] =
        params_.g_to_board[kCpu] + params_.g_to_board[kGpu] + params_.g_to_ambient[kBoard];
    g[kCpu][kBoard] = g[kBoard][kCpu] = -params_.g_to_board[kCpu];
    g[kGpu][kBoard] = g[kBoard][kGpu] = -params_.g_to_board[kGpu];

    for (std::size_t i = 0; i < kNumThermalNodes; ++i) {
        sqrt_c_[i] = std::sqrt(params_.capacity[i]);
    }

    // S = C^{-1/2} G C^{-1/2}: symmetric, similar to C^{-1} G, so its
    // eigenvalues are the (real, non-negative) decay rates of the network.
    std::array<std::array<double, kNumThermalNodes>, kNumThermalNodes> s{};
    for (std::size_t i = 0; i < kNumThermalNodes; ++i) {
        for (std::size_t j = 0; j < kNumThermalNodes; ++j) {
            s[i][j] = g[i][j] / (sqrt_c_[i] * sqrt_c_[j]);
        }
    }

    // Cyclic Jacobi eigendecomposition (3x3 symmetric: converges in a few
    // sweeps, fully deterministic).
    std::array<std::array<double, kNumThermalNodes>, kNumThermalNodes> v{};
    for (std::size_t i = 0; i < kNumThermalNodes; ++i) v[i][i] = 1.0;
    for (int sweep = 0; sweep < 64; ++sweep) {
        double off = 0.0;
        for (std::size_t p = 0; p < kNumThermalNodes; ++p) {
            for (std::size_t q = p + 1; q < kNumThermalNodes; ++q) off += s[p][q] * s[p][q];
        }
        if (off < 1e-26) break;
        for (std::size_t p = 0; p < kNumThermalNodes; ++p) {
            for (std::size_t q = p + 1; q < kNumThermalNodes; ++q) {
                if (std::abs(s[p][q]) < 1e-300) continue;
                const double theta = (s[q][q] - s[p][p]) / (2.0 * s[p][q]);
                const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                                 (std::abs(theta) + std::sqrt(theta * theta + 1.0));
                const double c = 1.0 / std::sqrt(t * t + 1.0);
                const double sn = t * c;
                for (std::size_t k = 0; k < kNumThermalNodes; ++k) {
                    const double skp = s[k][p];
                    const double skq = s[k][q];
                    s[k][p] = c * skp - sn * skq;
                    s[k][q] = sn * skp + c * skq;
                }
                for (std::size_t k = 0; k < kNumThermalNodes; ++k) {
                    const double spk = s[p][k];
                    const double sqk = s[q][k];
                    s[p][k] = c * spk - sn * sqk;
                    s[q][k] = sn * spk + c * sqk;
                    const double vkp = v[k][p];
                    const double vkq = v[k][q];
                    v[k][p] = c * vkp - sn * vkq;
                    v[k][q] = sn * vkp + c * vkq;
                }
            }
        }
    }
    for (std::size_t k = 0; k < kNumThermalNodes; ++k) {
        eigenvalues_[k] = std::max(s[k][k], 0.0);
    }
    eigenvectors_ = v;
    for (std::size_t i = 0; i < kNumThermalNodes; ++i) {
        for (std::size_t k = 0; k < kNumThermalNodes; ++k) {
            projection_[i][k] = eigenvectors_[i][k] * sqrt_c_[i];
        }
    }

    // steady_state()'s power-independent terms (see there).
    const double g0b = params_.g_to_board[kCpu];
    const double g1b = params_.g_to_board[kGpu];
    ss_s0_ = g0b + params_.g_to_ambient[kCpu];
    ss_s1_ = g1b + params_.g_to_ambient[kGpu];
    const double k0 = g0b * (g0b / ss_s0_ - 1.0);
    const double k1 = g1b * (g1b / ss_s1_ - 1.0);
    ss_board_den_ = params_.g_to_ambient[kBoard] - k0 - k1;

    // Free-step test constants (the proof is at advance_bounded() in the
    // header). Each rounding of mu_ik is followed by one step up, so mu_ik
    // bounds rho_ik (1 + m) / sqrt(C_i) from above.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kMargin = 0x1p-40;
    double lambda_sum = 0.0;
    for (std::size_t k = 0; k < kNumThermalNodes; ++k) {
        lambda_sum += eigenvalues_[k];
        for (std::size_t i = 0; i < kNumThermalNodes; ++i) {
            const double rho =
                sqrt_c_[i] < 1.0 ? std::max(eigenvalues_[k], 1.0) : eigenvalues_[k];
            const double rate = std::nextafter(rho / sqrt_c_[i], kInf);
            free_rate_[i][k] = std::nextafter(rate * (1.0 + kMargin), kInf);
        }
    }
    free_floor_ = 0x1p-1000 * (lambda_sum + 1.0);
}

[[gnu::aligned(64)]] double ThermalNetwork::advance_bounded(
    double dt_max, const std::array<double, kNumThermalNodes>& power_w, double ambient_celsius,
    double delta_k) {
    if (dt_max < 0.0) {
        throw std::invalid_argument("ThermalNetwork::advance_bounded: negative dt");
    }
    if (delta_k <= 0.0) {
        throw std::invalid_argument("ThermalNetwork::advance_bounded: delta must be > 0");
    }
    if (dt_max == 0.0) return 0.0;

    // Full-step decays first: they do not depend on the temperatures, so
    // they run alongside the divisions below instead of after them.
    std::array<double, kNumThermalNodes> decay{};
    for (std::size_t k = 0; k < kNumThermalNodes; ++k) {
        decay[k] = std::exp(-eigenvalues_[k] * dt_max);
    }

    // Modal coordinates of the deviation from steady state: a = V^T C^{1/2}
    // (T - T_ss); each mode decays as e^{-lambda_k t}.
    const auto t_ss = steady_state(power_w, ambient_celsius);
    std::array<double, kNumThermalNodes> a{};
    for (std::size_t k = 0; k < kNumThermalNodes; ++k) {
        for (std::size_t i = 0; i < kNumThermalNodes; ++i) {
            a[k] += projection_[i][k] * (temps_[i] - t_ss[i]);
        }
    }

    // Free-step test: no node can bind within dt_max (see the header for
    // why a pass proves that the drift bound below would return dt_max).
    const double delta_free = delta_k - std::numeric_limits<double>::denorm_min();
    bool full_step = true;
    for (std::size_t i = 0; i < kNumThermalNodes; ++i) {
        double r = free_floor_;
        for (std::size_t k = 0; k < kNumThermalNodes; ++k) {
            r += std::abs(eigenvectors_[i][k] * a[k]) * free_rate_[i][k];
        }
        full_step &= r * dt_max <= delta_free;
    }

    double h = dt_max;
    if (!full_step) {
        ++exact_bounds_;
        // Node i moves as T_i(t) - T_i(0) = sum_k c_ik (e^{-lambda_k t} - 1)
        // with c_ik = V_ik a_k / sqrt(C_i). Two rigorous per-node bounds:
        //   saturation: |dT_i(t)| <= A_i        = sum_k |c_ik|       (for all t)
        //   rate:       |dT_i(t)| <= t * R_i,   R_i = sum_k |c_ik| lambda_k
        // (1 - e^{-x} <= min(1, x)). A node with A_i <= delta can never drift
        // that far; otherwise delta / R_i bounds its crossing time. Taking the
        // per-node rate -- instead of amplitude * lambda_max -- keeps the slow,
        // large-amplitude board mode from being charged at the fast die rate.
        double bound = std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < kNumThermalNodes; ++i) {
            double amplitude = 0.0;
            double rate = 0.0;
            for (std::size_t k = 0; k < kNumThermalNodes; ++k) {
                const double c = std::abs(eigenvectors_[i][k] * a[k]) / sqrt_c_[i];
                amplitude += c;
                rate += c * eigenvalues_[k];
            }
            if (amplitude <= delta_k || rate <= 0.0) continue;
            bound = std::min(bound, delta_k / rate);
        }
        // The 1 ns floor guarantees forward progress even if the bound ever
        // degenerates numerically.
        h = std::min(dt_max, std::max(bound, 1e-9));
        if (h != dt_max) {
            for (std::size_t k = 0; k < kNumThermalNodes; ++k) {
                decay[k] = std::exp(-eigenvalues_[k] * h);
            }
        }
    }

    for (std::size_t i = 0; i < kNumThermalNodes; ++i) {
        double w = 0.0;
        for (std::size_t k = 0; k < kNumThermalNodes; ++k) {
            w += eigenvectors_[i][k] * a[k] * decay[k];
        }
        temps_[i] = t_ss[i] + w / sqrt_c_[i];
    }
    ++steps_;
    return h;
}

std::array<double, kNumThermalNodes> ThermalNetwork::steady_state(
    const std::array<double, kNumThermalNodes>& power_w, double ambient_celsius) const {
    // Eliminate the die nodes, then solve the board balance.
    //   T_die = (P_die + Gdb * T_board + Gda * T_amb) / (Gdb + Gda)
    // Heat flowing die -> board expressed in T_board, for both dies:
    //   Q_d = Gdb * ((P_d + Gda Ta) / s_d + (Gdb / s_d - 1) T_board),
    //   s_d = Gdb + Gda,
    // so the board equation 0 = P_board + Q_cpu + Q_gpu + g2a (Ta - T_board)
    // is linear in T_board with denominator g2a - k0 - k1, k_d = Gdb (Gdb /
    // s_d - 1). s_d and that denominator depend on the network only, so
    // decompose() computes them once.
    const double g0b = params_.g_to_board[kCpu];
    const double g0a = params_.g_to_ambient[kCpu];
    const double g1b = params_.g_to_board[kGpu];
    const double g1a = params_.g_to_ambient[kGpu];
    const double g2a = params_.g_to_ambient[kBoard];
    const double ta = ambient_celsius;

    const double c0 = g0b * (power_w[kCpu] + g0a * ta) / ss_s0_;
    const double c1 = g1b * (power_w[kGpu] + g1a * ta) / ss_s1_;

    const double t_board = (power_w[kBoard] + c0 + c1 + g2a * ta) / ss_board_den_;
    const double t_cpu = (power_w[kCpu] + g0b * t_board + g0a * ta) / ss_s0_;
    const double t_gpu = (power_w[kGpu] + g1b * t_board + g1a * ta) / ss_s1_;
    return {t_cpu, t_gpu, t_board};
}

void ThermalNetwork::reset(double ambient_celsius) {
    temps_ = {ambient_celsius, ambient_celsius, ambient_celsius};
    steps_ = 0;
    exact_bounds_ = 0;
}

void ThermalNetwork::reset() {
    temps_ = params_.initial;
    steps_ = 0;
    exact_bounds_ = 0;
}

} // namespace lotus::platform
