#pragma once
// LOTUS reward (Sec. 4.3.3, Eqs. (2)-(3)).
//
//   r = r_time + lambda * r_temp
//
//   r_time = tanh(DeltaL) + 1 / (1 + sigma_n(DeltaL))   if DeltaL > 0
//          = p * DeltaL                                  otherwise
//   r_temp = +1  if T_cpu <= T_thres and T_gpu <= T_thres
//          = -p  otherwise
//
// DeltaL = (L - l_i) / L is the *normalised* slack of the completed frame
// (the tanh saturates around |x| ~ 2, so normalising by L keeps the reward
// in its sensitive region across devices whose latencies differ by 4x).
// sigma_n is the standard deviation of the n most recent DeltaL values; the
// 1/(1+sigma_n) term is what rewards *low latency variation* -- the paper's
// headline objective. p > 0 is the penalty multiplier applied both to
// deadline violations (r_time branch) and overheating (r_temp branch).

#include "util/stats.hpp"

namespace lotus::core {

struct RewardConfig {
    /// Penalty multiplier p of Eqs. (2)-(3).
    double penalty_p = 5.0;
    /// Temperature weight lambda.
    double lambda_temp = 0.5;
    /// Window n for sigma_n.
    std::size_t sigma_window = 10;
    /// Temperature threshold T_thres [deg C].
    double t_thres_celsius = 80.0;

    bool operator==(const RewardConfig&) const = default;
};

struct RewardBreakdown {
    double r_time = 0.0;
    double r_temp = 0.0;
    double total = 0.0;
    double delta_l_norm = 0.0;
    double sigma_n = 0.0;
};

/// Stateful reward calculator (owns the sigma_n window).
class LotusReward {
public:
    explicit LotusReward(RewardConfig config);

    /// Evaluate the reward for a completed frame and push its DeltaL into
    /// the sigma_n window.
    [[nodiscard]] RewardBreakdown evaluate(double latency_s, double constraint_s,
                                           double cpu_temp, double gpu_temp);

    /// Pure r_time evaluation against an explicit sigma (unit tests).
    [[nodiscard]] double r_time(double delta_l_norm, double sigma_n) const noexcept;
    [[nodiscard]] double r_temp(double cpu_temp, double gpu_temp) const noexcept;

    void reset();

    [[nodiscard]] const RewardConfig& config() const noexcept { return config_; }
    [[nodiscard]] double current_sigma() const noexcept { return window_.stddev(); }

private:
    RewardConfig config_;
    util::WindowedStats window_;
};

} // namespace lotus::core
