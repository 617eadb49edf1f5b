#pragma once
// LOTUS state encoding and action codec (Secs. 4.3.1-4.3.2).
//
// State s_2i   (frame start):  {S, T_cpu, T_gpu, f_cpu, f_gpu, DeltaL}
// State s_2i+1 (post-RPN):     {S, T_cpu, T_gpu, f_cpu, f_gpu, DeltaL, P}
//
// Both are materialised as 7-element vectors with the proposal count in the
// LAST slot: running the slimmable Q-network at width 0.75 activates
// ceil(0.75 * 7) = 6 input units, which drops exactly the proposal feature
// -- the design observation of Sec. 4.3.4.
//
// DeltaL semantics (the paper leaves the frame-start instance implicit, so
// the frame-start definition below is this reproduction's choice):
//   * frame start: DeltaL = L - l_{i-1}   (slack achieved on the previous
//     frame -- the natural "how are we doing" signal available then);
//   * post-RPN:    DeltaL = L - elapsed_i (budget remaining for stage 2).
// Both are normalised by L.

#include <cstddef>
#include <vector>

#include "governors/governor.hpp"

namespace lotus::core {

inline constexpr std::size_t kStateDim = 7;
inline constexpr std::size_t kEvenStateFeatures = 6; // what width 0.75 reads

/// Joint CPU/GPU action codec: a = cpu_level * N_gpu + gpu_level.
class ActionCodec {
public:
    ActionCodec(std::size_t cpu_levels, std::size_t gpu_levels);

    [[nodiscard]] std::size_t num_actions() const noexcept { return cpu_levels_ * gpu_levels_; }
    [[nodiscard]] std::size_t cpu_levels() const noexcept { return cpu_levels_; }
    [[nodiscard]] std::size_t gpu_levels() const noexcept { return gpu_levels_; }

    [[nodiscard]] int encode(std::size_t cpu_level, std::size_t gpu_level) const;
    [[nodiscard]] std::pair<std::size_t, std::size_t> decode(int action) const;

private:
    std::size_t cpu_levels_;
    std::size_t gpu_levels_;
};

struct StateEncoderConfig {
    /// Normalisation constant for the proposal count.
    double proposal_norm = 650.0;
    /// DeltaL / L is clamped to +- this bound before entering the network.
    double delta_l_clamp = 2.0;
    /// Temperatures are encoded relative to the thermal threshold:
    /// (T - temp_ref) / temp_scale. This keeps the decision-relevant band
    /// around T_thres equally resolved on a Jetson (55-85 C envelope) and a
    /// phone (28-43 C skin envelope); a fixed /100 normalisation would
    /// compress the phone's entire usable band into a few percent of input
    /// range. 0 means "taken from the reward threshold" (set by the agent).
    double temp_ref_celsius = 0.0;
    double temp_scale_k = 15.0;

    bool operator==(const StateEncoderConfig&) const = default;
};

/// Normalising encoder from engine observations to network inputs.
class StateEncoder {
public:
    StateEncoder(std::size_t cpu_levels, std::size_t gpu_levels,
                 StateEncoderConfig config = {});

    /// Frame-start state s_2i; `prev_latency_s` may be 0 before any frame.
    [[nodiscard]] std::vector<double> encode_even(const governors::Observation& obs) const;

    /// Post-RPN state s_2i+1.
    [[nodiscard]] std::vector<double> encode_odd(const governors::Observation& obs) const;

    [[nodiscard]] const StateEncoderConfig& config() const noexcept { return config_; }

private:
    [[nodiscard]] double norm_delta_l(double delta_l_s, double constraint_s) const noexcept;
    [[nodiscard]] double norm_temp(double t_celsius) const noexcept;

    std::size_t cpu_levels_;
    std::size_t gpu_levels_;
    StateEncoderConfig config_;
};

} // namespace lotus::core
