#pragma once
// zTT baseline (Kim et al., "zTT: Learning-based DVFS with Zero Thermal
// Throttling for Mobile Devices", MobiSys 2021) -- the state-of-the-art
// learning baseline the paper compares against (Sec. 5.1.1).
//
// Faithful structural properties kept here:
//  * joint CPU/GPU action space (M x N), like LOTUS;
//  * ONE decision per frame, taken at frame start -- zTT was designed for
//    per-frame workloads (games, one-stage vision) and cannot react to the
//    proposal count of a two-stage detector (this is precisely the gap
//    LOTUS exploits, Sec. 4.2);
//  * single-width DQN with one experience replay buffer;
//  * a *non-learned* cool-down: when a temperature exceeds the threshold,
//    it always selects a random frequency pair below the current one, so
//    the agent never learns hot-state behaviour (contrast with LOTUS's
//    epsilon_t decay, Sec. 4.3.5);
//  * fps-target utility + temperature-margin reward.

#include <cstdint>
#include <memory>
#include <string>

#include "governors/governor.hpp"
#include "rl/dqn.hpp"
#include "rl/replay.hpp"
#include "rl/schedule.hpp"
#include "util/rng.hpp"

namespace lotus::governors {

struct ZttConfig {
    std::vector<std::size_t> hidden = {64, 64};
    double gamma = 0.9;
    std::size_t batch_size = 32;
    std::size_t replay_capacity = 10'000;
    std::size_t min_replay = 64;
    std::size_t target_sync_every = 100;
    rl::AdamConfig adam{.lr = 0.01, .lr_min = 1e-4, .lr_total_steps = 10'000};

    double eps_start = 1.0;
    /// Converged exploration floor. Kept low: with a 48-64 joint action
    /// space, even a few percent of uniform-random frames dominates the
    /// latency variance a converged policy would otherwise achieve.
    double eps_end = 0.01;
    /// Per-frame multiplicative epsilon decay.
    double eps_decay_rate = 0.998;

    /// Temperature threshold for the cool-down and the reward margin.
    double t_thres_celsius = 80.0;
    /// Weight of the temperature term in the reward.
    double beta_temp = 1.0;

    /// Per-decision agent communication + inference overhead (Sec. 4.4.2).
    double decision_overhead_s = 0.00426;

    bool train_online = true;
    std::uint64_t seed = 11;
};

class ZttGovernor final : public Governor {
public:
    ZttGovernor(std::size_t cpu_levels, std::size_t gpu_levels, ZttConfig config);

    [[nodiscard]] std::string name() const override { return "zTT"; }
    LevelRequest on_frame_start(const Observation& obs) override;
    void on_frame_end(const FrameOutcome& outcome) override;
    [[nodiscard]] double decision_overhead_s() const override {
        return config_.decision_overhead_s;
    }

    /// zTT's published reward: normalized-fps utility (capped, with a bonus
    /// at target) plus a temperature term that is a small positive margin
    /// bonus when cool and a hard penalty on violation.
    [[nodiscard]] double reward(double latency_s, double constraint_s, double cpu_temp,
                                double gpu_temp) const noexcept;

    // Introspection for tests/benches.
    [[nodiscard]] const rl::DqnCore& dqn() const noexcept { return dqn_; }
    [[nodiscard]] double epsilon() const noexcept { return eps_.at(frames_); }
    [[nodiscard]] std::size_t cooldown_activations() const noexcept { return cooldowns_; }
    [[nodiscard]] std::size_t frames_seen() const noexcept { return frames_; }

private:
    [[nodiscard]] std::vector<double> encode(const Observation& obs) const;
    [[nodiscard]] int cooldown_action(std::size_t cpu_level, std::size_t gpu_level);

    ZttConfig config_;
    std::size_t cpu_levels_;
    std::size_t gpu_levels_;
    rl::DqnCore dqn_;
    rl::ReplayBuffer replay_;
    rl::ExponentialDecay eps_;
    util::Rng rng_;

    // Pending transition: state/action taken at the last frame start.
    bool has_pending_ = false;
    std::vector<double> pending_state_;
    int pending_action_ = 0;
    double pending_reward_ = 0.0;
    bool pending_reward_ready_ = false;

    std::size_t frames_ = 0;
    std::size_t cooldowns_ = 0;
};

} // namespace lotus::governors
