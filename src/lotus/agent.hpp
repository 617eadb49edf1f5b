#pragma once
// The LOTUS agent (Sec. 4.3): a DRL governor tailored to two-stage
// detectors.
//
//  * TWO decisions per frame: at frame start (s_2i, width 0.75x -- the
//    proposal count is unknown) and after the RPN (s_2i+1, width 1.0x).
//  * ONE slimmable Q-network shared across both decision kinds, so the two
//    decisions of a frame share parameters and stay correlated
//    (Sec. 4.3.4) -- contrast the two-network ablation below.
//  * TWO experience replay buffers, one per decision kind; TD targets
//    bootstrap across widths (even transitions bootstrap max_a Q at 1.0x,
//    odd transitions at 0.75x).
//  * epsilon_t-greedy cool-down (Sec. 4.3.5): when overheated, a random
//    *lower* frequency pair is forced with probability epsilon_t, which
//    decays sinusoidally per trigger -- early training is protected from
//    thermal runaway, while the converged agent handles hot states itself.
//
// Ablation switches (the ablation_design scenario) expose the design space the
// paper argues about: one decision per frame, two separate Q-networks, and
// zTT's non-decaying cool-down.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "governors/governor.hpp"
#include "lotus/reward.hpp"
#include "lotus/state.hpp"
#include "rl/dqn.hpp"
#include "rl/replay.hpp"
#include "rl/schedule.hpp"
#include "util/rng.hpp"

namespace lotus::core {

/// Which decision points the agent uses (ablation).
enum class DecisionMode {
    both,             // LOTUS: frame start + post-RPN
    frame_start_only, // zTT-style timing (but LOTUS reward/net)
    post_rpn_only,    // stage-2-only scaling
};

struct LotusConfig {
    /// Reduced width alpha of the slimmable Q-network.
    double reduced_width = 0.75;
    std::vector<std::size_t> hidden = {128, 128, 128}; // 4-layer MLP (Sec. 4.4.1)

    double gamma = 0.9;
    std::size_t batch_size = 32;
    std::size_t replay_capacity = 10'000;
    std::size_t min_replay = 64;
    std::size_t target_sync_every = 100;
    rl::AdamConfig adam{.lr = 0.01, .lr_min = 1e-4, .lr_total_steps = 10'000};

    // epsilon-greedy exploration (per decision).
    double eps_start = 1.0;
    double eps_end = 0.02;
    double eps_decay_rate = 0.9991;

    // epsilon_t-greedy cool-down (Sec. 4.3.5).
    double eps_t0 = 1.0;
    double eps_t_floor = 0.05;
    std::size_t eps_t_triggers = 200;

    RewardConfig reward{};
    StateEncoderConfig encoder{};

    /// Per-decision agent communication + Q-network overhead (Sec. 4.4.2:
    /// 8.52 ms per inference across the two decisions).
    double decision_overhead_s = 0.00426;

    bool train_online = true;
    std::uint64_t seed = 7;

    // --- ablation / extension switches ---------------------------------------
    DecisionMode decision_mode = DecisionMode::both;
    /// Use two separate full-width Q-networks instead of one slimmable net.
    bool use_two_networks = false;
    /// Replace epsilon_t decay with zTT's always-random cool-down.
    bool ztt_style_cooldown = false;
    /// Double DQN targets (extension; the paper uses vanilla DQN).
    bool double_dqn = false;
};

class LotusAgent final : public governors::Governor {
public:
    LotusAgent(std::size_t cpu_levels, std::size_t gpu_levels, LotusConfig config);

    [[nodiscard]] std::string name() const override;
    governors::LevelRequest on_frame_start(const governors::Observation& obs) override;
    governors::LevelRequest on_post_rpn(const governors::Observation& obs) override;
    void on_frame_end(const governors::FrameOutcome& outcome) override;
    [[nodiscard]] double decision_overhead_s() const override {
        return config_.decision_overhead_s;
    }

    // --- introspection (tests, benches, examples) ---------------------------
    [[nodiscard]] const LotusConfig& config() const noexcept { return config_; }
    [[nodiscard]] const ActionCodec& codec() const noexcept { return codec_; }
    [[nodiscard]] const rl::DqnCore& even_net() const noexcept { return dqn_even(); }
    [[nodiscard]] const rl::DqnCore& odd_net() const noexcept { return dqn_odd(); }
    [[nodiscard]] const rl::ReplayBuffer& even_buffer() const noexcept { return even_buffer_; }
    [[nodiscard]] const rl::ReplayBuffer& odd_buffer() const noexcept { return odd_buffer_; }
    [[nodiscard]] double epsilon() const noexcept { return eps_.at(decisions_); }
    [[nodiscard]] double epsilon_t() const noexcept { return eps_t_.value(); }
    [[nodiscard]] std::size_t cooldown_activations() const noexcept { return cooldowns_; }
    [[nodiscard]] std::size_t frames_seen() const noexcept { return frames_; }
    [[nodiscard]] std::size_t decisions_made() const noexcept { return decisions_; }
    [[nodiscard]] double last_reward() const noexcept { return last_reward_; }
    /// Mean TD loss over the updates of the most recent train() call that
    /// ran one; empty before a replay buffer first reaches min_replay.
    [[nodiscard]] std::optional<double> last_loss() const noexcept { return last_loss_; }

private:
    struct PendingEven {
        std::vector<double> state;
        int action = 0;
        std::vector<double> next_state; // s_2i+1, filled at post-RPN
        bool has_next = false;
    };
    struct PendingOdd {
        std::vector<double> state;
        int action = 0;
        double reward = 0.0;
        bool reward_ready = false;
    };

    [[nodiscard]] rl::DqnCore& dqn_even() noexcept { return *dqn_; }
    [[nodiscard]] rl::DqnCore& dqn_odd() noexcept {
        return config_.use_two_networks ? *dqn_second_ : *dqn_;
    }
    [[nodiscard]] const rl::DqnCore& dqn_even() const noexcept { return *dqn_; }
    [[nodiscard]] const rl::DqnCore& dqn_odd() const noexcept {
        return config_.use_two_networks ? *dqn_second_ : *dqn_;
    }
    /// Width used to evaluate even states on the even net.
    [[nodiscard]] double even_width() const noexcept {
        return config_.use_two_networks ? 1.0 : config_.reduced_width;
    }

    [[nodiscard]] bool overheated(const governors::Observation& obs) const noexcept;
    [[nodiscard]] int cooldown_action(const governors::Observation& obs);
    [[nodiscard]] int select_action(const std::vector<double>& state, bool odd_step,
                                    const governors::Observation& obs);
    void train();

    LotusConfig config_;
    ActionCodec codec_;
    StateEncoder encoder_;
    LotusReward reward_;

    std::unique_ptr<rl::DqnCore> dqn_;        // slimmable (or even net in 2-net mode)
    std::unique_ptr<rl::DqnCore> dqn_second_; // odd net in 2-net mode only
    rl::ReplayBuffer even_buffer_;
    rl::ReplayBuffer odd_buffer_;
    rl::ReplayBuffer::SampleScratch sample_scratch_;

    rl::ExponentialDecay eps_;
    rl::SinusoidalTriggerDecay eps_t_;
    util::Rng rng_;

    std::optional<PendingEven> pending_even_;
    std::optional<PendingOdd> pending_odd_;
    /// For frame_start_only mode: reward waiting for the next even state.
    std::optional<double> pending_even_reward_;

    std::size_t frames_ = 0;
    std::size_t decisions_ = 0;
    std::size_t cooldowns_ = 0;
    double last_reward_ = 0.0;
    std::optional<double> last_loss_;
};

} // namespace lotus::core
