#pragma once
// Generic Deep Q-Network core (Mnih et al. 2015) over a slimmable network.
//
// Shared by the zTT baseline (single width, one replay buffer) and the LOTUS
// agent (two widths, two replay buffers). The core provides epsilon-greedy
// acting at a given width and batched TD(0) updates with a periodically
// synchronised target network; transitions carry the widths to use for the
// online evaluation and the bootstrap, implementing the paper's cross-width
// targets (even step bootstraps at 1.0x, odd step at 0.75x).
//
// Between two target syncs max_a Q_target(s', a) at width_next is a pure
// function of the transition, so vanilla DQN memoizes it in the Transition
// (see Transition::bootstrap) tagged with the target network's version. A
// version is drawn from a process-wide counter at construction and at every
// sync_target(), so it names one target-network state across all cores: a
// transition sampled by another core, or by a core rebuilt at the same
// address, never matches. Reuse is bit-identical to recomputing, because each
// forward_batch row is its own reduction chain whatever the batch holds.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "rl/mlp.hpp"
#include "rl/optimizer.hpp"
#include "rl/replay.hpp"
#include "util/rng.hpp"

namespace lotus::rl {

struct DqnConfig {
    double gamma = 0.9;
    std::size_t batch_size = 32;
    /// Hard-sync the target network every this many optimizer steps.
    std::size_t target_sync_every = 100;
    /// Huber (smooth-L1) transition point.
    double huber_delta = 1.0;
    /// Double DQN (van Hasselt et al. 2016): the online network selects the
    /// bootstrap action, the target network evaluates it. Off by default --
    /// the paper uses the vanilla DQN of Mnih et al. 2015 -- but exposed as
    /// an extension (see the ablation_design scenario).
    bool double_dqn = false;
    AdamConfig adam;
};

class DqnCore {
public:
    /// Throws std::invalid_argument when config.batch_size is 0.
    DqnCore(MlpConfig net_config, DqnConfig config);

    /// Greedy action at the given width: argmax_a Q(s, a).
    [[nodiscard]] int greedy_action(std::span<const double> state, double width) const;

    /// Epsilon-greedy action.
    [[nodiscard]] int act(std::span<const double> state, double width, double epsilon,
                          util::Rng& rng) const;

    /// Q-values of the online network (full action dimension).
    [[nodiscard]] std::vector<double> q_values(std::span<const double> state,
                                               double width) const;

    /// Allocation-free Q-values: writes into `out` (size = output_dim).
    void q_values(std::span<const double> state, double width,
                  std::span<double> out) const;

    /// One batched TD update from the given buffer. Returns the mean Huber
    /// loss, or a negative value when the buffer held fewer than
    /// max(min_buffer, 1) transitions (no update performed).
    double train_step(const ReplayBuffer& buffer, util::Rng& rng,
                      std::size_t min_buffer = 1);

    /// TD update over an explicit batch (used by LOTUS to alternate buffers).
    /// Returns -1 for an empty batch (no update performed). The transitions'
    /// bootstrap memos are read and written.
    double train_batch(std::span<const Transition* const> batch);

    void sync_target();

    [[nodiscard]] const SlimmableMlp& online() const noexcept { return online_; }
    [[nodiscard]] SlimmableMlp& online() noexcept { return online_; }
    [[nodiscard]] const SlimmableMlp& target() const noexcept { return target_; }
    [[nodiscard]] std::size_t updates() const noexcept { return updates_; }
    [[nodiscard]] const DqnConfig& config() const noexcept { return config_; }

private:
    // Forward + backward for one minibatch into online_'s gradients;
    // returns the mean Huber loss. train_batch() then runs Adam.
    double accumulate_grads(std::span<const Transition* const> batch);

    DqnConfig config_;
    SlimmableMlp online_;
    SlimmableMlp target_;
    Adam optimizer_;
    std::size_t updates_ = 0;
    /// Version of target_'s current parameters (never 0; see the header
    /// comment).
    std::uint64_t target_version_ = 0;

    // Scratch reused across calls to keep the hot path allocation-free once
    // warm. A DqnCore is owned by one governor and each harness episode owns
    // its governor (thread-per-episode, never shared), so mutable scratch
    // behind the const acting API is safe.
    mutable MlpScratch act_scratch_;
    mutable std::vector<double> act_q_;
    struct TrainScratch {
        ReplayBuffer::SampleScratch sample; ///< train_step's minibatch
        Matrix x;                           ///< packed states of one width group
        BatchCache net_cache;               ///< target / double-DQN bootstrap pass
        BatchCache select_cache;            ///< online a*-selection pass (double DQN)
        std::vector<BatchCache> online_caches; ///< one per distinct width_state
        std::vector<double> bootstrap;      ///< per batch index
        std::vector<double> widths;         ///< distinct widths, first-seen order
        std::vector<std::size_t> members;   ///< member indices of current group
        std::vector<std::size_t> group_of;  ///< batch index -> width-group index
        std::vector<BatchSample> samples;   ///< batch index -> its online activations
        Matrix dout;                        ///< batch x output_dim loss gradients
        BackwardScratch backward;
    };
    TrainScratch train_;
};

} // namespace lotus::rl
