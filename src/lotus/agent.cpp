#include "lotus/agent.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/recorder.hpp"

namespace lotus::core {

namespace {

rl::MlpConfig make_net_config(const LotusConfig& cfg, std::size_t actions, bool slimmable,
                              std::uint64_t seed) {
    rl::MlpConfig net;
    net.dims.push_back(kStateDim);
    for (const auto h : cfg.hidden) net.dims.push_back(h);
    net.dims.push_back(actions);
    net.slim_input = slimmable;   // width slicing drops the proposal input
    net.slim_output = false;      // all M*N actions scored at every width
    net.seed = seed;
    return net;
}

rl::DqnConfig make_dqn_config(const LotusConfig& cfg) {
    rl::DqnConfig dqn;
    dqn.gamma = cfg.gamma;
    dqn.batch_size = cfg.batch_size;
    dqn.target_sync_every = cfg.target_sync_every;
    dqn.double_dqn = cfg.double_dqn;
    dqn.adam = cfg.adam;
    return dqn;
}

} // namespace

namespace {

LotusConfig resolve_config(LotusConfig config) {
    // Temperature features are encoded relative to the thermal threshold;
    // wire the reward's T_thres through unless the user pinned a reference.
    if (config.encoder.temp_ref_celsius == 0.0) {
        config.encoder.temp_ref_celsius = config.reward.t_thres_celsius;
    }
    return config;
}

} // namespace

LotusAgent::LotusAgent(std::size_t cpu_levels, std::size_t gpu_levels, LotusConfig config)
    : config_(resolve_config(std::move(config))),
      codec_(cpu_levels, gpu_levels),
      encoder_(cpu_levels, gpu_levels, config_.encoder),
      reward_(config_.reward),
      even_buffer_(config_.replay_capacity),
      odd_buffer_(config_.replay_capacity),
      eps_(config_.eps_start, config_.eps_end, config_.eps_decay_rate),
      eps_t_(config_.eps_t0, config_.eps_t_floor, config_.eps_t_triggers),
      rng_(config_.seed ^ 0xC0FFEEULL) {
    if (config_.reduced_width <= 0.0 || config_.reduced_width > 1.0) {
        throw std::invalid_argument("LotusAgent: reduced_width out of (0,1]");
    }
    const auto actions = codec_.num_actions();
    dqn_ = std::make_unique<rl::DqnCore>(
        make_net_config(config_, actions, /*slimmable=*/!config_.use_two_networks,
                        config_.seed),
        make_dqn_config(config_));
    if (config_.use_two_networks) {
        dqn_second_ = std::make_unique<rl::DqnCore>(
            make_net_config(config_, actions, /*slimmable=*/false, config_.seed + 1),
            make_dqn_config(config_));
    }
}

std::string LotusAgent::name() const {
    switch (config_.decision_mode) {
        case DecisionMode::frame_start_only: return "Lotus(frame-start-only)";
        case DecisionMode::post_rpn_only: return "Lotus(post-rpn-only)";
        case DecisionMode::both: break;
    }
    if (config_.use_two_networks) return "Lotus(two-networks)";
    if (config_.ztt_style_cooldown) return "Lotus(ztt-cooldown)";
    return "Lotus";
}

bool LotusAgent::overheated(const governors::Observation& obs) const noexcept {
    return obs.cpu_temp > config_.reward.t_thres_celsius ||
           obs.gpu_temp > config_.reward.t_thres_celsius;
}

int LotusAgent::cooldown_action(const governors::Observation& obs) {
    // Random frequency pair strictly below the current setting (component-
    // wise where possible) -- shared shape with zTT's cool-down; what
    // differs is *when* it fires (probability epsilon_t vs always).
    const auto lower = [&](std::size_t level) {
        if (level == 0) return std::size_t{0};
        return static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(level) - 1));
    };
    return codec_.encode(lower(obs.cpu_level), lower(obs.gpu_level));
}

int LotusAgent::select_action(const std::vector<double>& state, bool odd_step,
                              const governors::Observation& obs) {
    ++decisions_;
    if (overheated(obs)) {
        const double p = config_.ztt_style_cooldown ? 1.0 : eps_t_.value();
        if (rng_.bernoulli(p)) {
            if (!config_.ztt_style_cooldown) eps_t_.trigger();
            ++cooldowns_;
            return cooldown_action(obs);
        }
        // Learned hot-state behaviour: greedy selection (Sec. 4.3.5
        // "Otherwise, the action is selected according to the output of the
        // Q-network").
        auto& net = odd_step ? dqn_odd() : dqn_even();
        return net.greedy_action(state, odd_step ? 1.0 : even_width());
    }
    auto& net = odd_step ? dqn_odd() : dqn_even();
    return net.act(state, odd_step ? 1.0 : even_width(), epsilon(), rng_);
}

governors::LevelRequest LotusAgent::on_frame_start(const governors::Observation& obs) {
    const auto s_even = encoder_.encode_even(obs);

    // Complete the previous odd transition <s_2i-1, a, r, s_2i> now that the
    // successor even state is observed.
    if (pending_odd_ && pending_odd_->reward_ready) {
        rl::Transition t;
        t.state = pending_odd_->state;
        t.action = pending_odd_->action;
        t.reward = pending_odd_->reward;
        t.next_state = s_even;
        t.width_state = 1.0;
        t.width_next = even_width();
        odd_buffer_.push(std::move(t));
        pending_odd_.reset();
    }
    // frame_start_only mode chains even -> even transitions across frames.
    if (config_.decision_mode == DecisionMode::frame_start_only && pending_even_ &&
        pending_even_reward_) {
        rl::Transition t;
        t.state = pending_even_->state;
        t.action = pending_even_->action;
        t.reward = *pending_even_reward_;
        t.next_state = s_even;
        t.width_state = even_width();
        t.width_next = even_width();
        even_buffer_.push(std::move(t));
        pending_even_.reset();
        pending_even_reward_.reset();
    }

    if (config_.decision_mode == DecisionMode::post_rpn_only) {
        return governors::LevelRequest::none();
    }

    const int action = select_action(s_even, /*odd_step=*/false, obs);
    pending_even_ = PendingEven{.state = s_even, .action = action, .next_state = {}, .has_next = false};

    const auto [cpu, gpu] = codec_.decode(action);
    return governors::LevelRequest::set(cpu, gpu);
}

governors::LevelRequest LotusAgent::on_post_rpn(const governors::Observation& obs) {
    if (config_.decision_mode == DecisionMode::frame_start_only) {
        return governors::LevelRequest::none();
    }

    const auto s_odd = encoder_.encode_odd(obs);

    if (config_.decision_mode == DecisionMode::post_rpn_only) {
        // Chain odd -> odd transitions across frames.
        if (pending_odd_ && pending_odd_->reward_ready) {
            rl::Transition t;
            t.state = pending_odd_->state;
            t.action = pending_odd_->action;
            t.reward = pending_odd_->reward;
            t.next_state = s_odd;
            t.width_state = 1.0;
            t.width_next = 1.0;
            odd_buffer_.push(std::move(t));
            pending_odd_.reset();
        }
    } else if (pending_even_) {
        // The even transition's successor state is this odd state; the
        // reward arrives at frame end.
        pending_even_->next_state = s_odd;
        pending_even_->has_next = true;
    }

    const int action = select_action(s_odd, /*odd_step=*/true, obs);
    pending_odd_ =
        PendingOdd{.state = s_odd, .action = action, .reward = 0.0, .reward_ready = false};

    const auto [cpu, gpu] = codec_.decode(action);
    return governors::LevelRequest::set(cpu, gpu);
}

void LotusAgent::on_frame_end(const governors::FrameOutcome& outcome) {
    ++frames_;
    const auto rb = reward_.evaluate(outcome.latency_s, outcome.latency_constraint_s,
                                     outcome.cpu_temp, outcome.gpu_temp);
    last_reward_ = rb.total;

    if (pending_even_) {
        if (config_.decision_mode == DecisionMode::frame_start_only) {
            pending_even_reward_ = rb.total;
        } else if (pending_even_->has_next) {
            rl::Transition t;
            t.state = pending_even_->state;
            t.action = pending_even_->action;
            t.reward = rb.total;
            t.next_state = pending_even_->next_state;
            t.width_state = even_width();
            t.width_next = 1.0;
            even_buffer_.push(std::move(t));
            pending_even_.reset();
        } else {
            // One-stage detector (no post-RPN point): drop the transition.
            pending_even_.reset();
        }
    }
    if (pending_odd_) {
        pending_odd_->reward = rb.total;
        pending_odd_->reward_ready = true;
    }

    if (config_.train_online) train();

    if (auto* tel = telemetry::current()) {
        // Learning-state counters under the owning device's process (the
        // engine set the context before delivering this outcome).
        const int track = tel->context_track("rl");
        tel->counter(track, "reward", outcome.now_s, rb.total);
        tel->counter(track, "epsilon", outcome.now_s, epsilon());
        tel->counter(track, "replay_size", outcome.now_s,
                     static_cast<double>(even_buffer_.size() + odd_buffer_.size()));
        if (last_loss_) tel->counter(track, "loss", outcome.now_s, *last_loss_);
    }
}

void LotusAgent::train() {
    // One batched TD update per buffer per frame: even transitions update
    // the reduced-width slice, odd transitions the full width (Sec. 4.3.4
    // "at time step 2i, the sampled transitions are used to update the
    // Q-network with alpha-x width, while the remaining weights are not
    // updated").
    //
    // The max(min_replay, 1) guard of DqnCore::train_step: every
    // train_batch below updates, so only real losses enter the mean.
    const std::size_t min_replay = std::max<std::size_t>(config_.min_replay, 1);
    double loss_sum = 0.0;
    int updates = 0;
    if (even_buffer_.size() >= min_replay) {
        loss_sum += dqn_even().train_batch(
            even_buffer_.sample(rng_, config_.batch_size, sample_scratch_));
        ++updates;
    }
    if (odd_buffer_.size() >= min_replay) {
        loss_sum += dqn_odd().train_batch(
            odd_buffer_.sample(rng_, config_.batch_size, sample_scratch_));
        ++updates;
    }
    if (updates > 0) last_loss_ = loss_sum / updates;
}

} // namespace lotus::core
