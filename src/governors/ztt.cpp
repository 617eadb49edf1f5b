#include "governors/ztt.hpp"

#include <algorithm>

namespace lotus::governors {

namespace {

rl::MlpConfig make_net_config(std::size_t inputs, std::size_t actions, const ZttConfig& cfg) {
    rl::MlpConfig net;
    net.dims.push_back(inputs);
    for (const auto h : cfg.hidden) net.dims.push_back(h);
    net.dims.push_back(actions);
    net.slim_input = false; // zTT has no slimmable design
    net.slim_output = false;
    net.seed = cfg.seed;
    return net;
}

rl::DqnConfig make_dqn_config(const ZttConfig& cfg) {
    rl::DqnConfig dqn;
    dqn.gamma = cfg.gamma;
    dqn.batch_size = cfg.batch_size;
    dqn.target_sync_every = cfg.target_sync_every;
    dqn.adam = cfg.adam;
    return dqn;
}

} // namespace

ZttGovernor::ZttGovernor(std::size_t cpu_levels, std::size_t gpu_levels, ZttConfig config)
    : config_(config),
      cpu_levels_(cpu_levels),
      gpu_levels_(gpu_levels),
      dqn_(make_net_config(6, cpu_levels * gpu_levels, config), make_dqn_config(config)),
      replay_(config.replay_capacity),
      eps_(config.eps_start, config.eps_end, config.eps_decay_rate),
      rng_(config.seed ^ 0x5A5A5A5AULL) {}

std::vector<double> ZttGovernor::encode(const Observation& obs) const {
    const double fps = obs.last_frame_latency_s > 0.0 ? 1.0 / obs.last_frame_latency_s : 0.0;
    const double target_fps = 1.0 / obs.latency_constraint_s;
    // Temperatures relative to the threshold (same rationale as LOTUS's
    // encoder: keeps the decision band equally resolved across devices).
    return {
        static_cast<double>(obs.cpu_level) / static_cast<double>(cpu_levels_ - 1),
        static_cast<double>(obs.gpu_level) / static_cast<double>(gpu_levels_ - 1),
        (obs.cpu_temp - config_.t_thres_celsius) / 15.0,
        (obs.gpu_temp - config_.t_thres_celsius) / 15.0,
        std::min(fps / target_fps, 2.0),
        obs.throttled ? 1.0 : 0.0,
    };
}

int ZttGovernor::cooldown_action(std::size_t cpu_level, std::size_t gpu_level) {
    // zTT's cool-down: a random frequency pair strictly below the current
    // one (component-wise where possible).
    const auto lower = [&](std::size_t level) {
        if (level == 0) return std::size_t{0};
        return static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(level) - 1));
    };
    const auto cpu = lower(cpu_level);
    const auto gpu = lower(gpu_level);
    return static_cast<int>(cpu * gpu_levels_ + gpu);
}

LevelRequest ZttGovernor::on_frame_start(const Observation& obs) {
    const auto state = encode(obs);

    // Finalize the previous frame's transition now that its successor state
    // is observed.
    if (has_pending_ && pending_reward_ready_) {
        rl::Transition t;
        t.state = pending_state_;
        t.action = pending_action_;
        t.reward = pending_reward_;
        t.next_state = state;
        t.width_state = 1.0;
        t.width_next = 1.0;
        replay_.push(std::move(t));
        has_pending_ = false;
        pending_reward_ready_ = false;
    }

    int action = 0;
    const bool overheated =
        obs.cpu_temp > config_.t_thres_celsius || obs.gpu_temp > config_.t_thres_celsius;
    if (overheated) {
        // Non-learned cool-down: always random-lower when hot.
        action = cooldown_action(obs.cpu_level, obs.gpu_level);
        ++cooldowns_;
    } else {
        action = dqn_.act(state, 1.0, epsilon(), rng_);
    }

    pending_state_ = state;
    pending_action_ = action;
    has_pending_ = true;

    const auto cpu = static_cast<std::size_t>(action) / gpu_levels_;
    const auto gpu = static_cast<std::size_t>(action) % gpu_levels_;
    return LevelRequest::set(cpu, gpu);
}

double ZttGovernor::reward(double latency_s, double constraint_s, double cpu_temp,
                           double gpu_temp) const noexcept {
    const double fps = latency_s > 0.0 ? 1.0 / latency_s : 0.0;
    const double target_fps = 1.0 / constraint_s;
    // QoE utility: linear up to the target, a bonus for meeting it, and a
    // mildly increasing return for headroom beyond it (capped at +30%).
    double utility = std::min(fps / target_fps, 1.3);
    if (fps >= target_fps) utility += 0.3;

    double temp_term = 0.0;
    const double margin =
        std::min(config_.t_thres_celsius - cpu_temp, config_.t_thres_celsius - gpu_temp);
    if (margin >= 0.0) {
        temp_term = 0.1 * std::min(margin, 10.0) / 10.0;
    } else {
        temp_term = -2.0;
    }
    return utility + config_.beta_temp * temp_term;
}

void ZttGovernor::on_frame_end(const FrameOutcome& outcome) {
    ++frames_;
    if (!has_pending_) return;
    pending_reward_ =
        reward(outcome.latency_s, outcome.latency_constraint_s, outcome.cpu_temp,
               outcome.gpu_temp);
    pending_reward_ready_ = true;

    if (config_.train_online) {
        dqn_.train_step(replay_, rng_, config_.min_replay);
    }
}

} // namespace lotus::governors
