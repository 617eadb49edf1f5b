#include "rl/dqn.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "prof/profiler.hpp"

namespace lotus::rl {

namespace {

/// Huber loss value and derivative at residual r = prediction - target.
struct Huber {
    double value;
    double grad;
};

Huber huber(double residual, double delta) noexcept {
    const double a = std::abs(residual);
    if (a <= delta) {
        return {0.5 * residual * residual, residual};
    }
    return {delta * (a - 0.5 * delta), residual > 0 ? delta : -delta};
}

/// A fresh target-network version, unique across every DqnCore in the
/// process. Only compared for equality, so thread interleaving cannot change
/// any result.
std::uint64_t next_target_version() noexcept {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

} // namespace

DqnCore::DqnCore(MlpConfig net_config, DqnConfig config)
    : config_(config),
      online_(net_config),
      target_(std::move(net_config)),
      optimizer_(online_, config.adam) {
    if (config_.batch_size == 0) throw std::invalid_argument("DqnCore: zero batch_size");
    sync_target();
}

int DqnCore::greedy_action(std::span<const double> state, double width) const {
    LOTUS_PROF_SCOPE("rl.act");
    act_q_.assign(online_.output_dim(), 0.0);
    online_.forward(state, width, act_q_, act_scratch_);
    const auto it = std::max_element(act_q_.begin(), act_q_.end());
    return static_cast<int>(std::distance(act_q_.begin(), it));
}

int DqnCore::act(std::span<const double> state, double width, double epsilon,
                 util::Rng& rng) const {
    if (rng.bernoulli(epsilon)) {
        return static_cast<int>(
            rng.uniform_int(0, static_cast<std::int64_t>(online_.output_dim()) - 1));
    }
    return greedy_action(state, width);
}

std::vector<double> DqnCore::q_values(std::span<const double> state, double width) const {
    std::vector<double> q(online_.output_dim(), 0.0);
    q_values(state, width, q);
    return q;
}

void DqnCore::q_values(std::span<const double> state, double width,
                       std::span<double> out) const {
    online_.forward(state, width, out, act_scratch_);
}

double DqnCore::train_step(const ReplayBuffer& buffer, util::Rng& rng,
                           std::size_t min_buffer) {
    if (buffer.size() < std::max<std::size_t>(min_buffer, 1)) return -1.0;
    return train_batch(buffer.sample(rng, config_.batch_size, train_.sample));
}

double DqnCore::train_batch(std::span<const Transition* const> batch) {
    if (batch.empty()) return -1.0;
    LOTUS_PROF_SCOPE("rl.train_batch");
    LOTUS_PROF_COUNT("rl.train_steps", 1);
    const double loss = accumulate_grads(batch);
    {
        LOTUS_PROF_SCOPE("rl.train.adam");
        optimizer_.step(online_);
    }
    ++updates_;
    if (config_.target_sync_every > 0 && updates_ % config_.target_sync_every == 0) {
        sync_target();
    }
    return loss;
}

// The minibatch is partitioned by width (transitions carry per-step widths,
// alternating 0.75x/1.0x under LOTUS); each width group's target-net
// bootstrap, double-DQN a* selection and online forward is one
// sample-vectorized Matrix::slice_matmul pass per layer. The loss and one
// backward_batch then walk the samples in the ORIGINAL batch order, so the
// result depends on that order only, never on the width grouping (pinned by
// tests/rl/test_batched_forward.cpp).
double DqnCore::accumulate_grads(std::span<const Transition* const> batch) {
    const std::size_t n = batch.size();
    const double inv_n = 1.0 / static_cast<double>(n);
    auto& ts = train_;

    // Bootstrap values: memo hits are read back; the misses run one batched
    // target (and, for double DQN, online selection) pass per distinct
    // width_next over non-terminal transitions. Double DQN never memoizes:
    // its a* comes from the online network, which changes every step.
    {
        LOTUS_PROF_SCOPE("rl.train.bootstrap_fwd");
        const auto memoized = [&](const Transition& t) {
            return !config_.double_dqn && t.bootstrap_version == target_version_;
        };
        std::uint64_t rows = 0;
        std::uint64_t hits = 0;
        ts.bootstrap.assign(n, 0.0);
        ts.widths.clear();
        for (std::size_t i = 0; i < n; ++i) {
            const Transition& t = *batch[i];
            if (t.terminal) continue;
            ++rows;
            if (memoized(t)) {
                ts.bootstrap[i] = t.bootstrap;
                ++hits;
                continue;
            }
            if (std::find(ts.widths.begin(), ts.widths.end(), t.width_next) == ts.widths.end()) {
                ts.widths.push_back(t.width_next);
            }
        }
        LOTUS_PROF_COUNT("rl.bootstrap_rows", rows);
        LOTUS_PROF_COUNT("rl.bootstrap_memo_hits", hits);
        for (const double w : ts.widths) {
            ts.members.clear();
            for (std::size_t i = 0; i < n; ++i) {
                const Transition& t = *batch[i];
                if (!t.terminal && t.width_next == w && !memoized(t)) ts.members.push_back(i);
            }
            const std::size_t m = ts.members.size();
            const std::size_t in0 = target_.active_units(0, w);
            ts.x.resize(m, in0);
            for (std::size_t row = 0; row < m; ++row) {
                const auto& s = batch[ts.members[row]]->next_state;
                if (s.size() < in0) {
                    throw std::invalid_argument("DqnCore: next_state too short for width");
                }
                std::copy(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(in0),
                          ts.x.row(row).begin());
            }
            target_.forward_batch(ts.x, m, w, ts.net_cache);
            if (config_.double_dqn) {
                online_.forward_batch(ts.x, m, w, ts.select_cache);
                for (std::size_t row = 0; row < m; ++row) {
                    const auto qo = ts.select_cache.output.row(row);
                    const auto a_star = static_cast<std::size_t>(
                        std::distance(qo.begin(), std::max_element(qo.begin(), qo.end())));
                    ts.bootstrap[ts.members[row]] = ts.net_cache.output(row, a_star);
                }
            } else {
                for (std::size_t row = 0; row < m; ++row) {
                    const auto qn = ts.net_cache.output.row(row);
                    const Transition& t = *batch[ts.members[row]];
                    t.bootstrap = *std::max_element(qn.begin(), qn.end());
                    t.bootstrap_version = target_version_;
                    ts.bootstrap[ts.members[row]] = t.bootstrap;
                }
            }
        }
    }

    // Online forwards on the current states, grouped by width_state; each
    // group keeps its own cache, and samples[i] records where sample i's
    // activations live so the backward below can walk the original order.
    {
        LOTUS_PROF_SCOPE("rl.train.online_fwd");
        ts.widths.clear();
        ts.group_of.assign(n, 0);
        for (std::size_t i = 0; i < n; ++i) {
            const double w = batch[i]->width_state;
            const auto it = std::find(ts.widths.begin(), ts.widths.end(), w);
            if (it == ts.widths.end()) {
                ts.group_of[i] = ts.widths.size();
                ts.widths.push_back(w);
            } else {
                ts.group_of[i] =
                    static_cast<std::size_t>(std::distance(ts.widths.begin(), it));
            }
        }
        if (ts.online_caches.size() < ts.widths.size()) {
            ts.online_caches.resize(ts.widths.size());
        }
        ts.samples.resize(n);
        for (std::size_t g = 0; g < ts.widths.size(); ++g) {
            const double w = ts.widths[g];
            ts.members.clear();
            for (std::size_t i = 0; i < n; ++i) {
                if (ts.group_of[i] == g) {
                    ts.samples[i] = {&ts.online_caches[g], ts.members.size()};
                    ts.members.push_back(i);
                }
            }
            const std::size_t m = ts.members.size();
            const std::size_t in0 = online_.active_units(0, w);
            ts.x.resize(m, in0);
            for (std::size_t row = 0; row < m; ++row) {
                const auto& s = batch[ts.members[row]]->state;
                if (s.size() < in0) {
                    throw std::invalid_argument("DqnCore: state too short for width");
                }
                std::copy(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(in0),
                          ts.x.row(row).begin());
            }
            online_.forward_batch(ts.x, m, w, ts.online_caches[g]);
        }
    }

    // Loss and one batched backward in the original batch order (bit-exact
    // accumulation order).
    LOTUS_PROF_SCOPE("rl.train.backward");
    double loss_acc = 0.0;
    ts.dout.resize(n, online_.output_dim(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const Transition* t = batch[i];
        const double target_q = t->reward + config_.gamma * ts.bootstrap[i];
        const auto a = static_cast<std::size_t>(t->action);
        if (a >= online_.output_dim()) {
            throw std::out_of_range("DqnCore: action index out of range");
        }
        const auto& sample = ts.samples[i];
        const auto [value, grad] = huber(sample.cache->output(sample.column, a) - target_q,
                                         config_.huber_delta);
        loss_acc += value;
        ts.dout(i, a) = grad * inv_n;
    }
    online_.backward_batch(ts.samples, ts.dout, ts.backward);
    return loss_acc * inv_n;
}

void DqnCore::sync_target() {
    target_.copy_parameters_from(online_);
    target_version_ = next_target_version();
}

} // namespace lotus::rl
