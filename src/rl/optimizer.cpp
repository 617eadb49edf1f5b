#include "rl/optimizer.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace lotus::rl {

CosineLrSchedule::CosineLrSchedule(double lr0, double lr_min, std::size_t total_steps)
    : lr0_(lr0), lr_min_(lr_min), total_steps_(total_steps) {
    if (lr0 <= 0.0 || lr_min < 0.0 || lr_min > lr0) {
        throw std::invalid_argument("CosineLrSchedule: bad rates");
    }
    if (total_steps == 0) throw std::invalid_argument("CosineLrSchedule: zero steps");
}

double CosineLrSchedule::at(std::size_t step) const noexcept {
    const double t = std::min(static_cast<double>(step), static_cast<double>(total_steps_));
    const double frac = t / static_cast<double>(total_steps_);
    return lr_min_ + 0.5 * (lr0_ - lr_min_) * (1.0 + std::cos(std::numbers::pi * frac));
}

Adam::Adam(const SlimmableMlp& net, AdamConfig config)
    : config_(config), lr_(config.lr, config.lr_min, config.lr_total_steps) {
    moments_.reserve(net.layers().size());
    for (const auto& layer : net.layers()) {
        Moments m;
        m.m_w.assign(layer.weights().size(), 0.0);
        m.v_w.assign(layer.weights().size(), 0.0);
        m.m_b.assign(layer.bias().size(), 0.0);
        m.v_b.assign(layer.bias().size(), 0.0);
        moments_.push_back(std::move(m));
    }
}

double Adam::step(SlimmableMlp& net) {
    if (net.layers().size() != moments_.size()) {
        throw std::invalid_argument("Adam::step: network topology changed");
    }

    // Optional global-norm gradient clipping over touched entries: one
    // sequential sum in flat order (each layer's weights, then its biases).
    double scale = 1.0;
    if (config_.grad_clip > 0.0) {
        double sq = 0.0;
        for (auto& layer : net.layers()) {
            const auto marked = layer.marked_cols();
            const auto& gw = layer.grad_weights();
            for (std::size_t r = 0; r < marked.size(); ++r) {
                const double* g = gw.row(r).data();
                for (std::size_t c = 0; c < marked[r]; ++c) sq += g[c] * g[c];
            }
            const auto gb = layer.grad_bias();
            for (std::size_t r = 0; r < marked.size(); ++r) {
                if (marked[r] > 0) sq += gb[r] * gb[r];
            }
        }
        const double norm = std::sqrt(sq);
        if (norm > config_.grad_clip) scale = config_.grad_clip / norm;
    }

    ++t_;
    const double lr = lr_.at(t_);
    const double bc1 = 1.0 - std::pow(config_.beta1, static_cast<double>(t_));
    const double bc2 = 1.0 - std::pow(config_.beta2, static_cast<double>(t_));
    const double beta1 = config_.beta1;
    const double beta2 = config_.beta2;
    const double eps = config_.epsilon;

    // Elementwise update of the touched spans only: untouched parameters and
    // moments keep their exact values. Each span is branch-free, so the
    // compiler can vectorize it without changing any result.
    const auto update = [&](double* __restrict p, const double* __restrict g,
                            double* __restrict m, double* __restrict v, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            const double gi = g[i] * scale;
            m[i] = beta1 * m[i] + (1.0 - beta1) * gi;
            v[i] = beta2 * v[i] + (1.0 - beta2) * gi * gi;
            const double mhat = m[i] / bc1;
            const double vhat = v[i] / bc2;
            p[i] -= lr * mhat / (std::sqrt(vhat) + eps);
        }
    };

    for (std::size_t li = 0; li < net.layers().size(); ++li) {
        auto& layer = net.layers()[li];
        auto& mom = moments_[li];
        const auto marked = layer.marked_cols();
        const std::size_t cols = layer.in_features();
        double* w = layer.weights().flat().data();
        const double* gw = layer.grad_weights().flat().data();
        for (std::size_t r = 0; r < marked.size(); ++r) {
            const std::size_t o = r * cols;
            update(w + o, gw + o, mom.m_w.data() + o, mom.v_w.data() + o, marked[r]);
        }
        auto b = layer.bias();
        const auto gb = layer.grad_bias();
        for (std::size_t r = 0; r < marked.size(); ++r) {
            if (marked[r] > 0) update(&b[r], &gb[r], &mom.m_b[r], &mom.v_b[r], 1);
        }
    }

    net.zero_grad();
    return lr;
}

} // namespace lotus::rl
