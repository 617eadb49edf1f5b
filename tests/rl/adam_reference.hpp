#pragma once
// The textbook Adam step, kept in test code as the independent reference
// rl::Adam is checked against bit for bit: the global-norm clip from one
// sequential sum of squares in flat order (each layer's touched weights row
// by row, then its touched biases), the update of every touched entry with
// both bias-correction divides, and a full zero_grad() afterwards.

#include <cmath>
#include <cstddef>
#include <vector>

#include "rl/mlp.hpp"
#include "rl/optimizer.hpp"

namespace lotus::rl::test {

class AdamReference {
public:
    AdamReference(const SlimmableMlp& net, AdamConfig config)
        : config_(config), lr_(config.lr, config.lr_min, config.lr_total_steps) {
        for (const auto& layer : net.layers()) {
            moments_.push_back({std::vector<double>(layer.weights().size(), 0.0),
                                std::vector<double>(layer.weights().size(), 0.0),
                                std::vector<double>(layer.bias().size(), 0.0),
                                std::vector<double>(layer.bias().size(), 0.0)});
        }
    }

    /// One update; returns the learning rate used.
    double step(SlimmableMlp& net) {
        double scale = 1.0;
        if (config_.grad_clip > 0.0) {
            double sq = 0.0;
            for (auto& layer : net.layers()) {
                const auto marked = layer.marked_cols();
                for (std::size_t r = 0; r < marked.size(); ++r) {
                    for (std::size_t c = 0; c < marked[r]; ++c) {
                        const double g = layer.grad_weights()(r, c);
                        sq += g * g;
                    }
                }
                for (std::size_t r = 0; r < marked.size(); ++r) {
                    if (marked[r] > 0) sq += layer.grad_bias()[r] * layer.grad_bias()[r];
                }
            }
            const double norm = std::sqrt(sq);
            if (norm > config_.grad_clip) scale = config_.grad_clip / norm;
        }

        ++t_;
        const double lr = lr_.at(t_);
        const double bc1 = 1.0 - std::pow(config_.beta1, static_cast<double>(t_));
        const double bc2 = 1.0 - std::pow(config_.beta2, static_cast<double>(t_));
        const auto update = [&](double& p, double g, double& m, double& v) {
            const double gi = g * scale;
            m = config_.beta1 * m + (1.0 - config_.beta1) * gi;
            v = config_.beta2 * v + (1.0 - config_.beta2) * gi * gi;
            const double mhat = m / bc1;
            const double vhat = v / bc2;
            p -= lr * mhat / (std::sqrt(vhat) + config_.epsilon);
        };
        for (std::size_t li = 0; li < net.layers().size(); ++li) {
            auto& layer = net.layers()[li];
            auto& mom = moments_[li];
            const auto marked = layer.marked_cols();
            const std::size_t cols = layer.in_features();
            for (std::size_t r = 0; r < marked.size(); ++r) {
                for (std::size_t c = 0; c < marked[r]; ++c) {
                    const std::size_t i = r * cols + c;
                    update(layer.weights()(r, c), layer.grad_weights()(r, c), mom.m_w[i],
                           mom.v_w[i]);
                }
            }
            for (std::size_t r = 0; r < marked.size(); ++r) {
                if (marked[r] > 0) {
                    update(layer.bias()[r], layer.grad_bias()[r], mom.m_b[r], mom.v_b[r]);
                }
            }
        }
        net.zero_grad();
        return lr;
    }

private:
    struct Moments {
        std::vector<double> m_w, v_w, m_b, v_b;
    };

    AdamConfig config_;
    CosineLrSchedule lr_;
    std::vector<Moments> moments_;
    std::size_t t_ = 0;
};

} // namespace lotus::rl::test
