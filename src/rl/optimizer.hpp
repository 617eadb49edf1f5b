#pragma once
// Adam optimizer with cosine learning-rate decay (Sec. 4.4.1: Adam with
// beta1 = 0.9, beta2 = 0.99, lr = 0.01 with cosine decay).
//
// The step() honours the per-row touched prefixes produced by the slimmable
// backward pass (SlimmableLinear::marked_cols): untouched parameters keep
// their exact values, as the paper requires for reduced-width updates ("the
// remaining weights are not updated").

#include <cstddef>
#include <vector>

#include "rl/mlp.hpp"

namespace lotus::rl {

/// lr(t) = lr_min + 0.5 (lr0 - lr_min) (1 + cos(pi * t / T)), clamped at T.
class CosineLrSchedule {
public:
    CosineLrSchedule(double lr0, double lr_min, std::size_t total_steps);

    [[nodiscard]] double at(std::size_t step) const noexcept;

    [[nodiscard]] double initial() const noexcept { return lr0_; }
    [[nodiscard]] double floor() const noexcept { return lr_min_; }

private:
    double lr0_;
    double lr_min_;
    std::size_t total_steps_;
};

struct AdamConfig {
    double lr = 0.01;
    double lr_min = 1e-4;
    std::size_t lr_total_steps = 10'000; // paper trains 10,000 iterations
    double beta1 = 0.9;
    double beta2 = 0.99;
    double epsilon = 1e-8;
    /// Global-norm gradient clip; <= 0 disables.
    double grad_clip = 10.0;
};

class Adam {
public:
    /// The optimizer sizes its moment buffers from the network topology.
    Adam(const SlimmableMlp& net, AdamConfig config);

    /// Apply one update using the gradients (and touched prefixes)
    /// accumulated in `net`, then clear them. Returns the learning rate used.
    ///
    /// Bit-identical to the textbook loop: a global-norm clip from one
    /// sequential sum of squares in flat order (each layer's weights, then
    /// its biases), the update m/bc1, v/bc2 of every touched entry, and
    /// zero_grad(). Three exact shortcuts make it cheaper:
    /// - Once bc1 = 1 - beta1^t (or bc2) rounds to exactly 1.0 (t >= 356 for
    ///   beta1 = 0.9, t >= 3725 for beta2 = 0.99), its divide is dropped:
    ///   x / 1.0 == x bit for bit. The test is bc == 1.0 at run time.
    /// - The clip's sequential sum runs only when the clip could fire. A
    ///   pre-check sums the same n squares in 8 lanes. Any summation order
    ///   of n nonnegative terms lies within a relative (n-1)u / (1 - (n-1)u)
    ///   (u = 2^-53) of their exact sum, so the pre-check's sum times
    ///   1 + (3n + 8)u, plus 2^-1000, bounds the sequential one from above
    ///   (the 8u and 2^-1000 cover the bound's own roundings). sqrt is
    ///   correctly rounded and monotone: if the bound's root is <=
    ///   grad_clip, so is the sequential norm's, and the scale stays 1.0.
    ///   Otherwise (a clip that fires, an ambiguous band, NaN or inf) the
    ///   sequential sum runs.
    /// - Each touched gradient is zeroed by the pass that reads it for the
    ///   update, then the touched prefixes are cleared: gradients accumulate
    ///   only inside the touched prefixes, so the rest are already 0.0.
    double step(SlimmableMlp& net);

    [[nodiscard]] std::size_t steps_taken() const noexcept { return t_; }
    [[nodiscard]] const AdamConfig& config() const noexcept { return config_; }

private:
    struct Moments {
        std::vector<double> m_w, v_w, m_b, v_b;
    };

    AdamConfig config_;
    CosineLrSchedule lr_;
    std::vector<Moments> moments_;
    std::size_t t_ = 0;
};

} // namespace lotus::rl
