#pragma once
// One-sample minibatches through the production backprop path. Tests that
// need the gradient of a single input (finite-difference checks, Adam,
// touched-prefix marking, checkpointing) call SlimmableMlp::forward_batch /
// backward_batch and SlimmableLinear::backward_batch on a batch of one,
// so they check the code the train step runs.

#include <algorithm>
#include <span>

#include "rl/layers.hpp"
#include "rl/matrix.hpp"
#include "rl/mlp.hpp"

namespace lotus::rl::test {

/// One sample's forward activations, kept for its backward.
class OneSample {
public:
    /// forward_batch on the single row `x`; returns the output_dim outputs.
    std::span<const double> forward(const SlimmableMlp& net, std::span<const double> x,
                                    double width) {
        x_.resize(1, x.size());
        std::copy(x.begin(), x.end(), x_.row(0).begin());
        net.forward_batch(x_, 1, width, cache_);
        return cache_.output.row(0);
    }

    /// backward_batch of dL/d(output) = `dout` for the last forward().
    void backward(SlimmableMlp& net, std::span<const double> dout) {
        dout_.resize(1, net.output_dim());
        std::copy(dout.begin(), dout.end(), dout_.row(0).begin());
        const BatchSample sample{&cache_, 0};
        net.backward_batch({&sample, 1}, dout_, scratch_);
    }

private:
    Matrix x_;
    BatchCache cache_;
    Matrix dout_;
    BackwardScratch scratch_;
};

/// Forward `x` at `width`, then accumulate the grads of `dout`.
inline void backprop_one(SlimmableMlp& net, std::span<const double> x, double width,
                         std::span<const double> dout) {
    OneSample s;
    (void)s.forward(net, x, width);
    s.backward(net, dout);
}

/// SlimmableLinear::backward_batch on one sample that ran the leading
/// (out_active, in_active) slice: accumulates grads and writes
/// dx[0:in_active] (x needs in_active values, dy out_active).
inline void backward_one(SlimmableLinear& layer, std::span<const double> x,
                         std::span<const double> dy, std::span<double> dx,
                         std::size_t in_active, std::size_t out_active) {
    Matrix xm(1, in_active);
    std::copy_n(x.begin(), in_active, xm.row(0).begin());
    Matrix dym(1, out_active);
    std::copy_n(dy.begin(), out_active, dym.row(0).begin());
    Matrix dxm(1, in_active);
    const Matrix::Slice slice{out_active, in_active};
    layer.backward_batch(xm, dym, &dxm, {&slice, 1});
    std::copy_n(dxm.row(0).begin(), in_active, dx.begin());
}

} // namespace lotus::rl::test
