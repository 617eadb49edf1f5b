#include "rl/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lotus::rl {

SlimmableMlp::SlimmableMlp(MlpConfig config) : config_(std::move(config)) {
    if (config_.dims.size() < 2) {
        throw std::invalid_argument("SlimmableMlp: need at least input and output dims");
    }
    for (const auto d : config_.dims) {
        if (d == 0) throw std::invalid_argument("SlimmableMlp: zero-sized layer");
    }
    util::Rng rng(config_.seed);
    layers_.reserve(config_.dims.size() - 1);
    for (std::size_t l = 0; l + 1 < config_.dims.size(); ++l) {
        layers_.emplace_back(config_.dims[l], config_.dims[l + 1], rng);
    }
}

std::size_t SlimmableMlp::active_units(std::size_t boundary, double width) const {
    if (boundary >= config_.dims.size()) {
        throw std::out_of_range("SlimmableMlp::active_units");
    }
    if (width <= 0.0 || width > 1.0) {
        throw std::invalid_argument("SlimmableMlp: width must be in (0, 1]");
    }
    const std::size_t full = config_.dims[boundary];
    const bool is_input = boundary == 0;
    const bool is_output = boundary + 1 == config_.dims.size();
    if ((is_input && !config_.slim_input) || (is_output && !config_.slim_output)) {
        return full;
    }
    const auto active = static_cast<std::size_t>(
        std::ceil(width * static_cast<double>(full)));
    return std::clamp<std::size_t>(active, 1, full);
}

std::vector<double> SlimmableMlp::forward(std::span<const double> x, double width) const {
    std::vector<double> out(output_dim(), 0.0);
    MlpScratch scratch;
    forward(x, width, out, scratch);
    return out;
}

void SlimmableMlp::forward(std::span<const double> x, double width,
                           std::span<double> out, MlpScratch& scratch) const {
    const std::size_t in0 = active_units(0, width);
    if (x.size() < in0) {
        throw std::invalid_argument("SlimmableMlp: input too short for active width");
    }
    if (out.size() != output_dim()) {
        throw std::invalid_argument("SlimmableMlp::forward: output size mismatch");
    }
    scratch.a.assign(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(in0));
    auto* cur = &scratch.a;
    auto* next = &scratch.b;
    for (std::size_t l = 0; l < layers_.size(); ++l) {
        const std::size_t in_active = active_units(l, width);
        const std::size_t out_active = active_units(l + 1, width);
        next->assign(out_active, 0.0);
        layers_[l].forward(*cur, *next, in_active, out_active);
        if (l + 1 < layers_.size()) {
            relu_inplace(*next, out_active);
        }
        std::swap(cur, next);
    }
    std::fill(out.begin(), out.end(), 0.0);
    std::copy(cur->begin(), cur->end(), out.begin());
}

void SlimmableMlp::forward_batch(const Matrix& x, std::size_t batch, double width,
                                 BatchCache& cache) const {
    const std::size_t in0 = active_units(0, width);
    if (x.cols() < in0 || x.rows() < batch || batch == 0) {
        throw std::invalid_argument("SlimmableMlp::forward_batch: bad input shape");
    }
    cache.width = width;
    cache.batch = batch;
    cache.activations.resize(layers_.size() + 1);

    // Sample columns padded to a multiple of 4, whole vectors in every
    // kernel set (2 or 4 doubles): a ragged batch would end in scalar
    // columns that read X with a stride, each as slow as 4-8 vector
    // columns. Columns are independent chains, so the padding (zero inputs)
    // changes no real column, and nothing reads it back.
    const std::size_t cols = (batch + 3) / 4 * 4;
    auto& input = cache.activations[0];
    input.resize(in0, cols);
    for (std::size_t k = 0; k < batch; ++k) {
        for (std::size_t c = 0; c < in0; ++c) input(c, k) = x(k, c);
    }
    for (std::size_t l = 0; l < layers_.size(); ++l) {
        const std::size_t in_active = active_units(l, width);
        const std::size_t out_active = active_units(l + 1, width);
        auto& y = cache.activations[l + 1];
        y.resize(out_active, cols);
        layers_[l].forward_batch(cache.activations[l], y, in_active, out_active, cols);
        if (l + 1 < layers_.size()) relu_inplace(y.flat(), y.size());
    }

    // Transpose to one row per sample, expanded to the full output
    // dimension; at full (or non-slim) output width this is the identity.
    const auto& last = cache.activations.back();
    cache.output.resize(batch, output_dim(), 0.0);
    for (std::size_t r = 0; r < last.rows(); ++r) {
        for (std::size_t k = 0; k < batch; ++k) cache.output(k, r) = last(r, k);
    }
}

[[gnu::aligned(64)]] void SlimmableMlp::backward_batch(std::span<const BatchSample> samples,
                                                      const Matrix& dout,
                                                      BackwardScratch& scratch) {
    const std::size_t n = samples.size();
    if (dout.cols() != output_dim() || dout.rows() < n) {
        throw std::invalid_argument("SlimmableMlp::backward_batch: dout shape mismatch");
    }
    for (const auto& s : samples) {
        if (s.cache == nullptr || s.column >= s.cache->batch ||
            s.cache->activations.size() != layers_.size() + 1) {
            throw std::out_of_range("SlimmableMlp::backward_batch: bad sample");
        }
    }
    if (n == 0) return;
    auto& slices = scratch.slices;
    slices.resize(n);
    const Matrix* dy = &dout;
    for (std::size_t li = layers_.size(); li-- > 0;) {
        std::size_t in_max = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const double width = samples[i].cache->width;
            slices[i] = {active_units(li + 1, width), active_units(li, width)};
            in_max = std::max(in_max, slices[i].in);
        }
        // Gather this layer's inputs into sample-major rows.
        scratch.x.resize(n, in_max);
        for (std::size_t i = 0; i < n; ++i) {
            const auto& act = samples[i].cache->activations[li];
            const std::size_t k = samples[i].column;
            for (std::size_t c = 0; c < slices[i].in; ++c) scratch.x(i, c) = act(c, k);
        }
        if (li == 0) {
            layers_[li].backward_batch(scratch.x, *dy, nullptr, slices);
            break;
        }
        scratch.dx.resize(n, in_max);
        layers_[li].backward_batch(scratch.x, *dy, &scratch.dx, slices);
        // ReLU backward into layer li-1's output gradient: zero where the
        // pre-activation p <= 0.0. The mask reads the ReLU output, and
        // relu(p) == 0.0 exactly when p <= 0.0 (including -0.0, excluding
        // NaN).
        for (std::size_t i = 0; i < n; ++i) {
            const auto& act = samples[i].cache->activations[li];
            const std::size_t k = samples[i].column;
            const auto dx = scratch.dx.row(i);
            for (std::size_t c = 0; c < slices[i].in; ++c) {
                dx[c] = act(c, k) == 0.0 ? 0.0 : dx[c];
            }
        }
        std::swap(scratch.dx, scratch.dy);
        dy = &scratch.dy;
    }
}

void SlimmableMlp::zero_grad() noexcept {
    for (auto& layer : layers_) layer.zero_grad();
}

void SlimmableMlp::copy_parameters_from(const SlimmableMlp& src) {
    if (src.layers_.size() != layers_.size()) {
        throw std::invalid_argument("copy_parameters_from: topology mismatch");
    }
    for (std::size_t l = 0; l < layers_.size(); ++l) {
        auto& dst_layer = layers_[l];
        const auto& src_layer = src.layers_[l];
        if (dst_layer.weights().size() != src_layer.weights().size()) {
            throw std::invalid_argument("copy_parameters_from: layer shape mismatch");
        }
        std::copy(src_layer.weights().flat().begin(), src_layer.weights().flat().end(),
                  dst_layer.weights().flat().begin());
        std::copy(src_layer.bias().begin(), src_layer.bias().end(),
                  dst_layer.bias().begin());
    }
}

} // namespace lotus::rl
