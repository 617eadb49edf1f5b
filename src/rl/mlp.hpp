#pragma once
// Slimmable multi-layer perceptron: the Q-network of Sec. 4.3.4.
//
// The paper's Q-network is a 4-layer MLP executable at widths [0.75x, 1.0x].
// Width w activates ceil(w * n) units in each slimmable layer; the output
// layer always stays at full width so that every action in the M x N joint
// frequency space has a Q-value at both widths. The input layer is sliced
// too: with the paper's 7-feature post-RPN state, ceil(0.75 * 7) = 6 inputs,
// which drops exactly the proposal-count feature that is unavailable at the
// frame-start decision.

#include <cstddef>
#include <span>
#include <vector>

#include "rl/layers.hpp"
#include "util/rng.hpp"

namespace lotus::rl {

struct MlpConfig {
    /// Layer sizes including input and output, e.g. {7, 128, 128, 128, 48}.
    std::vector<std::size_t> dims;
    /// Slice the input layer with the width multiplier (LOTUS: true).
    bool slim_input = true;
    /// Slice the output layer (LOTUS: false -- all actions always scored).
    bool slim_output = false;
    std::uint64_t seed = 1;
};

/// Two reusable ping-pong buffers for the allocation-free forward()
/// overload; reallocation stops once warm.
struct MlpScratch {
    std::vector<double> a;
    std::vector<double> b;
};

/// Activations for a whole minibatch at one width, captured by
/// forward_batch for backward_batch(). Matrices are resized in place, so a
/// reused cache is allocation-free once warm.
struct BatchCache {
    double width = 1.0;
    std::size_t batch = 0;
    /// activations[b]: active_units(b) x (batch rounded up to a multiple of
    /// 4), feature-major (column k = sample k), at layer boundary b: [0] is
    /// the network input, [l] for 0 < l < num_layers() the ReLU output of
    /// layer l-1, and the last entry the output layer's result. Columns
    /// from `batch` on are padding that no reader may use.
    std::vector<Matrix> activations;
    /// batch x output_dim final outputs (row k = sample k, zero-filled past
    /// the active output units like forward()).
    Matrix output;
};

/// One sample of a minibatch backward: column `column` of `cache`.
struct BatchSample {
    const BatchCache* cache = nullptr;
    std::size_t column = 0;
};

/// Reusable sample-major buffers for backward_batch().
struct BackwardScratch {
    Matrix x;
    Matrix dy;
    Matrix dx;
    std::vector<Matrix::Slice> slices;
};

class SlimmableMlp {
public:
    explicit SlimmableMlp(MlpConfig config);

    [[nodiscard]] std::size_t input_dim() const noexcept { return config_.dims.front(); }
    [[nodiscard]] std::size_t output_dim() const noexcept { return config_.dims.back(); }
    [[nodiscard]] std::size_t num_layers() const noexcept { return layers_.size(); }
    [[nodiscard]] const MlpConfig& config() const noexcept { return config_; }

    /// Number of active units of the given layer boundary (0 = network
    /// input, i = output of layer i-1) when run at `width`.
    [[nodiscard]] std::size_t active_units(std::size_t boundary, double width) const;

    /// Inference-only forward at the given width. `x` must supply at least
    /// active_units(0, width) elements; the full input vector may be passed
    /// (extra features are simply not read at reduced width).
    [[nodiscard]] std::vector<double> forward(std::span<const double> x, double width) const;

    /// Allocation-free forward: writes the full-output-dim result into `out`
    /// (size output_dim) using caller-owned scratch. Bit-identical to the
    /// vector-returning overload.
    void forward(std::span<const double> x, double width, std::span<double> out,
                 MlpScratch& scratch) const;

    /// Batched forward over the leading `batch` rows of X (each row one
    /// sample; X must have at least active_units(0, width) columns). Records
    /// per-layer activations for backward_batch(); every row of
    /// cache.output is bit-identical to forward() on that sample.
    void forward_batch(const Matrix& x, std::size_t batch, double width,
                       BatchCache& cache) const;

    /// Accumulate parameter gradients for a minibatch whose samples may come
    /// from several caches (one per width). Row i of `dout` (output_dim
    /// columns; entries for actions you do not want to train must be 0) is
    /// dL/d(output) of samples[i]. Grads accumulate sample by sample in span
    /// order (see SlimmableLinear::backward_batch), the ReLU gradient is zero
    /// where the cached ReLU output is 0.0, and the result does not depend
    /// on which cache a sample came from.
    void backward_batch(std::span<const BatchSample> samples, const Matrix& dout,
                        BackwardScratch& scratch);

    void zero_grad() noexcept;

    [[nodiscard]] std::vector<SlimmableLinear>& layers() noexcept { return layers_; }
    [[nodiscard]] const std::vector<SlimmableLinear>& layers() const noexcept { return layers_; }

    /// Hard-copy the parameters of `src` (used for target-network sync).
    void copy_parameters_from(const SlimmableMlp& src);

private:
    MlpConfig config_;
    std::vector<SlimmableLinear> layers_;
};

} // namespace lotus::rl
