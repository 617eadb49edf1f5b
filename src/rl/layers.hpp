#pragma once
// Slimmable fully-connected layer (Sec. 4.3.4 of the paper).
//
// A SlimmableLinear owns a full (out_features x in_features) weight matrix
// but can execute a forward/backward pass restricted to the leading
// [0:active_out) x [0:active_in) sub-matrix. LOTUS runs its Q-network at
// width 0.75x for the frame-start decision (where the proposal count is not
// yet known) and at 1.0x for the post-RPN decision; both share the leading
// weights, which is exactly what this slicing implements.
//
// Gradients are accumulated into `grad_w` / `grad_b`, and a per-row
// high-water mark records which entries were touched so the optimizer can
// honour the paper's "the remaining weights are not updated" rule under Adam
// (whose update is non-zero even for zero gradients). A backward slice
// always covers the leading [0, in_active) columns of rows [0, out_active),
// so the touched set of row r is exactly the prefix [0, marked_cols()[r]),
// and bias r is touched exactly when marked_cols()[r] > 0.

#include <cstdint>
#include <span>
#include <vector>

#include "rl/matrix.hpp"
#include "util/rng.hpp"

namespace lotus::rl {

class SlimmableLinear {
public:
    SlimmableLinear(std::size_t in_features, std::size_t out_features, util::Rng& rng);

    [[nodiscard]] std::size_t in_features() const noexcept { return in_; }
    [[nodiscard]] std::size_t out_features() const noexcept { return out_; }

    /// y[0:out_active] = W[0:out_active, 0:in_active] x + b. `x` must have at
    /// least in_active elements, `y` at least out_active.
    void forward(std::span<const double> x, std::span<double> y,
                 std::size_t in_active, std::size_t out_active) const noexcept;

    /// Batched forward: Y[0:out_active, k] = W[0:out_active, 0:in_active]
    /// X[0:in_active, k] + b for every sample column k < batch (X and Y
    /// feature-major). Bit-identical to `batch` calls of forward() (see
    /// Matrix::slice_matmul).
    void forward_batch(const Matrix& x, Matrix& y, std::size_t in_active,
                       std::size_t out_active, std::size_t batch) const noexcept;

    /// Backprop for a minibatch: sample k (row k of the sample-major `x` and
    /// `dy`) ran the leading slice `slices[k]` = (out_k, in_k). For
    /// k = 0, 1, ... in order it adds dy[k][r] * x[k][c] to grad_w(r, c) and
    /// dy[k][r] to grad_b[r] over r < out_k, c < in_k, skipping terms whose
    /// dy[k][r] == 0.0 (see Matrix::slice_outer_accumulate_batch), and
    /// extends the touched prefixes. Unless `dx` is null, it also writes
    /// row k of the input gradient, dx[k][c] = sum over r < out_k ascending
    /// of dy[k][r] * W(r, c) (Matrix::slice_matmul_transposed).
    void backward_batch(const Matrix& x, const Matrix& dy, Matrix* dx,
                        std::span<const Matrix::Slice> slices) noexcept;

    void zero_grad() noexcept;

    /// Reset the touched prefixes only, for a caller that has already
    /// zeroed every touched gradient (Adam::step): untouched entries never
    /// accumulate, so the gradients are then all zero, as after zero_grad().
    void clear_marks() noexcept;

    // Parameter/grad/touched-prefix access for the optimizer and for tests.
    [[nodiscard]] Matrix& weights() noexcept { return w_; }
    [[nodiscard]] const Matrix& weights() const noexcept { return w_; }
    [[nodiscard]] std::span<double> bias() noexcept { return b_; }
    [[nodiscard]] std::span<const double> bias() const noexcept { return b_; }
    [[nodiscard]] Matrix& grad_weights() noexcept { return gw_; }
    [[nodiscard]] std::span<double> grad_bias() noexcept { return gb_; }
    /// Touched columns per weight row since the last zero_grad() or
    /// clear_marks(): row r's touched entries are [0, marked_cols()[r]).
    [[nodiscard]] std::span<const std::uint32_t> marked_cols() const noexcept {
        return marked_cols_;
    }

private:
    /// Extend rows [0, out_active) to cover columns [0, in_active).
    void mark(std::size_t in_active, std::size_t out_active) noexcept;

    std::size_t in_;
    std::size_t out_;
    Matrix w_;
    std::vector<double> b_;
    Matrix gw_;
    std::vector<double> gb_;
    /// Per-row touched prefix length; reset by zero_grad() and clear_marks().
    std::vector<std::uint32_t> marked_cols_;
};

/// ReLU applied in place over the active prefix.
void relu_inplace(std::span<double> x, std::size_t active) noexcept;

} // namespace lotus::rl
