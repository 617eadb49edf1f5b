#include "rl/layers.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lotus::rl {

SlimmableLinear::SlimmableLinear(std::size_t in_features, std::size_t out_features,
                                 util::Rng& rng)
    : in_(in_features),
      out_(out_features),
      w_(out_features, in_features),
      b_(out_features, 0.0),
      gw_(out_features, in_features),
      gb_(out_features, 0.0),
      marked_cols_(out_features, 0) {
    // Kaiming-uniform init over the *full* fan-in, matching common slimmable
    // network practice (the shared leading weights see both widths).
    const double bound = std::sqrt(6.0 / static_cast<double>(in_features));
    for (auto& v : w_.flat()) v = rng.uniform(-bound, bound);
}

void SlimmableLinear::forward(std::span<const double> x, std::span<double> y,
                              std::size_t in_active, std::size_t out_active) const noexcept {
    Matrix::slice_matvec(w_, x, b_, y, out_active, in_active);
}

void SlimmableLinear::forward_batch(const Matrix& x, Matrix& y, std::size_t in_active,
                                    std::size_t out_active,
                                    std::size_t batch) const noexcept {
    Matrix::slice_matmul(w_, x, b_, y, out_active, in_active, batch);
}

void SlimmableLinear::backward_batch(const Matrix& x, const Matrix& dy, Matrix* dx,
                                     std::span<const Matrix::Slice> slices) noexcept {
    if (dx != nullptr) Matrix::slice_matmul_transposed(w_, dy, *dx, slices);
    Matrix::slice_outer_accumulate_batch(gw_, dy, x, slices);
    for (std::size_t k = 0; k < slices.size(); ++k) {
        const auto dyk = dy.row(k);
        for (std::size_t r = 0; r < slices[k].out; ++r) gb_[r] += dyk[r];
        mark(slices[k].in, slices[k].out);
    }
}

void SlimmableLinear::mark(std::size_t in_active, std::size_t out_active) noexcept {
    const auto in = static_cast<std::uint32_t>(in_active);
    for (std::size_t r = 0; r < out_active; ++r) {
        marked_cols_[r] = std::max(marked_cols_[r], in);
    }
}

void SlimmableLinear::zero_grad() noexcept {
    auto gw = gw_.flat();
    std::fill(gw.begin(), gw.end(), 0.0);
    std::fill(gb_.begin(), gb_.end(), 0.0);
    clear_marks();
}

void SlimmableLinear::clear_marks() noexcept {
    std::fill(marked_cols_.begin(), marked_cols_.end(), 0U);
}

void relu_inplace(std::span<double> x, std::size_t active) noexcept {
    // Unconditional store: branch-free and vectorizable; -0.0 and NaN pass
    // through unchanged, as with a conditional one.
    for (std::size_t i = 0; i < active; ++i) x[i] = x[i] < 0.0 ? 0.0 : x[i];
}

} // namespace lotus::rl
