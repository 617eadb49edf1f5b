#include "rl/matrix.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "prof/profiler.hpp"

namespace lotus::rl {

namespace {

// rows * cols, validated before anything is allocated.
std::size_t checked_size(std::size_t rows, std::size_t cols, const char* what) {
    if (rows == 0 || cols == 0) {
        throw std::invalid_argument(std::string(what) + ": zero dimension");
    }
    if (cols > std::numeric_limits<std::size_t>::max() / rows) {
        throw std::invalid_argument(std::string(what) + ": " + std::to_string(rows) +
                                    " x " + std::to_string(cols) + " overflows");
    }
    return rows * cols;
}

} // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(checked_size(rows, cols, "Matrix"), fill) {}

double& Matrix::at(std::size_t r, std::size_t c) {
    if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
    return data_[r * cols_ + c];
}

double Matrix::at(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
    return data_[r * cols_ + c];
}

std::span<double> Matrix::row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
}

std::span<const double> Matrix::row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
}

void Matrix::fill(double v) noexcept {
    for (auto& x : data_) x = v;
}

void Matrix::resize(std::size_t rows, std::size_t cols, double fill) {
    const std::size_t n = checked_size(rows, cols, "Matrix::resize");
    data_.assign(n, fill);
    rows_ = rows;
    cols_ = cols;
}

void Matrix::slice_matvec(const Matrix& a, std::span<const double> x,
                          std::span<const double> b, std::span<double> y,
                          std::size_t out, std::size_t in) noexcept {
    LOTUS_PROF_COUNT("rl.matvec_calls", 1);
    for (std::size_t r = 0; r < out; ++r) {
        const double* wrow = a.data_.data() + r * a.cols_;
        double acc = b[r];
        for (std::size_t c = 0; c < in; ++c) acc += wrow[c] * x[c];
        y[r] = acc;
    }
}

namespace {

// Two doubles in one SSE2/NEON register (GCC/Clang vector extension). Lane
// arithmetic is plain IEEE double arithmetic, so a vector of per-sample
// chains rounds exactly like the scalar chains it replaces.
using V2 = double __attribute__((vector_size(16)));

inline V2 load2(const double* p) noexcept {
    V2 v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

inline void store2(double* p, V2 v) noexcept { std::memcpy(p, &v, sizeof v); }

// R output rows x 2V sample columns of slice_matmul, starting at output row
// r and sample column k. Accumulators start at b[r] and take one term per c
// in ascending order.
template <std::size_t R, std::size_t V>
inline void matmul_tile(const double* w, std::size_t ldw, const double* b, const double* x,
                        std::size_t ldx, double* y, std::size_t ldy,
                        std::size_t in) noexcept {
    V2 acc[R][V];
    for (std::size_t i = 0; i < R; ++i) {
        for (std::size_t j = 0; j < V; ++j) acc[i][j] = V2{b[i], b[i]};
    }
    for (std::size_t c = 0; c < in; ++c, x += ldx) {
        V2 xv[V];
        for (std::size_t j = 0; j < V; ++j) xv[j] = load2(x + 2 * j);
        for (std::size_t i = 0; i < R; ++i) {
            const double wic = w[i * ldw + c];
            const V2 wv{wic, wic};
            for (std::size_t j = 0; j < V; ++j) acc[i][j] += wv * xv[j];
        }
    }
    for (std::size_t i = 0; i < R; ++i) {
        for (std::size_t j = 0; j < V; ++j) store2(y + i * ldy + 2 * j, acc[i][j]);
    }
}

// Every output row for the 2V sample columns starting at k.
template <std::size_t V>
inline void matmul_columns(const Matrix& a, const Matrix& x, std::span<const double> b,
                           Matrix& y, std::size_t out, std::size_t in,
                           std::size_t k) noexcept {
    const double* xk = x.flat().data() + k;
    std::size_t r = 0;
    for (; r + 2 <= out; r += 2) {
        matmul_tile<2, V>(a.row(r).data(), a.cols(), &b[r], xk, x.cols(), &y(r, k), y.cols(),
                          in);
    }
    if (r < out) {
        matmul_tile<1, V>(a.row(r).data(), a.cols(), &b[r], xk, x.cols(), &y(r, k), y.cols(),
                          in);
    }
}

} // namespace

void Matrix::slice_matmul(const Matrix& a, const Matrix& x, std::span<const double> b,
                          Matrix& y, std::size_t out, std::size_t in,
                          std::size_t batch) noexcept {
    LOTUS_PROF_COUNT("rl.matmul_calls", 1);
    LOTUS_PROF_COUNT("rl.matmul_rows", batch);
    std::size_t k = 0;
    for (; k + 8 <= batch; k += 8) matmul_columns<4>(a, x, b, y, out, in, k);
    for (; k + 2 <= batch; k += 2) matmul_columns<1>(a, x, b, y, out, in, k);
    for (; k < batch; ++k) {
        for (std::size_t r = 0; r < out; ++r) {
            const double* wrow = a.data_.data() + r * a.cols_;
            double acc = b[r];
            for (std::size_t c = 0; c < in; ++c) acc += wrow[c] * x(c, k);
            y(r, k) = acc;
        }
    }
}

namespace {

// Terms one batched-backward pass adds to one destination row, in order:
// term e adds g[e] * src[e][c] to columns c < in[e]. Built branch-free
// (every candidate is written, only nonzero ones are kept), which both
// honours the `g == 0.0` skips and keeps unpredictable zero tests (ReLU
// masks, one-hot loss gradients) off the branch predictor.
struct Terms {
    static constexpr std::size_t kCap = 64;
    const double* src[kCap] = {};
    double g[kCap] = {};
    std::size_t in[kCap] = {};
    std::size_t m = 0;

    void offer(const double* row, double coeff, std::size_t cols, bool active) noexcept {
        src[m] = row;
        g[m] = coeff;
        in[m] = cols;
        m += static_cast<std::size_t>(active && coeff != 0.0);
    }
    [[nodiscard]] bool full() const noexcept { return m == kCap; }
};

// Columns [c, c + 2V) of accumulate_terms, held in V registers across all
// terms instead of loaded and stored once per term.
template <std::size_t V>
inline void accumulate_tile(double* acc, const Terms& t, std::size_t c) noexcept {
    V2 a[V];
    for (std::size_t j = 0; j < V; ++j) a[j] = load2(acc + c + 2 * j);
    for (std::size_t e = 0; e < t.m; ++e) {
        const V2 gv{t.g[e], t.g[e]};
        const double* s = t.src[e] + c;
        for (std::size_t j = 0; j < V; ++j) a[j] += gv * load2(s + 2 * j);
    }
    for (std::size_t j = 0; j < V; ++j) store2(acc + c + 2 * j, a[j]);
}

// acc[c] += g[0] * src[0][c] + g[1] * src[1][c] + ... for lo <= c < hi, one
// chain per element in term order: exactly the per-element sums of m
// successive axpys.
void accumulate_terms(double* acc, const Terms& t, std::size_t lo, std::size_t hi) noexcept {
    std::size_t c = lo;
    for (; c + 16 <= hi; c += 16) accumulate_tile<8>(acc, t, c);
    for (; c + 8 <= hi; c += 8) accumulate_tile<4>(acc, t, c);
    for (; c + 2 <= hi; c += 2) accumulate_tile<1>(acc, t, c);
    for (; c < hi; ++c) {
        double a = acc[c];
        for (std::size_t e = 0; e < t.m; ++e) a += t.g[e] * t.src[e][c];
        acc[c] = a;
    }
}

// accumulate_terms for terms of differing lengths: columns are split at
// each distinct in[e], and a column range only sees (in order) the terms
// that cover it. Consumes the terms.
void accumulate_ragged_terms(double* acc, Terms& t) noexcept {
    std::size_t lo = 0;
    while (t.m > 0) {
        std::size_t hi = t.in[0];
        for (std::size_t e = 1; e < t.m; ++e) hi = std::min(hi, t.in[e]);
        accumulate_terms(acc, t, lo, hi);
        std::size_t kept = 0;
        for (std::size_t e = 0; e < t.m; ++e) {
            if (t.in[e] == hi) continue;
            t.src[kept] = t.src[e];
            t.g[kept] = t.g[e];
            t.in[kept] = t.in[e];
            ++kept;
        }
        t.m = kept;
        lo = hi;
    }
}

} // namespace

void Matrix::slice_matmul_transposed(const Matrix& a, const Matrix& y_grad, Matrix& x_grad,
                                     std::span<const Slice> slices) noexcept {
    Terms t;
    for (std::size_t k = 0; k < slices.size(); ++k) {
        const auto [out, in] = slices[k];
        double* xg = x_grad.data_.data() + k * x_grad.cols_;
        std::fill(xg, xg + in, 0.0);
        const double* dyk = y_grad.data_.data() + k * y_grad.cols_;
        for (std::size_t r = 0; r < out;) {
            t.m = 0;
            for (; r < out && !t.full(); ++r) {
                t.offer(a.data_.data() + r * a.cols_, dyk[r], in, true);
            }
            accumulate_terms(xg, t, 0, in);
        }
    }
}

void Matrix::slice_outer_accumulate_batch(Matrix& grad, const Matrix& y_grad,
                                          const Matrix& x,
                                          std::span<const Slice> slices) noexcept {
    std::size_t out_max = 0;
    for (const auto& s : slices) out_max = std::max(out_max, s.out);
    Terms t;
    for (std::size_t r = 0; r < out_max; ++r) {
        double* grow = grad.data_.data() + r * grad.cols_;
        for (std::size_t k = 0; k < slices.size();) {
            t.m = 0;
            for (; k < slices.size() && !t.full(); ++k) {
                t.offer(x.data_.data() + k * x.cols_, y_grad.data_[k * y_grad.cols_ + r],
                        slices[k].in, r < slices[k].out);
            }
            accumulate_ragged_terms(grow, t);
        }
    }
}

} // namespace lotus::rl
