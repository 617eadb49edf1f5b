#include "rl/matrix.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
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
    // Four rows at a time as four independent chains (latency hidden), each
    // still from b[r] over c ascending; then single rows.
    const std::size_t ld = a.cols_;
    std::size_t r = 0;
    for (; r + 4 <= out; r += 4) {
        const double* w = a.data_.data() + r * ld;
        double acc0 = b[r];
        double acc1 = b[r + 1];
        double acc2 = b[r + 2];
        double acc3 = b[r + 3];
        for (std::size_t c = 0; c < in; ++c) {
            const double xc = x[c];
            acc0 += w[c] * xc;
            acc1 += w[ld + c] * xc;
            acc2 += w[2 * ld + c] * xc;
            acc3 += w[3 * ld + c] * xc;
        }
        y[r] = acc0;
        y[r + 1] = acc1;
        y[r + 2] = acc2;
        y[r + 3] = acc3;
    }
    for (; r < out; ++r) {
        const double* wrow = a.data_.data() + r * ld;
        double acc = b[r];
        for (std::size_t c = 0; c < in; ++c) acc += wrow[c] * x[c];
        y[r] = acc;
    }
}

namespace {

// Vectors of doubles (GCC/Clang vector extension): two per SSE2/NEON
// register, four per AVX2 register. Lane arithmetic is plain IEEE double
// arithmetic at any width, so a vector of per-sample (or per-column) chains
// rounds exactly like the scalar chains it replaces, and every kernel set
// below gives the same bits.
using V2 = double __attribute__((vector_size(16)));
#if defined(__x86_64__) || defined(__i386__)
#define LOTUS_RL_KERNELS_X86 1
using V4 = double __attribute__((vector_size(32)));
#endif

template <class V>
inline constexpr std::size_t kLanes = sizeof(V) / sizeof(double);

// Every helper that touches a vector is always_inline and takes vectors by
// reference, so a vector never crosses a call: the helpers compile for the
// ISA of the kernel set that instantiates them (a 32-byte V4 passed by
// value outside an AVX function would also change the ABI). The tiles'
// fixed-trip loops carry `#pragma GCC unroll`: fully unrolled, their
// accumulator arrays live in registers instead of on the stack.
template <class V>
[[gnu::always_inline]] inline void load(V& v, const double* p) noexcept {
    std::memcpy(&v, p, sizeof v);
}

template <class V>
[[gnu::always_inline]] inline void store(double* p, const V& v) noexcept {
    std::memcpy(p, &v, sizeof v);
}

// Through memory rather than a vector literal: GCC 12 reports a false
// -Wmaybe-uninitialized for a 4-lane literal stored into a tile's array.
template <class V>
[[gnu::always_inline]] inline void splat(V& v, double s) noexcept {
    double lanes[kLanes<V>];
    std::fill_n(lanes, kLanes<V>, s);
    load(v, lanes);
}

// R output rows x N vectors of sample columns of slice_matmul. Accumulators
// start at b[i] and take one term per c in ascending order.
template <class V, std::size_t R, std::size_t N>
[[gnu::always_inline]] inline void matmul_tile(const double* w, std::size_t ldw,
                                               const double* b, const double* x,
                                               std::size_t ldx, double* y, std::size_t ldy,
                                               std::size_t in) noexcept {
    constexpr std::size_t L = kLanes<V>;
    V acc[R][N];
    #pragma GCC unroll 8
    for (std::size_t i = 0; i < R; ++i) {
        #pragma GCC unroll 8
        for (std::size_t j = 0; j < N; ++j) splat(acc[i][j], b[i]);
    }
    for (std::size_t c = 0; c < in; ++c, x += ldx) {
        V xv[N];
        #pragma GCC unroll 8
        for (std::size_t j = 0; j < N; ++j) load(xv[j], x + L * j);
        #pragma GCC unroll 8
        for (std::size_t i = 0; i < R; ++i) {
            V wv;
            splat(wv, w[i * ldw + c]);
            #pragma GCC unroll 8
            for (std::size_t j = 0; j < N; ++j) acc[i][j] += wv * xv[j];
        }
    }
    #pragma GCC unroll 8
    for (std::size_t i = 0; i < R; ++i) {
        #pragma GCC unroll 8
        for (std::size_t j = 0; j < N; ++j) store(y + i * ldy + L * j, acc[i][j]);
    }
}

// Every output row for the N vectors of sample columns starting at k: tiles
// of R rows, then single rows.
template <class V, std::size_t R, std::size_t N>
[[gnu::always_inline]] inline void matmul_columns(const Matrix& a, const Matrix& x,
                                                  std::span<const double> b, Matrix& y,
                                                  std::size_t out, std::size_t in,
                                                  std::size_t k) noexcept {
    const double* xk = x.flat().data() + k;
    std::size_t r = 0;
    for (; r + R <= out; r += R) {
        matmul_tile<V, R, N>(a.row(r).data(), a.cols(), &b[r], xk, x.cols(), &y(r, k),
                             y.cols(), in);
    }
    for (; r < out; ++r) {
        matmul_tile<V, 1, N>(a.row(r).data(), a.cols(), &b[r], xk, x.cols(), &y(r, k),
                             y.cols(), in);
    }
}

// slice_matmul: R-row x 8-sample tiles, then one vector of samples at a
// time, then scalar samples.
template <class V, std::size_t R>
[[gnu::always_inline]] inline void matmul(const Matrix& a, const Matrix& x,
                                          std::span<const double> b, Matrix& y,
                                          std::size_t out, std::size_t in,
                                          std::size_t batch) noexcept {
    constexpr std::size_t L = kLanes<V>;
    std::size_t k = 0;
    for (; k + 8 <= batch; k += 8) matmul_columns<V, R, 8 / L>(a, x, b, y, out, in, k);
    for (; k + L <= batch; k += L) matmul_columns<V, R, 1>(a, x, b, y, out, in, k);
    for (; k < batch; ++k) {
        for (std::size_t r = 0; r < out; ++r) {
            const double* wrow = a.row(r).data();
            double acc = b[r];
            for (std::size_t c = 0; c < in; ++c) acc += wrow[c] * x(c, k);
            y(r, k) = acc;
        }
    }
}

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

// Columns [c, c + N * lanes) of accumulate_terms, held in N registers
// across all terms instead of loaded and stored once per term.
template <class V, std::size_t N>
[[gnu::always_inline]] inline void accumulate_tile(double* acc, const Terms& t,
                                                   std::size_t c) noexcept {
    constexpr std::size_t L = kLanes<V>;
    V a[N];
    #pragma GCC unroll 8
    for (std::size_t j = 0; j < N; ++j) load(a[j], acc + c + L * j);
    for (std::size_t e = 0; e < t.m; ++e) {
        V gv;
        splat(gv, t.g[e]);
        const double* s = t.src[e] + c;
        #pragma GCC unroll 8
        for (std::size_t j = 0; j < N; ++j) {
            V sv;
            load(sv, s + L * j);
            a[j] += gv * sv;
        }
    }
    #pragma GCC unroll 8
    for (std::size_t j = 0; j < N; ++j) store(acc + c + L * j, a[j]);
}

// acc[c] += g[0] * src[0][c] + g[1] * src[1][c] + ... for lo <= c < hi, one
// chain per element in term order: exactly the per-element sums of m
// successive axpys. Tiles of 8, 4 and 1 vectors, then scalar columns.
template <class V>
[[gnu::always_inline]] inline void accumulate_terms(double* acc, const Terms& t,
                                                    std::size_t lo, std::size_t hi) noexcept {
    constexpr std::size_t L = kLanes<V>;
    std::size_t c = lo;
    for (; c + 8 * L <= hi; c += 8 * L) accumulate_tile<V, 8>(acc, t, c);
    for (; c + 4 * L <= hi; c += 4 * L) accumulate_tile<V, 4>(acc, t, c);
    for (; c + L <= hi; c += L) accumulate_tile<V, 1>(acc, t, c);
    for (; c < hi; ++c) {
        double a = acc[c];
        for (std::size_t e = 0; e < t.m; ++e) a += t.g[e] * t.src[e][c];
        acc[c] = a;
    }
}

// accumulate_terms for terms of differing lengths: columns are split at
// each distinct in[e], and a column range only sees (in order) the terms
// that cover it. Consumes the terms.
template <class V>
[[gnu::always_inline]] inline void accumulate_ragged_terms(double* acc, Terms& t) noexcept {
    std::size_t lo = 0;
    while (t.m > 0) {
        std::size_t hi = t.in[0];
        for (std::size_t e = 1; e < t.m; ++e) hi = std::min(hi, t.in[e]);
        accumulate_terms<V>(acc, t, lo, hi);
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

template <class V>
[[gnu::always_inline]] inline void matmul_transposed(const Matrix& a, const Matrix& y_grad,
                                                     Matrix& x_grad,
                                                     std::span<const Matrix::Slice> slices) noexcept {
    Terms t;
    for (std::size_t k = 0; k < slices.size(); ++k) {
        const auto [out, in] = slices[k];
        double* xg = x_grad.row(k).data();
        std::fill(xg, xg + in, 0.0);
        const double* dyk = y_grad.row(k).data();
        for (std::size_t r = 0; r < out;) {
            t.m = 0;
            for (; r < out && !t.full(); ++r) t.offer(a.row(r).data(), dyk[r], in, true);
            accumulate_terms<V>(xg, t, 0, in);
        }
    }
}

template <class V>
[[gnu::always_inline]] inline void outer_accumulate_batch(Matrix& grad, const Matrix& y_grad,
                                                          const Matrix& x,
                                                          std::span<const Matrix::Slice> slices) noexcept {
    std::size_t out_max = 0;
    for (const auto& s : slices) out_max = std::max(out_max, s.out);
    Terms t;
    for (std::size_t r = 0; r < out_max; ++r) {
        double* grow = grad.row(r).data();
        for (std::size_t k = 0; k < slices.size();) {
            t.m = 0;
            for (; k < slices.size() && !t.full(); ++k) {
                t.offer(x.row(k).data(), y_grad(k, r), slices[k].in, r < slices[k].out);
            }
            accumulate_ragged_terms<V>(grow, t);
        }
    }
}

// The kernel sets: each instantiates the templates above for one vector
// type, inside a function compiled for that vector's ISA. Like the other
// hot kernels (the layers' and the network's batched passes, Adam::step,
// ThermalNetwork::advance_bounded), each starts on a 64-byte boundary, so
// a change elsewhere in the library cannot move its loops across cache
// lines and fetch blocks.

[[gnu::aligned(64)]] void matmul_baseline(const Matrix& a, const Matrix& x, std::span<const double> b, Matrix& y,
                     std::size_t out, std::size_t in, std::size_t batch) noexcept {
    matmul<V2, 2>(a, x, b, y, out, in, batch);
}

[[gnu::aligned(64)]] void matmul_transposed_baseline(const Matrix& a, const Matrix& y_grad, Matrix& x_grad,
                                std::span<const Matrix::Slice> slices) noexcept {
    matmul_transposed<V2>(a, y_grad, x_grad, slices);
}

[[gnu::aligned(64)]] void outer_accumulate_batch_baseline(Matrix& grad, const Matrix& y_grad, const Matrix& x,
                                     std::span<const Matrix::Slice> slices) noexcept {
    outer_accumulate_batch<V2>(grad, y_grad, x, slices);
}

#ifdef LOTUS_RL_KERNELS_X86
__attribute__((target("avx2"), aligned(64))) void matmul_avx2(const Matrix& a, const Matrix& x,
                                                 std::span<const double> b, Matrix& y,
                                                 std::size_t out, std::size_t in,
                                                 std::size_t batch) noexcept {
    matmul<V4, 4>(a, x, b, y, out, in, batch);
}

__attribute__((target("avx2"), aligned(64))) void matmul_transposed_avx2(
    const Matrix& a, const Matrix& y_grad, Matrix& x_grad,
    std::span<const Matrix::Slice> slices) noexcept {
    matmul_transposed<V4>(a, y_grad, x_grad, slices);
}

__attribute__((target("avx2"), aligned(64))) void outer_accumulate_batch_avx2(
    Matrix& grad, const Matrix& y_grad, const Matrix& x,
    std::span<const Matrix::Slice> slices) noexcept {
    outer_accumulate_batch<V4>(grad, y_grad, x, slices);
}
#endif

// Narrowest first: kernel_sets() returns a prefix of this table.
constexpr KernelSet kKernelSets[] = {
    {"baseline", matmul_baseline, matmul_transposed_baseline, outer_accumulate_batch_baseline},
#ifdef LOTUS_RL_KERNELS_X86
    {"avx2", matmul_avx2, matmul_transposed_avx2, outer_accumulate_batch_avx2},
#endif
};

bool host_has_avx2() noexcept {
#ifdef LOTUS_RL_KERNELS_X86
    __builtin_cpu_init(); // may run before the constructor that sets up the CPU model
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

} // namespace

std::span<const KernelSet> kernel_sets() noexcept {
    static const std::span<const KernelSet> supported{
        kKernelSets, host_has_avx2() ? std::size(kKernelSets) : 1};
    return supported;
}

const KernelSet& kernel_set() noexcept { return kernel_sets().back(); }

void Matrix::slice_matmul(const Matrix& a, const Matrix& x, std::span<const double> b,
                          Matrix& y, std::size_t out, std::size_t in,
                          std::size_t batch) noexcept {
    LOTUS_PROF_COUNT("rl.matmul_calls", 1);
    LOTUS_PROF_COUNT("rl.matmul_rows", batch);
    kernel_set().matmul(a, x, b, y, out, in, batch);
}

void Matrix::slice_matmul_transposed(const Matrix& a, const Matrix& y_grad, Matrix& x_grad,
                                     std::span<const Slice> slices) noexcept {
    kernel_set().matmul_transposed(a, y_grad, x_grad, slices);
}

void Matrix::slice_outer_accumulate_batch(Matrix& grad, const Matrix& y_grad,
                                          const Matrix& x,
                                          std::span<const Slice> slices) noexcept {
    kernel_set().outer_accumulate_batch(grad, y_grad, x, slices);
}

} // namespace lotus::rl
