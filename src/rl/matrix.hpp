#pragma once
// Dense row-major matrix used by the neural-network substrate.
//
// The Q-networks in this reproduction are small MLPs (thousands of weights)
// in double precision, which keeps the finite-difference gradient tests in
// tests/rl exact to ~1e-7. The batched kernels reorder loops for the
// minibatch train step (vectorized across samples, one grad row loaded per
// batch) but never a reduction: each kernel states the order in which every
// output element is summed, and its result is bit-identical to plain loops
// in that order. The lotus target is compiled with -ffp-contract=off, so no
// build (-march, -mfma, aarch64) fuses a multiply and an add into an FMA.

#include <cstddef>
#include <span>
#include <vector>

namespace lotus::rl {

class Matrix {
public:
    Matrix() = default;
    /// Throws std::invalid_argument on a zero dimension or when rows * cols
    /// overflows std::size_t.
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
    [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

    [[nodiscard]] double& at(std::size_t r, std::size_t c);
    [[nodiscard]] double at(std::size_t r, std::size_t c) const;

    /// Unchecked element access (hot paths).
    [[nodiscard]] double& operator()(std::size_t r, std::size_t c) noexcept {
        return data_[r * cols_ + c];
    }
    [[nodiscard]] double operator()(std::size_t r, std::size_t c) const noexcept {
        return data_[r * cols_ + c];
    }

    [[nodiscard]] std::span<double> flat() noexcept { return data_; }
    [[nodiscard]] std::span<const double> flat() const noexcept { return data_; }

    [[nodiscard]] std::span<double> row(std::size_t r) noexcept;
    [[nodiscard]] std::span<const double> row(std::size_t r) const noexcept;

    void fill(double v) noexcept;

    /// Reshape in place to rows x cols, filling every element; reuses the
    /// underlying capacity (hot-path scratch matrices reallocate only to
    /// grow). Throws like the constructor on a zero dimension or a
    /// rows * cols overflow, leaving the matrix unchanged.
    void resize(std::size_t rows, std::size_t cols, double fill = 0.0);

    /// y = A[0:out, 0:in] * x[0:in] + b[0:out]; the slicing is what makes the
    /// layer "slimmable" (only the leading sub-matrix participates).
    /// Summation order: each y[r] is one chain that starts from b[r] and adds
    /// A(r, c) * x[c] for c = 0, 1, ..., in - 1 in ascending order.
    static void slice_matvec(const Matrix& a, std::span<const double> x,
                             std::span<const double> b, std::span<double> y,
                             std::size_t out, std::size_t in) noexcept;

    /// Y[0:out, k] = A[0:out, 0:in] * X[0:in, k] + b[0:out] for every column
    /// k < batch. X and Y are feature-major (units x samples: column k is
    /// sample k) and may have more rows/columns than in/out/batch; only the
    /// leading slices are touched. Vectorized across samples (see
    /// KernelSet), never across the reduction: every output element is one
    /// chain over c in ascending order starting from b[r], so each column is
    /// bit-identical to slice_matvec on that sample.
    static void slice_matmul(const Matrix& a, const Matrix& x, std::span<const double> b,
                             Matrix& y, std::size_t out, std::size_t in,
                             std::size_t batch) noexcept;

    /// Leading slice one sample of a batched backward reads: rows [0, out)
    /// of the weight matrix and columns [0, in).
    struct Slice {
        std::size_t out;
        std::size_t in;
    };

    /// DX[k, 0:in_k] = A[0:out_k, 0:in_k]^T * DY[k, 0:out_k] for every sample
    /// k < slices.size(), with DX and DY sample-major (row k = sample k).
    /// Columns of DX from in_k on are left untouched. Summation order: each
    /// element DX[k, c] is one chain that starts from 0.0 and adds
    /// DY[k, r] * A(r, c) for r = 0, 1, ..., out_k - 1 in ascending order,
    /// skipping every r with DY[k, r] == 0.0.
    static void slice_matmul_transposed(const Matrix& a, const Matrix& y_grad,
                                        Matrix& x_grad,
                                        std::span<const Slice> slices) noexcept;

    /// grad[0:out_k, 0:in_k] += DY[k, 0:out_k] (outer) X[k, 0:in_k] for
    /// k = 0, 1, ... in order (DY, X sample-major; DY needs max_k out_k
    /// columns, since every row reads its column). Summation order: each
    /// element grad(r, c) is one chain from its current value that adds
    /// DY[k, r] * X[k, c] for k = 0, 1, ... in span order over the samples
    /// with r < out_k and c < in_k, skipping every k with DY[k, r] == 0.0.
    static void slice_outer_accumulate_batch(Matrix& grad, const Matrix& y_grad,
                                             const Matrix& x,
                                             std::span<const Slice> slices) noexcept;

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/// The three batched kernels behind Matrix::slice_matmul,
/// slice_matmul_transposed and slice_outer_accumulate_batch, compiled for
/// one instruction set. Every set keeps the summation orders documented
/// above, so all sets produce the same bits; they differ only in vector
/// width and tile shape:
/// - "baseline" (any target): 2-double vectors; 2 outputs x 8 samples
///   forward, up to 16 columns per backward tile.
/// - "avx2" (x86 hosts with AVX2): 4-double vectors; 4 outputs x 8
///   samples forward, up to 32 columns per backward tile.
struct KernelSet {
    const char* name;
    decltype(&Matrix::slice_matmul) matmul;
    decltype(&Matrix::slice_matmul_transposed) matmul_transposed;
    decltype(&Matrix::slice_outer_accumulate_batch) outer_accumulate_batch;
};

/// The kernel sets this host can run, narrowest ("baseline") first.
[[nodiscard]] std::span<const KernelSet> kernel_sets() noexcept;

/// The set the Matrix::slice_* kernels run: the widest of kernel_sets(),
/// chosen once per process.
[[nodiscard]] const KernelSet& kernel_set() noexcept;

} // namespace lotus::rl
