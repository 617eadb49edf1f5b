// Bit-identity of the batched RL kernel sets (rl::kernel_sets()). Every set
// the host can run must give the same bits as "baseline" on the forward
// (slice_matmul) and both backward kernels (slice_matmul_transposed,
// slice_outer_accumulate_batch), over shape grids that hit every tile tail
// of every set: `out % 4` in {1, 2, 3}, batches below, between and above
// the 8-sample tile, and ragged `in` around the 16- and 32-column backward
// tiles. The baseline set is itself checked against plain loops in the
// summation order matrix.hpp documents. Outputs are oversized and poisoned,
// so a write outside the slice shows up as a difference.
//
// On a host without AVX2 only the baseline set runs; the avx2 tests skip.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "rl/matrix.hpp"
#include "util/rng.hpp"

namespace lotus::rl {
namespace {

[[nodiscard]] Matrix random_matrix(std::size_t rows, std::size_t cols, util::Rng& rng) {
    Matrix m(rows, cols);
    for (auto& v : m.flat()) v = rng.uniform(-1.0, 1.0);
    return m;
}

[[nodiscard]] const KernelSet& baseline() { return kernel_sets().front(); }

[[nodiscard]] const KernelSet* find_set(std::string_view name) {
    for (const auto& set : kernel_sets()) {
        if (name == set.name) return &set;
    }
    return nullptr;
}

[[nodiscard]] bool host_has_avx2() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

/// Bitwise equality of two whole matrices, padding included.
void expect_same_bits(const Matrix& a, const Matrix& b, const std::string& what) {
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    EXPECT_EQ(std::memcmp(a.flat().data(), b.flat().data(), a.size() * sizeof(double)), 0)
        << what;
}

// ---------------------------------------------------------------------------
// Forward: Matrix::slice_matmul.

struct MatmulShape {
    std::size_t out, in, batch;
};

[[nodiscard]] std::string label(const MatmulShape& s) {
    return std::to_string(s.out) + "x" + std::to_string(s.in) + " batch " +
           std::to_string(s.batch);
}

/// Every combination of these crosses each tail of both sets' forward
/// tiles (2 or 4 outputs x 8 samples, then 2 or 4 samples, then one).
[[nodiscard]] std::vector<MatmulShape> matmul_shapes() {
    std::vector<MatmulShape> shapes;
    for (const std::size_t out : {1, 2, 3, 4, 5, 6, 7, 48, 49, 50, 51}) {
        for (const std::size_t in : {1, 7, 17, 31, 33, 47}) {
            for (std::size_t batch = 1; batch <= 17; ++batch) shapes.push_back({out, in, batch});
            shapes.push_back({out, in, 32});
            shapes.push_back({out, in, 33});
        }
    }
    shapes.push_back({96, 96, 16});
    shapes.push_back({128, 96, 2});
    shapes.push_back({128, 128, 32});
    return shapes;
}

struct MatmulCase {
    Matrix a, x, x_rows;
    std::vector<double> b;
};

/// Weights wider than `in`, X feature-major with a poisoned extra row and
/// column (X must only be read in its slice, and poison there would show).
[[nodiscard]] MatmulCase matmul_case(const MatmulShape& s, util::Rng& rng) {
    MatmulCase c{random_matrix(s.out, s.in + 2, rng), Matrix(s.in + 1, s.batch + 1, -77.0),
                 random_matrix(s.batch, s.in, rng), std::vector<double>(s.out)};
    for (std::size_t k = 0; k < s.batch; ++k) {
        for (std::size_t i = 0; i < s.in; ++i) c.x(i, k) = c.x_rows(k, i);
    }
    for (auto& v : c.b) v = rng.uniform(-1.0, 1.0);
    return c;
}

/// Y of one set, one row and one column larger than the slice, poisoned.
[[nodiscard]] Matrix run_matmul(const KernelSet& set, const MatmulCase& c,
                                const MatmulShape& s) {
    Matrix y(s.out + 1, s.batch + 1, -99.0);
    set.matmul(c.a, c.x, c.b, y, s.out, s.in, s.batch);
    return y;
}

/// The baseline's Y against slice_matvec per sample (the scalar chain
/// over c ascending from b[r]), with the padding untouched.
void check_matmul_reference(const Matrix& y, const MatmulCase& c, const MatmulShape& s) {
    std::vector<double> ref(s.out);
    for (std::size_t k = 0; k < s.batch; ++k) {
        Matrix::slice_matvec(c.a, c.x_rows.row(k), c.b, ref, s.out, s.in);
        for (std::size_t r = 0; r < s.out; ++r) {
            const double got = y(r, k);
            ASSERT_EQ(std::memcmp(&ref[r], &got, sizeof(double)), 0)
                << label(s) << " (" << r << ", " << k << ")";
        }
        ASSERT_EQ(y(s.out, k), -99.0) << label(s);
    }
    for (std::size_t r = 0; r <= s.out; ++r) ASSERT_EQ(y(r, s.batch), -99.0) << label(s);
}

void check_matmul(const KernelSet& set) {
    util::Rng rng(17);
    for (const auto& s : matmul_shapes()) {
        const MatmulCase c = matmul_case(s, rng);
        const Matrix base = run_matmul(baseline(), c, s);
        check_matmul_reference(base, c, s);
        expect_same_bits(run_matmul(set, c, s), base, std::string(set.name) + " " + label(s));
    }
}

// ---------------------------------------------------------------------------
// Backward: Matrix::slice_matmul_transposed and slice_outer_accumulate_batch.

/// How the per-sample slices of a batch differ: all full, every other
/// sample at the 0.75x slice (as LOTUS batches do), or each sample's
/// (out_k, in_k) drawn at random (ragged column ranges everywhere).
enum class Slicing { Full, Alternating, Random };

struct BackwardShape {
    std::size_t batch, out, in;
    Slicing slicing;
    std::size_t zero_every; // every n-th upstream gradient entry is 0.0 (0: none)
};

[[nodiscard]] std::string label(const BackwardShape& s) {
    return "batch " + std::to_string(s.batch) + " out " + std::to_string(s.out) + " in " +
           std::to_string(s.in) + " slicing " + std::to_string(static_cast<int>(s.slicing)) +
           " zero_every " + std::to_string(s.zero_every);
}

/// Batches around the 8-sample forward tile and past one 64-term chunk;
/// `in` ragged around every backward tile width of both sets (2 to 32 columns).
[[nodiscard]] std::vector<BackwardShape> backward_shapes() {
    std::vector<BackwardShape> shapes;
    for (const std::size_t batch : {1, 4, 5, 6, 7, 9, 12, 15, 33}) {
        for (const std::size_t out : {1, 3, 6, 49}) {
            for (const std::size_t in : {6, 7, 17, 23, 31, 33, 40, 47, 128}) {
                for (const auto slicing : {Slicing::Full, Slicing::Alternating, Slicing::Random}) {
                    shapes.push_back({batch, out, in, slicing, 0});
                    shapes.push_back({batch, out, in, slicing, 3});
                }
            }
        }
    }
    shapes.push_back({70, 48, 128, Slicing::Alternating, 0});
    shapes.push_back({150, 96, 47, Slicing::Random, 5});
    return shapes;
}

struct BackwardCase {
    Matrix a;      // weights: out + 1 rows, in + 3 columns
    Matrix x;      // sample-major inputs
    Matrix dy;     // sample-major upstream gradients, out + 1 columns
    Matrix grad0;  // starting weight gradient (accumulated into)
    std::vector<Matrix::Slice> slices;
};

[[nodiscard]] BackwardCase backward_case(const BackwardShape& s, util::Rng& rng) {
    BackwardCase c{random_matrix(s.out + 1, s.in + 3, rng),
                   random_matrix(s.batch, s.in + 3, rng),
                   random_matrix(s.batch, s.out + 1, rng),
                   random_matrix(s.out + 2, s.in + 3, rng),
                   std::vector<Matrix::Slice>(s.batch)};
    for (std::size_t k = 0; k < s.batch; ++k) {
        auto& slice = c.slices[k];
        switch (s.slicing) {
        case Slicing::Full:
            slice = {s.out, s.in};
            break;
        case Slicing::Alternating:
            slice = k % 2 == 1 ? Matrix::Slice{(3 * s.out + 3) / 4, (3 * s.in + 3) / 4}
                               : Matrix::Slice{s.out, s.in};
            break;
        case Slicing::Random:
            slice = {static_cast<std::size_t>(rng.uniform_int(1, static_cast<std::int64_t>(s.out))),
                     static_cast<std::size_t>(rng.uniform_int(1, static_cast<std::int64_t>(s.in)))};
            break;
        }
    }
    std::size_t nth = 0;
    for (std::size_t k = 0; k < s.batch; ++k) {
        for (std::size_t r = 0; r < s.out; ++r) {
            if (s.zero_every > 0 && ++nth % s.zero_every == 0) c.dy(k, r) = 0.0;
        }
    }
    c.dy(0, 0) = -0.0;
    return c;
}

struct BackwardOut {
    Matrix dx;
    Matrix grad;
};

/// Both backward kernels of one set. dx has a poisoned extra row and three
/// extra columns; grad starts from grad0, whose extra rows and columns the
/// kernels must not touch either.
[[nodiscard]] BackwardOut run_backward(const KernelSet& set, const BackwardCase& c,
                                       const BackwardShape& s) {
    BackwardOut o{Matrix(s.batch + 1, s.in + 3, -5.0), c.grad0};
    set.matmul_transposed(c.a, c.dy, o.dx, c.slices);
    set.outer_accumulate_batch(o.grad, c.dy, c.x, c.slices);
    return o;
}

/// Plain loops in the documented orders: DX[k, c] one chain from 0.0 over
/// r ascending; grad(r, c) one chain from its value over k ascending; both
/// skip DY[k, r] == 0.0.
[[nodiscard]] BackwardOut naive_backward(const BackwardCase& c, const BackwardShape& s) {
    BackwardOut o{Matrix(s.batch + 1, s.in + 3, -5.0), c.grad0};
    for (std::size_t k = 0; k < s.batch; ++k) {
        const auto [out, in] = c.slices[k];
        for (std::size_t col = 0; col < in; ++col) {
            double acc = 0.0;
            for (std::size_t r = 0; r < out; ++r) {
                if (c.dy(k, r) != 0.0) acc += c.dy(k, r) * c.a(r, col);
            }
            o.dx(k, col) = acc;
        }
        for (std::size_t r = 0; r < out; ++r) {
            const double d = c.dy(k, r);
            if (d == 0.0) continue;
            for (std::size_t col = 0; col < in; ++col) o.grad(r, col) += d * c.x(k, col);
        }
    }
    return o;
}

void check_backward(const KernelSet& set) {
    util::Rng rng(29);
    for (const auto& s : backward_shapes()) {
        const BackwardCase c = backward_case(s, rng);
        const BackwardOut base = run_backward(baseline(), c, s);
        const BackwardOut ref = naive_backward(c, s);
        expect_same_bits(base.dx, ref.dx, "baseline dx, " + label(s));
        expect_same_bits(base.grad, ref.grad, "baseline grad, " + label(s));
        const BackwardOut got = run_backward(set, c, s);
        expect_same_bits(got.dx, base.dx, std::string(set.name) + " dx, " + label(s));
        expect_same_bits(got.grad, base.grad, std::string(set.name) + " grad, " + label(s));
        if (::testing::Test::HasFailure()) return; // one shape's report is enough
    }
}

// ---------------------------------------------------------------------------

TEST(KernelIsa, SelectedSetIsAvx2ExactlyWhenTheHostHasAvx2) {
    const auto sets = kernel_sets();
    ASSERT_FALSE(sets.empty());
    EXPECT_STREQ(sets.front().name, "baseline");
    EXPECT_EQ(sets.size(), host_has_avx2() ? 2U : 1U);
    EXPECT_STREQ(kernel_set().name, host_has_avx2() ? "avx2" : "baseline");
    EXPECT_EQ(&kernel_set(), &sets.back());
}

TEST(KernelIsa, BaselineForwardMatchesScalarReference) { check_matmul(baseline()); }

TEST(KernelIsa, BaselineBackwardMatchesNaiveReference) { check_backward(baseline()); }

TEST(KernelIsa, Avx2ForwardBitIdenticalToBaseline) {
    const KernelSet* avx2 = find_set("avx2");
    if (avx2 == nullptr) GTEST_SKIP() << "host has no AVX2: only the baseline set runs here";
    check_matmul(*avx2);
}

TEST(KernelIsa, Avx2BackwardBitIdenticalToBaseline) {
    const KernelSet* avx2 = find_set("avx2");
    if (avx2 == nullptr) GTEST_SKIP() << "host has no AVX2: only the baseline set runs here";
    check_backward(*avx2);
}

} // namespace
} // namespace lotus::rl
