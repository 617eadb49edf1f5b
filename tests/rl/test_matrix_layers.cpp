// Tests for the matrix kernels and slimmable layers, including
// finite-difference gradient checks at multiple widths. Backward passes run
// the production minibatch kernels on one-sample batches.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "one_sample.hpp"
#include "rl/layers.hpp"
#include "rl/matrix.hpp"
#include "rl/mlp.hpp"
#include "util/rng.hpp"

namespace lotus::rl {
namespace {

TEST(Matrix, ConstructionAndAccess) {
    Matrix m(2, 3, 1.5);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_EQ(m.size(), 6u);
    EXPECT_DOUBLE_EQ(m.at(1, 2), 1.5);
    m.at(0, 1) = 7.0;
    EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
}

TEST(Matrix, ZeroDimensionThrows) {
    EXPECT_THROW(Matrix(0, 3), std::invalid_argument);
    EXPECT_THROW(Matrix(3, 0), std::invalid_argument);
}

// rows * cols must not wrap: 2^33 x 2^31 is 2^64, which would wrap to 0.
TEST(Matrix, SizeOverflowThrowsBeforeAllocating) {
    const std::size_t big = std::size_t{1} << 33;
    const std::size_t wraps_to_zero = std::size_t{1} << 31;
    EXPECT_THROW(Matrix(big, wraps_to_zero), std::invalid_argument);
    EXPECT_THROW(Matrix(std::numeric_limits<std::size_t>::max(), 2), std::invalid_argument);
    try {
        Matrix m(big, wraps_to_zero);
        FAIL() << "expected an overflow error";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("overflows"), std::string::npos) << e.what();
    }
}

TEST(Matrix, ResizeOverflowThrowsAndLeavesMatrixUnchanged) {
    Matrix m(2, 3, 4.0);
    EXPECT_THROW(m.resize(std::size_t{1} << 33, std::size_t{1} << 31), std::invalid_argument);
    EXPECT_THROW(m.resize(0, 3), std::invalid_argument);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_EQ(m.size(), 6u);
    EXPECT_DOUBLE_EQ(m(1, 2), 4.0);
    m.resize(3, 1, 0.5);
    EXPECT_EQ(m.size(), 3u);
    EXPECT_DOUBLE_EQ(m(2, 0), 0.5);
}

TEST(Matrix, AtBoundsChecked) {
    Matrix m(2, 2);
    EXPECT_THROW((void)m.at(2, 0), std::out_of_range);
    EXPECT_THROW((void)m.at(0, 2), std::out_of_range);
}

TEST(Matrix, SliceMatvecFullSize) {
    Matrix a(2, 3);
    // a = [[1,2,3],[4,5,6]]
    double v = 1;
    for (std::size_t r = 0; r < 2; ++r) {
        for (std::size_t c = 0; c < 3; ++c) a(r, c) = v++;
    }
    const std::vector<double> x{1, 0, -1};
    const std::vector<double> b{10, 20};
    std::vector<double> y(2);
    Matrix::slice_matvec(a, x, b, y, 2, 3);
    EXPECT_DOUBLE_EQ(y[0], 10 + 1 - 3);
    EXPECT_DOUBLE_EQ(y[1], 20 + 4 - 6);
}

TEST(Matrix, SliceMatvecPartial) {
    Matrix a(3, 3, 1.0);
    const std::vector<double> x{1, 1, 1};
    const std::vector<double> b{0, 0, 0};
    std::vector<double> y(3, -99);
    Matrix::slice_matvec(a, x, b, y, 2, 2); // only 2x2 corner
    EXPECT_DOUBLE_EQ(y[0], 2.0);
    EXPECT_DOUBLE_EQ(y[1], 2.0);
    EXPECT_DOUBLE_EQ(y[2], -99.0); // untouched
}

TEST(Matrix, TransposedMatmulMatchesManual) {
    Matrix a(2, 3);
    double v = 1;
    for (std::size_t r = 0; r < 2; ++r) {
        for (std::size_t c = 0; c < 3; ++c) a(r, c) = v++;
    }
    Matrix dy(1, 2);
    dy(0, 0) = 2;
    dy(0, 1) = -1;
    Matrix dx(1, 3);
    const Matrix::Slice slice{2, 3};
    Matrix::slice_matmul_transposed(a, dy, dx, {&slice, 1});
    // dx = A^T dy
    EXPECT_DOUBLE_EQ(dx(0, 0), 2 * 1 - 1 * 4);
    EXPECT_DOUBLE_EQ(dx(0, 1), 2 * 2 - 1 * 5);
    EXPECT_DOUBLE_EQ(dx(0, 2), 2 * 3 - 1 * 6);
}

TEST(Matrix, OuterAccumulate) {
    Matrix g(2, 2, 0.0);
    Matrix dy(1, 2);
    dy(0, 0) = 1;
    dy(0, 1) = 2;
    Matrix x(1, 2);
    x(0, 0) = 3;
    x(0, 1) = 4;
    const Matrix::Slice slice{2, 2};
    Matrix::slice_outer_accumulate_batch(g, dy, x, {&slice, 1});
    Matrix::slice_outer_accumulate_batch(g, dy, x, {&slice, 1}); // accumulate twice
    EXPECT_DOUBLE_EQ(g(0, 0), 2 * 1 * 3);
    EXPECT_DOUBLE_EQ(g(1, 1), 2 * 2 * 4);
}

TEST(ReluOps, ForwardClampsNegativePrefixOnly) {
    std::vector<double> x{-1, 2, -3, 4};
    relu_inplace(x, 2);
    EXPECT_DOUBLE_EQ(x[0], 0.0);
    EXPECT_DOUBLE_EQ(x[1], 2.0);
    EXPECT_DOUBLE_EQ(x[2], -3.0); // outside active prefix
}

// The ReLU gradient inside SlimmableMlp::backward_batch: a {1, 3, 1} net
// whose hidden pre-activations are exactly {-0.5, 0.5, 0.0} passes the
// upstream gradient only where the pre-activation is positive, so the
// hidden layer's bias gradient is the mask itself.
TEST(ReluOps, BackwardMasksByPreActivation) {
    MlpConfig cfg;
    cfg.dims = {1, 3, 1};
    SlimmableMlp net(cfg);
    auto& hidden = net.layers()[0];
    const double pre[] = {-0.5, 0.5, 0.0};
    for (std::size_t r = 0; r < 3; ++r) {
        hidden.weights()(r, 0) = pre[r];
        hidden.bias()[r] = 0.0;
        net.layers()[1].weights()(0, r) = 1.0;
    }
    const std::vector<double> x{1.0};
    const std::vector<double> dout{1.0};
    test::backprop_one(net, x, 1.0, dout);
    EXPECT_DOUBLE_EQ(hidden.grad_bias()[0], 0.0);
    EXPECT_DOUBLE_EQ(hidden.grad_bias()[1], 1.0);
    EXPECT_DOUBLE_EQ(hidden.grad_bias()[2], 0.0); // relu'(0) = 0 by convention here
}

TEST(SlimmableLinear, ForwardMatchesManual) {
    util::Rng rng(1);
    SlimmableLinear layer(3, 2, rng);
    layer.weights()(0, 0) = 1;
    layer.weights()(0, 1) = 2;
    layer.weights()(0, 2) = 3;
    layer.weights()(1, 0) = -1;
    layer.weights()(1, 1) = 0;
    layer.weights()(1, 2) = 1;
    layer.bias()[0] = 0.5;
    layer.bias()[1] = -0.5;

    const std::vector<double> x{1, 1, 1};
    std::vector<double> y(2);
    layer.forward(x, y, 3, 2);
    EXPECT_DOUBLE_EQ(y[0], 6.5);
    EXPECT_DOUBLE_EQ(y[1], -0.5);
}

TEST(SlimmableLinear, ReducedSliceIgnoresTail) {
    util::Rng rng(2);
    SlimmableLinear layer(4, 4, rng);
    const std::vector<double> x{1, 1, 1, 1};
    std::vector<double> y_full(4);
    layer.forward(x, y_full, 4, 4);

    // Poison the tail weights; a 3/3 slice must not see them.
    layer.weights()(0, 3) = 1e9;
    layer.weights()(3, 0) = 1e9;
    std::vector<double> y_slice(3);
    layer.forward(x, y_slice, 3, 3);
    for (int r = 0; r < 3; ++r) {
        ASSERT_LT(std::abs(y_slice[static_cast<std::size_t>(r)]), 1e6)
            << "tail weight leaked into slice";
    }
}

TEST(SlimmableLinear, BackwardMarksOnlyActiveSlice) {
    util::Rng rng(3);
    SlimmableLinear layer(4, 4, rng);
    const std::vector<double> x{1, 2, 3, 4};
    const std::vector<double> dy{1, 1, 1};
    std::vector<double> dx(3);
    test::backward_one(layer, x, dy, dx, 3, 3);

    // Rows 0-2 touch columns [0, 3) (and so their biases); row 3 nothing.
    const auto marked = layer.marked_cols();
    ASSERT_EQ(marked.size(), 4u);
    for (std::size_t r = 0; r < 4; ++r) {
        EXPECT_EQ(marked[r], r < 3 ? 3u : 0u) << "r=" << r;
    }
}

TEST(SlimmableLinear, ZeroGradClears) {
    util::Rng rng(4);
    SlimmableLinear layer(2, 2, rng);
    const std::vector<double> x{1, 1};
    const std::vector<double> dy{1, 1};
    std::vector<double> dx(2);
    test::backward_one(layer, x, dy, dx, 2, 2);
    layer.zero_grad();
    for (const double g : layer.grad_weights().flat()) EXPECT_EQ(g, 0.0);
    for (const auto m : layer.marked_cols()) EXPECT_EQ(m, 0u);
}

/// Finite-difference gradient check of a single layer at a given slice.
void gradient_check_layer(std::size_t in, std::size_t out, std::size_t in_active,
                          std::size_t out_active, std::uint64_t seed) {
    util::Rng rng(seed);
    SlimmableLinear layer(in, out, rng);
    std::vector<double> x(in_active);
    for (auto& v : x) v = rng.uniform(-1, 1);

    // Loss = sum(y). dL/dy = 1.
    const std::vector<double> dy(out_active, 1.0);
    std::vector<double> dx(in_active);
    layer.zero_grad();
    test::backward_one(layer, x, dy, dx, in_active, out_active);

    const double eps = 1e-6;
    auto loss = [&] {
        std::vector<double> y(out_active);
        layer.forward(x, y, in_active, out_active);
        double s = 0;
        for (const double v : y) s += v;
        return s;
    };
    // Check a handful of weight gradients numerically.
    for (std::size_t r = 0; r < out_active; ++r) {
        for (std::size_t c = 0; c < in_active; ++c) {
            double& w = layer.weights()(r, c);
            const double orig = w;
            w = orig + eps;
            const double lp = loss();
            w = orig - eps;
            const double lm = loss();
            w = orig;
            const double numeric = (lp - lm) / (2 * eps);
            ASSERT_NEAR(layer.grad_weights()(r, c), numeric, 1e-5)
                << "weight (" << r << "," << c << ")";
        }
    }
}

TEST(SlimmableLinear, GradCheckFullWidth) {
    gradient_check_layer(5, 4, 5, 4, 10);
}

TEST(SlimmableLinear, GradCheckReducedWidth) {
    gradient_check_layer(5, 4, 4, 3, 11);
}

TEST(SlimmableLinear, GradCheckInputGradient) {
    util::Rng rng(12);
    SlimmableLinear layer(4, 3, rng);
    std::vector<double> x{0.3, -0.2, 0.8, 0.1};
    const std::vector<double> dy{1.0, 1.0, 1.0};
    std::vector<double> dx(4);
    test::backward_one(layer, x, dy, dx, 4, 3);

    const double eps = 1e-6;
    for (std::size_t i = 0; i < 4; ++i) {
        auto loss = [&] {
            std::vector<double> y(3);
            layer.forward(x, y, 4, 3);
            return y[0] + y[1] + y[2];
        };
        const double orig = x[i];
        x[i] = orig + eps;
        const double lp = loss();
        x[i] = orig - eps;
        const double lm = loss();
        x[i] = orig;
        ASSERT_NEAR(dx[i], (lp - lm) / (2 * eps), 1e-5) << "input " << i;
    }
}

} // namespace
} // namespace lotus::rl
