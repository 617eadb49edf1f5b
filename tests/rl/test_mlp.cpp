// Tests for the slimmable MLP: width arithmetic (including the paper's
// "ceil(0.75 * 7) = 6 drops the proposal input" property), forward/backward
// correctness, and the masked-update semantics. Gradients come from the
// production minibatch backward (forward_batch / backward_batch).

#include <gtest/gtest.h>

#include <cmath>

#include "one_sample.hpp"
#include "rl/mlp.hpp"

namespace lotus::rl {
namespace {

MlpConfig small_config() {
    MlpConfig cfg;
    cfg.dims = {7, 16, 16, 16, 12};
    cfg.slim_input = true;
    cfg.slim_output = false;
    cfg.seed = 99;
    return cfg;
}

TEST(SlimmableMlp, RejectsDegenerateTopology) {
    MlpConfig cfg;
    cfg.dims = {4};
    EXPECT_THROW(SlimmableMlp{cfg}, std::invalid_argument);
    cfg.dims = {4, 0, 2};
    EXPECT_THROW(SlimmableMlp{cfg}, std::invalid_argument);
}

TEST(SlimmableMlp, ActiveUnitsPaperProperty) {
    // The design observation of Sec. 4.3.4: at width 0.75 the 7-feature input
    // layer activates exactly 6 units -- dropping the proposal count.
    SlimmableMlp net(small_config());
    EXPECT_EQ(net.active_units(0, 0.75), 6u);
    EXPECT_EQ(net.active_units(0, 1.0), 7u);
}

TEST(SlimmableMlp, HiddenLayersScaleByCeil) {
    SlimmableMlp net(small_config());
    EXPECT_EQ(net.active_units(1, 0.75), 12u); // ceil(0.75*16)
    EXPECT_EQ(net.active_units(1, 0.5), 8u);
    EXPECT_EQ(net.active_units(1, 1.0), 16u);
}

TEST(SlimmableMlp, OutputLayerAlwaysFull) {
    SlimmableMlp net(small_config());
    EXPECT_EQ(net.active_units(4, 0.75), 12u);
    EXPECT_EQ(net.active_units(4, 0.25), 12u);
}

TEST(SlimmableMlp, NonSlimInputKeepsFullWidth) {
    auto cfg = small_config();
    cfg.slim_input = false;
    SlimmableMlp net(cfg);
    EXPECT_EQ(net.active_units(0, 0.75), 7u);
}

TEST(SlimmableMlp, WidthValidation) {
    SlimmableMlp net(small_config());
    EXPECT_THROW((void)net.active_units(0, 0.0), std::invalid_argument);
    EXPECT_THROW((void)net.active_units(0, 1.5), std::invalid_argument);
    EXPECT_THROW((void)net.active_units(9, 1.0), std::out_of_range);
}

TEST(SlimmableMlp, ForwardOutputDimIsFull) {
    SlimmableMlp net(small_config());
    const std::vector<double> x(7, 0.5);
    EXPECT_EQ(net.forward(x, 1.0).size(), 12u);
    EXPECT_EQ(net.forward(x, 0.75).size(), 12u);
}

TEST(SlimmableMlp, ReducedWidthIgnoresLastInput) {
    SlimmableMlp net(small_config());
    std::vector<double> x(7, 0.5);
    const auto q1 = net.forward(x, 0.75);
    x[6] = 1e6; // poison the proposal feature
    const auto q2 = net.forward(x, 0.75);
    for (std::size_t i = 0; i < q1.size(); ++i) {
        ASSERT_DOUBLE_EQ(q1[i], q2[i]) << "reduced width read the dropped feature";
    }
    // The full width MUST see it.
    const auto q3 = net.forward(x, 1.0);
    x[6] = 0.5;
    const auto q4 = net.forward(x, 1.0);
    bool any_diff = false;
    for (std::size_t i = 0; i < q3.size(); ++i) {
        if (q3[i] != q4[i]) any_diff = true;
    }
    EXPECT_TRUE(any_diff);
}

TEST(SlimmableMlp, WidthsShareLeadingParameters) {
    // Zeroing a leading weight changes BOTH widths' outputs: the two widths
    // are one network, not two (Sec. 4.3.4 "share major parameters").
    SlimmableMlp net(small_config());
    const std::vector<double> x(7, 0.3);
    const auto a_full = net.forward(x, 1.0);
    const auto a_red = net.forward(x, 0.75);
    net.layers()[0].weights()(0, 0) += 5.0;
    const auto b_full = net.forward(x, 1.0);
    const auto b_red = net.forward(x, 0.75);
    EXPECT_NE(a_full[0], b_full[0]);
    EXPECT_NE(a_red[0], b_red[0]);
}

TEST(SlimmableMlp, InputTooShortThrows) {
    SlimmableMlp net(small_config());
    const std::vector<double> x(5, 0.0); // needs 6 at width 0.75
    EXPECT_THROW((void)net.forward(x, 0.75), std::invalid_argument);
}

TEST(SlimmableMlp, DeterministicForSeed) {
    SlimmableMlp a(small_config());
    SlimmableMlp b(small_config());
    const std::vector<double> x(7, 0.1);
    EXPECT_EQ(a.forward(x, 1.0), b.forward(x, 1.0));
}

TEST(SlimmableMlp, CopyParametersMakesNetsAgree) {
    auto cfg = small_config();
    SlimmableMlp a(cfg);
    cfg.seed = 12345;
    SlimmableMlp b(cfg);
    const std::vector<double> x(7, 0.2);
    EXPECT_NE(a.forward(x, 1.0), b.forward(x, 1.0));
    b.copy_parameters_from(a);
    EXPECT_EQ(a.forward(x, 1.0), b.forward(x, 1.0));
}

/// End-to-end finite-difference gradient check through the whole MLP.
void gradcheck_mlp(double width, std::uint64_t seed) {
    MlpConfig cfg;
    cfg.dims = {7, 9, 8, 6};
    cfg.seed = seed;
    SlimmableMlp net(cfg);

    std::vector<double> x(7);
    util::Rng rng(seed + 1);
    for (auto& v : x) v = rng.uniform(-1, 1);

    // Loss: Q[2] (single-action TD-style gradient).
    std::vector<double> dout(net.output_dim(), 0.0);
    dout[2] = 1.0;

    net.zero_grad();
    test::backprop_one(net, x, width, dout);

    auto loss = [&] { return net.forward(x, width)[2]; };
    const double eps = 1e-6;
    // Spot-check every layer's first weights and a scattering of others.
    for (std::size_t li = 0; li < net.num_layers(); ++li) {
        auto& layer = net.layers()[li];
        const std::size_t rmax = std::min<std::size_t>(3, layer.out_features());
        const std::size_t cmax = std::min<std::size_t>(3, layer.in_features());
        for (std::size_t r = 0; r < rmax; ++r) {
            for (std::size_t c = 0; c < cmax; ++c) {
                double& w = layer.weights()(r, c);
                const double orig = w;
                w = orig + eps;
                const double lp = loss();
                w = orig - eps;
                const double lm = loss();
                w = orig;
                const double numeric = (lp - lm) / (2 * eps);
                ASSERT_NEAR(layer.grad_weights()(r, c), numeric, 1e-4)
                    << "layer " << li << " w(" << r << "," << c << ") width " << width;
            }
        }
    }
}

TEST(SlimmableMlp, GradCheckFullWidth) {
    gradcheck_mlp(1.0, 7);
}

TEST(SlimmableMlp, GradCheckReducedWidth) {
    gradcheck_mlp(0.75, 8);
}

TEST(SlimmableMlp, GradCheckHalfWidth) {
    gradcheck_mlp(0.5, 9);
}

// A minibatch mixing widths in one backward_batch: 1.0x, then 0.75x, then
// 1.0x (two width-group caches, the train step's layout). The loss is the
// weighted sum of one Q-value per sample, so every gradient -- including the
// tail weights only the full-width samples reach -- must match central
// differences of that sum.
TEST(SlimmableMlp, GradCheckMixedWidthBatch) {
    MlpConfig cfg;
    cfg.dims = {7, 9, 8, 6};
    cfg.seed = 21;
    SlimmableMlp net(cfg);
    util::Rng rng(22);

    const double widths[] = {1.0, 0.75, 1.0};
    const std::size_t actions[] = {2, 5, 0};
    const double weights[] = {1.0, -0.5, 0.75};
    Matrix x(3, 7);
    for (auto& v : x.flat()) v = rng.uniform(-1, 1);

    // Group caches: samples 0 and 2 at 1.0x, sample 1 at 0.75x.
    Matrix full(2, 7);
    Matrix narrow(1, 7);
    std::copy(x.row(0).begin(), x.row(0).end(), full.row(0).begin());
    std::copy(x.row(1).begin(), x.row(1).end(), narrow.row(0).begin());
    std::copy(x.row(2).begin(), x.row(2).end(), full.row(1).begin());
    BatchCache full_cache;
    BatchCache narrow_cache;
    net.forward_batch(full, 2, 1.0, full_cache);
    net.forward_batch(narrow, 1, 0.75, narrow_cache);
    const BatchSample samples[] = {{&full_cache, 0}, {&narrow_cache, 0}, {&full_cache, 1}};
    Matrix dout(3, net.output_dim());
    for (std::size_t i = 0; i < 3; ++i) dout(i, actions[i]) = weights[i];
    net.zero_grad();
    BackwardScratch scratch;
    net.backward_batch(samples, dout, scratch);

    auto loss = [&] {
        double l = 0.0;
        for (std::size_t i = 0; i < 3; ++i) {
            l += weights[i] * net.forward(x.row(i), widths[i])[actions[i]];
        }
        return l;
    };
    const double eps = 1e-6;
    std::size_t tail_checked = 0;
    for (std::size_t li = 0; li < net.num_layers(); ++li) {
        auto& layer = net.layers()[li];
        const std::size_t narrow_rows = net.active_units(li + 1, 0.75);
        const std::size_t narrow_cols = net.active_units(li, 0.75);
        for (std::size_t r = 0; r < layer.out_features(); ++r) {
            for (std::size_t c = 0; c < layer.in_features(); ++c) {
                double& w = layer.weights()(r, c);
                const double orig = w;
                w = orig + eps;
                const double lp = loss();
                w = orig - eps;
                const double lm = loss();
                w = orig;
                const double numeric = (lp - lm) / (2 * eps);
                ASSERT_NEAR(layer.grad_weights()(r, c), numeric, 1e-4)
                    << "layer " << li << " w(" << r << "," << c << ")";
                if (r >= narrow_rows || c >= narrow_cols) ++tail_checked;
            }
        }
    }
    EXPECT_GT(tail_checked, 0u);
}

TEST(SlimmableMlp, ReducedBackwardLeavesTailGradientsZero) {
    SlimmableMlp net(small_config());
    const std::vector<double> x(7, 0.4);
    std::vector<double> dout(net.output_dim(), 1.0);
    net.zero_grad();
    test::backprop_one(net, x, 0.75, dout);

    // Hidden layer 1 (16 units, 12 active at 0.75): rows >= 12 of layer 1's
    // weight grad must be exactly zero and untouched.
    auto& l1 = net.layers()[1];
    for (std::size_t r = 12; r < 16; ++r) {
        for (std::size_t c = 0; c < l1.in_features(); ++c) {
            ASSERT_EQ(l1.grad_weights()(r, c), 0.0);
        }
        ASSERT_EQ(l1.marked_cols()[r], 0u);
    }
}

// Parameterized width sweep: forward must be finite and stable across widths.
class MlpWidthSweep : public ::testing::TestWithParam<double> {};

TEST_P(MlpWidthSweep, ForwardFiniteAtAllWidths) {
    SlimmableMlp net(small_config());
    const std::vector<double> x(7, 0.9);
    const auto q = net.forward(x, GetParam());
    ASSERT_EQ(q.size(), 12u);
    for (const double v : q) ASSERT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(Widths, MlpWidthSweep,
                         ::testing::Values(0.25, 0.5, 0.625, 0.75, 0.875, 1.0));

} // namespace
} // namespace lotus::rl
