// Tests for Adam + cosine LR: convergence, masked ("slimmable") updates,
// gradient clipping, and bit identity with the textbook step
// (adam_reference.hpp). Gradients come from the production minibatch
// backward on one-sample batches.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "adam_reference.hpp"
#include "one_sample.hpp"
#include "prof/profiler.hpp"
#include "rl/mlp.hpp"
#include "rl/optimizer.hpp"
#include "util/rng.hpp"

namespace lotus::rl {
namespace {

TEST(CosineLrSchedule, EndpointsAndMonotonicity) {
    CosineLrSchedule lr(0.01, 1e-4, 1000);
    EXPECT_NEAR(lr.at(0), 0.01, 1e-12);
    EXPECT_NEAR(lr.at(1000), 1e-4, 1e-12);
    EXPECT_NEAR(lr.at(500), 1e-4 + 0.5 * (0.01 - 1e-4), 1e-9);
    for (std::size_t t = 1; t <= 1000; ++t) {
        ASSERT_LE(lr.at(t), lr.at(t - 1)) << "not monotone at " << t;
    }
}

TEST(CosineLrSchedule, ClampsPastHorizon) {
    CosineLrSchedule lr(0.01, 1e-4, 100);
    EXPECT_NEAR(lr.at(5000), 1e-4, 1e-12);
}

TEST(CosineLrSchedule, Validation) {
    EXPECT_THROW(CosineLrSchedule(0.0, 0.0, 10), std::invalid_argument);
    EXPECT_THROW(CosineLrSchedule(0.01, 0.02, 10), std::invalid_argument);
    EXPECT_THROW(CosineLrSchedule(0.01, 1e-4, 0), std::invalid_argument);
}

/// Train a tiny MLP to regress a fixed target from a fixed input; Adam
/// should drive the loss close to zero.
TEST(Adam, ConvergesOnRegression) {
    MlpConfig cfg;
    cfg.dims = {2, 16, 1};
    cfg.slim_input = false;
    cfg.seed = 5;
    SlimmableMlp net(cfg);
    AdamConfig acfg;
    acfg.lr = 0.01;
    acfg.lr_min = 0.001;
    acfg.lr_total_steps = 2000;
    Adam adam(net, acfg);

    const std::vector<double> x{0.5, -0.25};
    const double target = 3.0;
    double loss = 0.0;
    for (int step = 0; step < 500; ++step) {
        test::OneSample sample;
        const double err = sample.forward(net, x, 1.0)[0] - target;
        loss = 0.5 * err * err;
        std::vector<double> dout{err};
        net.zero_grad();
        sample.backward(net, dout);
        adam.step(net);
    }
    EXPECT_LT(loss, 1e-4);
    EXPECT_EQ(adam.steps_taken(), 500u);
}

TEST(Adam, MaskedParametersExactlyUntouched) {
    // The paper: "the sampled transitions are used to update the Q-network
    // with alpha-x width, while the remaining weights are not updated."
    MlpConfig cfg;
    cfg.dims = {7, 8, 4};
    cfg.seed = 6;
    SlimmableMlp net(cfg);
    Adam adam(net, {});

    // Snapshot the tail (inactive at width 0.75) weights of layer 0:
    // rows >= ceil(0.75*8)=6 and cols >= ceil(0.75*7)=6.
    auto& l0 = net.layers()[0];
    std::vector<double> before;
    for (std::size_t r = 0; r < 8; ++r) {
        for (std::size_t c = 0; c < 7; ++c) {
            if (r >= 6 || c >= 6) before.push_back(l0.weights()(r, c));
        }
    }

    const std::vector<double> x(7, 0.5);
    for (int i = 0; i < 25; ++i) {
        std::vector<double> dout(net.output_dim(), 0.1);
        test::backprop_one(net, x, 0.75, dout);
        adam.step(net);
    }

    std::size_t k = 0;
    for (std::size_t r = 0; r < 8; ++r) {
        for (std::size_t c = 0; c < 7; ++c) {
            if (r >= 6 || c >= 6) {
                ASSERT_EQ(l0.weights()(r, c), before[k++])
                    << "inactive weight moved at (" << r << "," << c << ")";
            }
        }
    }
}

// After wide steps every parameter carries nonzero Adam moments, so a
// narrow step that updated its untouched tail (weights or biases) would
// still move it: the touched prefixes alone must decide what is updated.
TEST(Adam, TailFrozenByNarrowStepsDespiteMomentum) {
    MlpConfig cfg;
    cfg.dims = {7, 8, 4};
    cfg.seed = 9;
    SlimmableMlp net(cfg);
    Adam adam(net, {});
    util::Rng rng(10);
    const auto train = [&](double width, int steps) {
        for (int i = 0; i < steps; ++i) {
            std::vector<double> x(7);
            for (auto& v : x) v = rng.uniform(-1.0, 1.0);
            std::vector<double> dout(net.output_dim(), 0.1);
            test::backprop_one(net, x, width, dout);
            adam.step(net);
        }
    };
    train(1.0, 20);
    const auto& l0 = net.layers()[0];
    const std::vector<double> w_before(l0.weights().flat().begin(), l0.weights().flat().end());
    const std::vector<double> b_before(l0.bias().begin(), l0.bias().end());
    // Precondition: the wide steps did reach the tail biases (biases start
    // at 0), so their moments are nonzero.
    ASSERT_NE(b_before[6], 0.0);
    ASSERT_NE(b_before[7], 0.0);
    train(0.75, 5);

    // Layer 0 at 0.75: rows < 6 touch columns < 6 (and their biases).
    std::size_t moved_active = 0;
    for (std::size_t r = 0; r < 8; ++r) {
        for (std::size_t c = 0; c < 7; ++c) {
            const bool active = r < 6 && c < 6;
            const bool moved = l0.weights()(r, c) != w_before[r * 7 + c];
            if (active) {
                moved_active += moved ? 1 : 0;
            } else {
                EXPECT_FALSE(moved) << "tail weight moved at (" << r << "," << c << ")";
            }
        }
        if (r >= 6) {
            EXPECT_EQ(l0.bias()[r], b_before[r]) << "tail bias moved at " << r;
        }
    }
    EXPECT_GT(moved_active, 0u);
}

TEST(Adam, ActiveParametersDoMove) {
    MlpConfig cfg;
    cfg.dims = {7, 8, 4};
    cfg.seed = 7;
    SlimmableMlp net(cfg);
    Adam adam(net, {});
    auto& l0 = net.layers()[0];
    std::vector<double> before(l0.weights().flat().begin(), l0.weights().flat().end());

    const std::vector<double> x(7, 0.5);
    std::vector<double> dout(net.output_dim(), 0.5);
    test::backprop_one(net, x, 0.75, dout);
    adam.step(net);

    // At least one active-slice weight must have moved (individual entries
    // can have zero gradient through dead ReLUs).
    std::size_t moved = 0;
    const auto after = l0.weights().flat();
    for (std::size_t i = 0; i < after.size(); ++i) {
        if (after[i] != before[i]) ++moved;
    }
    EXPECT_GT(moved, 0u);
}

TEST(Adam, StepClearsGradientsAndTouchedPrefixes) {
    MlpConfig cfg;
    cfg.dims = {3, 4, 2};
    cfg.slim_input = false;
    SlimmableMlp net(cfg);
    Adam adam(net, {});
    const std::vector<double> x(3, 1.0);
    std::vector<double> dout(2, 1.0);
    test::backprop_one(net, x, 1.0, dout);
    adam.step(net);
    for (const auto& layer : net.layers()) {
        for (const auto m : layer.marked_cols()) ASSERT_EQ(m, 0u);
    }
}

TEST(Adam, GradClipBoundsStepSize) {
    MlpConfig cfg;
    cfg.dims = {2, 2};
    cfg.slim_input = false;
    cfg.seed = 8;
    SlimmableMlp clipped_net(cfg);
    SlimmableMlp free_net(cfg);
    free_net.copy_parameters_from(clipped_net);

    AdamConfig clip_cfg;
    clip_cfg.grad_clip = 0.001; // tiny clip
    AdamConfig free_cfg;
    free_cfg.grad_clip = 0.0; // disabled
    Adam clipped(clipped_net, clip_cfg);
    Adam free(free_net, free_cfg);

    const std::vector<double> x{100.0, -100.0}; // produces huge grads
    auto run = [&](SlimmableMlp& net, Adam& opt) {
        std::vector<double> dout{1e6, -1e6};
        net.zero_grad();
        test::backprop_one(net, x, 1.0, dout);
        opt.step(net);
    };
    run(clipped_net, clipped);
    run(free_net, free);

    // Both nets update, but neither should produce NaNs; the clipped one is
    // the well-behaved configuration used by the agents.
    for (const double w : clipped_net.layers()[0].weights().flat()) {
        ASSERT_TRUE(std::isfinite(w));
    }
    for (const double w : free_net.layers()[0].weights().flat()) {
        ASSERT_TRUE(std::isfinite(w));
    }
}

TEST(Adam, LrFollowsCosineSchedule) {
    MlpConfig cfg;
    cfg.dims = {2, 2};
    cfg.slim_input = false;
    SlimmableMlp net(cfg);
    AdamConfig acfg;
    acfg.lr = 0.01;
    acfg.lr_min = 1e-4;
    acfg.lr_total_steps = 10;
    Adam adam(net, acfg);

    const std::vector<double> x{1.0, 1.0};
    double last_lr = 1.0;
    for (int i = 0; i < 10; ++i) {
        std::vector<double> dout{0.1, 0.1};
        test::backprop_one(net, x, 1.0, dout);
        const double lr = adam.step(net);
        ASSERT_LT(lr, last_lr);
        last_lr = lr;
    }
    EXPECT_NEAR(last_lr, 1e-4, 1e-9);
}

/// Set the grads of one step: mark every layer's touched prefixes as a
/// backward at `width` does (an all-zero upstream gradient adds nothing
/// else), then give the touched gradients `values` in flat order (each
/// layer's weight rows, then its biases). Returns how many were touched.
std::size_t set_grads(SlimmableMlp& net, double width, std::span<const double> values) {
    const std::vector<double> x(net.input_dim(), 0.5);
    const std::vector<double> dout(net.output_dim(), 0.0);
    test::backprop_one(net, x, width, dout);
    std::size_t i = 0;
    for (auto& layer : net.layers()) {
        const auto marked = layer.marked_cols();
        for (std::size_t r = 0; r < marked.size(); ++r) {
            for (std::size_t c = 0; c < marked[r]; ++c) {
                if (i < values.size()) layer.grad_weights()(r, c) = values[i];
                ++i;
            }
        }
        for (std::size_t r = 0; r < marked.size(); ++r) {
            if (marked[r] == 0) continue;
            if (i < values.size()) layer.grad_bias()[r] = values[i];
            ++i;
        }
    }
    return i;
}

[[nodiscard]] bool same_bits(std::span<const double> a, std::span<const double> b) {
    return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

// rl::Adam against the textbook step on the paper's network for 4,000
// steps: past t = 356, where 1 - 0.9^t rounds to 1.0, and t = 3725, where
// 1 - 0.99^t does. Touched spans alternate 0.75x / 1.0x, and each step's
// gradient norm is a chosen multiple of grad_clip, so the clip's pre-check
// takes both branches: well below the clip it must skip the sequential sum;
// a clip that fires, a squared norm within 1e-12 of grad_clip^2, a NaN and
// an inf gradient must fall back to it. After every step the parameters
// must match bit for bit, and every gradient (untouched ones included) must
// be 0.0 with no touched prefix left.
TEST(Adam, BitIdenticalToTextbookStepAcrossBiasCorrectionThresholds) {
    ASSERT_NE(1.0 - std::pow(0.9, 355.0), 1.0);
    ASSERT_EQ(1.0 - std::pow(0.9, 356.0), 1.0);
    ASSERT_NE(1.0 - std::pow(0.99, 3724.0), 1.0);
    ASSERT_EQ(1.0 - std::pow(0.99, 3725.0), 1.0);

    MlpConfig cfg;
    cfg.dims = {7, 128, 128, 128, 48};
    cfg.seed = 31;
    SlimmableMlp net(cfg);
    SlimmableMlp ref_net(cfg);
    const AdamConfig acfg;
    Adam adam(net, acfg);
    test::AdamReference reference(ref_net, acfg);
    const double clip = acfg.grad_clip;

    constexpr std::size_t kSteps = 4000;
    constexpr std::size_t kNearClipStep = 1000;
    constexpr std::size_t kNanStep = 2000;
    constexpr std::size_t kInfStep = 3000;
    // Gradient norm as a multiple of grad_clip, by step: three of five
    // steps stay below the clip, two clip.
    constexpr double kNormOverClip[] = {0.3, 1.3, 0.7, 3.0, 0.95};

    // Touched weights and biases at each width.
    const auto touched = [&](double width) {
        std::size_t n = 0;
        for (std::size_t l = 0; l < net.num_layers(); ++l) {
            n += net.active_units(l + 1, width) * (net.active_units(l, width) + 1);
        }
        return n;
    };

    util::Rng rng(32);
    std::vector<double> values;
    for (std::size_t t = 1; t <= kSteps; ++t) {
        const double width = t % 2 == 0 ? 1.0 : 0.75;
        values.assign(touched(width), 0.0);
        double sq = 0.0;
        for (auto& v : values) {
            v = rng.uniform(-1.0, 1.0);
            sq += v * v;
        }
        const double ratio = t == kNearClipStep ? 1.0 : kNormOverClip[t % 5];
        const double s = ratio * clip / std::sqrt(sq);
        sq = 0.0;
        for (auto& v : values) {
            v *= s;
            sq += v * v; // the textbook clip's sequential sum
        }
        if (t == kNearClipStep) {
            ASSERT_LE(std::abs(sq - clip * clip), 1e-12 * clip * clip);
        }
        if (t == kNanStep) values[values.size() / 2] = std::numeric_limits<double>::quiet_NaN();
        if (t == kInfStep) values[values.size() / 3] = std::numeric_limits<double>::infinity();
        const bool must_fall_back =
            ratio > 1.0 || t == kNearClipStep || t == kNanStep || t == kInfStep;

        ASSERT_EQ(set_grads(ref_net, width, values), values.size());
        ASSERT_EQ(set_grads(net, width, values), values.size());
        const double ref_lr = reference.step(ref_net);
        const std::uint64_t before = prof::counter_total("rl.adam_exact_clip");
        const double lr = adam.step(net);
        const std::uint64_t fell_back = prof::counter_total("rl.adam_exact_clip") - before;

        const std::string at = "step " + std::to_string(t);
        ASSERT_EQ(lr, ref_lr) << at;
        if (must_fall_back) {
            ASSERT_EQ(fell_back, 1u) << at;
        } else {
            ASSERT_EQ(fell_back, 0u) << at << ": the pre-check should skip the exact sum";
        }
        for (std::size_t l = 0; l < net.layers().size(); ++l) {
            auto& layer = net.layers()[l];
            auto& ref_layer = ref_net.layers()[l];
            ASSERT_TRUE(same_bits(layer.weights().flat(), ref_layer.weights().flat()))
                << at << " layer " << l << " weights";
            ASSERT_TRUE(same_bits(layer.bias(), ref_layer.bias())) << at << " layer " << l;
            ASSERT_TRUE(same_bits(layer.grad_weights().flat(), ref_layer.grad_weights().flat()))
                << at << " layer " << l << ": gradients not cleared";
            ASSERT_TRUE(same_bits(layer.grad_bias(), ref_layer.grad_bias()))
                << at << " layer " << l << ": bias gradients not cleared";
            for (const auto m : layer.marked_cols()) ASSERT_EQ(m, 0u) << at;
        }
    }
    EXPECT_EQ(adam.steps_taken(), kSteps);
}

} // namespace
} // namespace lotus::rl
