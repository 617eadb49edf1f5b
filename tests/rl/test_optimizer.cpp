// Tests for Adam + cosine LR: convergence, masked ("slimmable") updates, and
// gradient clipping. Gradients come from the production minibatch backward
// on one-sample batches.

#include <gtest/gtest.h>

#include <cmath>

#include "one_sample.hpp"
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

} // namespace
} // namespace lotus::rl
