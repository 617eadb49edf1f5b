// Byte-identity tests for the batched RL math (the hot-path perf layer).
// Kernel and layer level: the sample-vectorized Matrix::slice_matmul versus
// slice_matvec, slice_matvec's interleaved rows and forward_batch's padded
// sample columns versus plain loops and per-sample forwards, and the batched
// backward of SlimmableLinear and SlimmableMlp versus naive references local
// to this file -- plain loops in the summation order the headers document,
// with the same `g == 0.0` skips, plus the expected touched prefixes (and
// never a read of the padding). Train-step level: DqnCore
// train_batch against pinned FNV-1a digests of its losses, parameters and
// Q-values across widths, batch sizes and slimmable active dims (including
// ragged out_active < out_ via slim_output, and the paper's
// {7,128,128,128,48} net on LOTUS-style batches); the bootstrap memo against
// a reference that never hits it. "Identical" here means
// bitwise: the batched kernels restructure the loops but never the
// per-element reduction order, so every double must match exactly, not
// approximately.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "prof/profiler.hpp"
#include "rl/dqn.hpp"
#include "rl/layers.hpp"
#include "rl/matrix.hpp"
#include "rl/mlp.hpp"
#include "rl/replay.hpp"
#include "util/digest.hpp"
#include "util/rng.hpp"

namespace lotus::rl {
namespace {

[[nodiscard]] Matrix random_matrix(std::size_t rows, std::size_t cols, util::Rng& rng) {
    Matrix m(rows, cols);
    for (auto& v : m.flat()) v = rng.uniform(-1.0, 1.0);
    return m;
}

[[nodiscard]] std::vector<double> random_vector(std::size_t n, util::Rng& rng) {
    std::vector<double> v(n);
    for (auto& x : v) x = rng.uniform(-1.0, 1.0);
    return v;
}

void expect_bitwise_eq(std::span<const double> a, std::span<const double> b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0)
            << "element " << i << ": " << a[i] << " vs " << b[i];
    }
}

/// Feature-major copy of `m`'s leading rows x cols (column k = row k of m),
/// padded with `pad` extra rows/columns of poison.
[[nodiscard]] Matrix feature_major(const Matrix& m, std::size_t rows, std::size_t cols,
                                   std::size_t pad) {
    Matrix t(cols + pad, rows + pad, -77.0);
    for (std::size_t k = 0; k < rows; ++k) {
        for (std::size_t c = 0; c < cols; ++c) t(c, k) = m(k, c);
    }
    return t;
}

TEST(SliceMatmul, BitIdenticalToMatvecAcrossShapes) {
    util::Rng rng(7);
    // Runs the kernel set this host selected (rl::kernel_set()): tiles of 2
    // outputs x 8 samples (baseline) or 4 x 8 (avx2). Shapes hit scalar,
    // one-vector and 8-sample batch tails and `out` not a multiple of the
    // tile, plus oversized X/Y; tests/rl/test_kernel_isa.cpp runs every set
    // over a denser grid of tails.
    const struct {
        std::size_t out, in, batch;
    } shapes[] = {{1, 1, 1},    {3, 5, 2},    {4, 7, 3},    {6, 6, 5},   {48, 7, 8},
                  {5, 128, 4},  {128, 96, 2}, {9, 13, 7},   {6, 6, 33},  {48, 6, 7},
                  {96, 7, 33},  {96, 6, 1},   {6, 7, 7},    {48, 7, 33}, {96, 96, 16},
                  {128, 128, 32}};
    for (const auto& s : shapes) {
        const Matrix a = random_matrix(s.out, s.in + 2, rng); // wider than `in`
        const Matrix x_rows = random_matrix(s.batch, s.in, rng);
        const Matrix x = feature_major(x_rows, s.batch, s.in, 1);
        const auto b = random_vector(s.out, rng);
        Matrix y_batched(s.out + 1, s.batch + 1, -99.0); // oversized, poisoned
        Matrix::slice_matmul(a, x, b, y_batched, s.out, s.in, s.batch);

        std::vector<double> y_ref(s.out);
        for (std::size_t k = 0; k < s.batch; ++k) {
            Matrix::slice_matvec(a, x_rows.row(k), b, y_ref, s.out, s.in);
            for (std::size_t r = 0; r < s.out; ++r) {
                EXPECT_EQ(std::memcmp(&y_ref[r], &y_batched(r, k), sizeof(double)), 0)
                    << s.out << "x" << s.in << " batch " << s.batch << " (" << r << ", "
                    << k << ")";
            }
            EXPECT_EQ(y_batched(s.out, k), -99.0); // rows beyond `out` untouched
        }
        for (std::size_t r = 0; r <= s.out; ++r) {
            EXPECT_EQ(y_batched(r, s.batch), -99.0); // columns beyond `batch` too
        }
    }
}

// slice_matvec runs four rows at a time as four independent chains, then
// single rows: every `out` from 1 to 7 and 48 to 51 covers each row tail.
// Each y[r] must equal one plain chain from b[r] over c ascending; rows past
// `out` stay untouched.
TEST(SliceMatvec, MatchesScalarLoopsForEveryRowTail) {
    util::Rng rng(9);
    for (const std::size_t out : {1, 2, 3, 4, 5, 6, 7, 48, 49, 50, 51}) {
        for (const std::size_t in : {1, 6, 7, 96, 128}) {
            const Matrix a = random_matrix(out + 1, in + 3, rng); // wider than `in`
            const auto x = random_vector(in + 3, rng);
            const auto b = random_vector(out + 1, rng);
            std::vector<double> y(out + 1, -99.0);
            Matrix::slice_matvec(a, x, b, y, out, in);
            std::vector<double> ref(out + 1, -99.0);
            for (std::size_t r = 0; r < out; ++r) {
                double acc = b[r];
                for (std::size_t c = 0; c < in; ++c) acc += a(r, c) * x[c];
                ref[r] = acc;
            }
            SCOPED_TRACE("out " + std::to_string(out) + " in " + std::to_string(in));
            expect_bitwise_eq(ref, y);
        }
    }
}

/// Gradients and touched prefixes of one layer.
struct LayerGrads {
    Matrix gw;
    std::vector<double> gb;
    std::vector<std::uint32_t> marked;

    explicit LayerGrads(const SlimmableLinear& layer)
        : gw(layer.out_features(), layer.in_features()),
          gb(layer.out_features(), 0.0),
          marked(layer.out_features(), 0) {}
};

/// Naive SlimmableLinear::backward_batch for sample k of sample-major `x`
/// and `dy` at slice (out, in): every grad element adds this sample's term
/// to its chain, skipping dy == 0.0 (biases add every term); dx[c] (when
/// given) is one chain from 0.0 over r ascending with the same skip.
void naive_backward(const Matrix& w, const Matrix& x, const Matrix& dy, std::size_t k,
                    Matrix::Slice slice, LayerGrads& g, Matrix* dx) {
    const auto [out, in] = slice;
    for (std::size_t r = 0; r < out; ++r) {
        const double d = dy(k, r);
        g.gb[r] += d;
        g.marked[r] = std::max(g.marked[r], static_cast<std::uint32_t>(in));
        if (d == 0.0) continue;
        for (std::size_t c = 0; c < in; ++c) g.gw(r, c) += d * x(k, c);
    }
    if (dx == nullptr) return;
    for (std::size_t c = 0; c < in; ++c) {
        double acc = 0.0;
        for (std::size_t r = 0; r < out; ++r) {
            if (dy(k, r) != 0.0) acc += dy(k, r) * w(r, c);
        }
        (*dx)(k, c) = acc;
    }
}

void expect_grads_eq(const LayerGrads& ref, SlimmableLinear& layer) {
    expect_bitwise_eq(ref.gw.flat(), layer.grad_weights().flat());
    expect_bitwise_eq(ref.gb, layer.grad_bias());
    const auto marked = layer.marked_cols();
    EXPECT_TRUE(std::equal(ref.marked.begin(), ref.marked.end(), marked.begin(), marked.end()));
}

struct BackwardShape {
    std::size_t batch, out, in;
};

/// backward_batch on one layer against the naive loops over the samples in
/// order. `narrow` marks samples run at the 0.75x slice of (out, in);
/// `zero_every` zeroes every n-th upstream gradient entry exactly (plus one
/// -0.0) to exercise the `g == 0.0` skips.
void check_layer_backward_batch(const BackwardShape& s, const std::vector<bool>& narrow,
                                std::size_t zero_every, std::uint64_t seed) {
    util::Rng rng(seed);
    util::Rng init(seed + 1000);
    SlimmableLinear layer(s.in, s.out, init);

    std::vector<Matrix::Slice> slices(s.batch);
    Matrix x = random_matrix(s.batch, s.in, rng);
    Matrix dy = random_matrix(s.batch, s.out, rng);
    std::size_t nth = 0;
    for (std::size_t k = 0; k < s.batch; ++k) {
        const bool small = narrow[k];
        slices[k] = {small ? (3 * s.out + 3) / 4 : s.out, small ? (3 * s.in + 3) / 4 : s.in};
        for (std::size_t r = 0; r < s.out; ++r) {
            if (zero_every > 0 && ++nth % zero_every == 0) dy(k, r) = 0.0;
        }
    }
    dy(0, 0) = -0.0;

    LayerGrads ref(layer);
    Matrix dx_ref(s.batch, s.in, -5.0);
    for (std::size_t k = 0; k < s.batch; ++k) {
        naive_backward(layer.weights(), x, dy, k, slices[k], ref, &dx_ref);
    }
    Matrix dx(s.batch, s.in, -5.0);
    layer.backward_batch(x, dy, &dx, slices);

    const auto label = "batch " + std::to_string(s.batch) + " out " + std::to_string(s.out) +
                       " in " + std::to_string(s.in);
    SCOPED_TRACE(label);
    expect_grads_eq(ref, layer);
    expect_bitwise_eq(dx_ref.flat(), dx.flat()); // beyond in_k: untouched in both

    // dx == nullptr skips the input gradient and still accumulates grads.
    layer.zero_grad();
    layer.backward_batch(x, dy, nullptr, slices);
    expect_grads_eq(ref, layer);
}

TEST(SlimmableLinearBackwardBatch, BitIdenticalToNaiveReference) {
    std::uint64_t seed = 50;
    for (const std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{33}}) {
        for (const std::size_t out : {std::size_t{6}, std::size_t{48}, std::size_t{96}}) {
            for (const std::size_t in : {std::size_t{6}, std::size_t{7}, std::size_t{128}}) {
                const BackwardShape s{batch, out, in};
                check_layer_backward_batch(s, std::vector<bool>(batch, false), 0, ++seed);
                check_layer_backward_batch(s, std::vector<bool>(batch, false), 3, ++seed);
                // Alternating widths: every 0.75x sample sits between 1.0x ones.
                std::vector<bool> mixed(batch);
                for (std::size_t k = 0; k < batch; ++k) mixed[k] = k % 2 == 1;
                check_layer_backward_batch(s, mixed, 4, ++seed);
            }
        }
    }
}

// More terms per row than one accumulation chunk holds (64), all nonzero,
// with the narrow sample in the middle.
TEST(SlimmableLinearBackwardBatch, LongBatchesSpanSeveralChunks) {
    std::vector<bool> narrow(150, false);
    narrow[75] = true;
    check_layer_backward_batch({150, 96, 128}, narrow, 0, 7);
    check_layer_backward_batch({150, 130, 7}, std::vector<bool>(150, true), 5, 8);
}

TEST(MlpScratchForward, BitIdenticalToVectorForward) {
    for (const bool slim_output : {false, true}) {
        MlpConfig cfg;
        cfg.dims = {7, 19, 13, 48};
        cfg.slim_output = slim_output;
        cfg.seed = 11;
        const SlimmableMlp net(cfg);
        util::Rng rng(3);
        MlpScratch scratch;
        std::vector<double> out(net.output_dim(), 0.0);
        for (const double width : {0.5, 0.75, 1.0}) {
            for (int rep = 0; rep < 4; ++rep) {
                const auto x = random_vector(7, rng);
                const auto ref = net.forward(x, width);
                net.forward(x, width, out, scratch);
                expect_bitwise_eq(ref, out);
            }
        }
    }
}

TEST(MlpForwardBatch, BitIdenticalToPerSampleForward) {
    for (const bool slim_output : {false, true}) {
        MlpConfig cfg;
        cfg.dims = {7, 33, 17, 48};
        cfg.slim_output = slim_output; // ragged out_active < out_ when true
        cfg.seed = 23;
        const SlimmableMlp net(cfg);
        util::Rng rng(5);
        BatchCache cache; // reused across widths: resize paths exercised
        // Every padding length of the sample columns, whole tiles plus tails.
        std::vector<std::size_t> batches{31, 32, 33};
        for (std::size_t b = 1; b <= 17; ++b) batches.push_back(b);
        for (const double width : {0.6, 0.75, 1.0}) {
            for (const std::size_t batch : batches) {
                Matrix x = random_matrix(batch, 7, rng);
                net.forward_batch(x, batch, width, cache);
                ASSERT_EQ(cache.batch, batch);
                for (std::size_t k = 0; k < batch; ++k) {
                    const auto ref = net.forward(x.row(k), width);
                    expect_bitwise_eq(ref, cache.output.row(k));
                }
            }
        }
    }
}

/// Naive SlimmableMlp::backward_batch over samples i = 0, 1, ... (row i of
/// `x` at widths[i], upstream gradient row i of `dout`): a plain-loop
/// forward, each output one chain over c ascending from b[r], then the
/// backward layer by layer through naive_backward, with the ReLU gradient
/// zero where the pre-activation is <= 0.0.
std::vector<LayerGrads> naive_mlp_backward(const SlimmableMlp& net, const Matrix& x,
                                           std::span<const double> widths,
                                           const Matrix& dout) {
    const auto& layers = net.layers();
    std::vector<LayerGrads> grads(layers.begin(), layers.end());
    for (std::size_t i = 0; i < widths.size(); ++i) {
        const double w = widths[i];
        // acts[l]: input of layer l as a one-row matrix; pre[l]: its output.
        std::vector<Matrix> acts(layers.size(), Matrix(1, net.input_dim()));
        std::vector<std::vector<double>> pre(layers.size());
        std::copy(x.row(i).begin(), x.row(i).end(), acts[0].row(0).begin());
        for (std::size_t l = 0; l < layers.size(); ++l) {
            const std::size_t out = net.active_units(l + 1, w);
            const std::size_t in = net.active_units(l, w);
            for (std::size_t r = 0; r < out; ++r) {
                double acc = layers[l].bias()[r];
                for (std::size_t c = 0; c < in; ++c) {
                    acc += layers[l].weights()(r, c) * acts[l](0, c);
                }
                pre[l].push_back(acc);
            }
            if (l + 1 == layers.size()) break;
            acts[l + 1] = Matrix(1, out);
            for (std::size_t r = 0; r < out; ++r) acts[l + 1](0, r) = std::max(pre[l][r], 0.0);
        }
        Matrix dy(1, net.output_dim());
        std::copy(dout.row(i).begin(), dout.row(i).end(), dy.row(0).begin());
        for (std::size_t l = layers.size(); l-- > 0;) {
            const Matrix::Slice slice{net.active_units(l + 1, w), net.active_units(l, w)};
            if (l + 1 < layers.size()) {
                for (std::size_t r = 0; r < slice.out; ++r) {
                    if (pre[l][r] <= 0.0) dy(0, r) = 0.0;
                }
            }
            Matrix dx(1, slice.in);
            naive_backward(layers[l].weights(), acts[l], dy, 0, slice, grads[l], &dx);
            dy = std::move(dx);
        }
    }
    return grads;
}

TEST(MlpBackwardBatch, BitIdenticalGradsToNaiveReference) {
    for (const bool slim_output : {false, true}) {
        MlpConfig cfg;
        cfg.dims = {7, 21, 13, 48};
        cfg.slim_output = slim_output;
        cfg.seed = 31;
        SlimmableMlp net(cfg);
        util::Rng rng(13);
        const std::size_t batch = 9;

        // Two width groups, interleaved in the batch order: sample i runs at
        // width 0.75 when i % 3 == 1, else 1.0.
        const double group_widths[] = {1.0, 0.75};
        std::vector<double> widths(batch);
        for (std::size_t i = 0; i < batch; ++i) widths[i] = group_widths[i % 3 == 1 ? 1 : 0];
        Matrix x = random_matrix(batch, 7, rng);
        Matrix dout = random_matrix(batch, net.output_dim(), rng);
        dout(2, 5) = 0.0;
        std::vector<BatchCache> caches(2);
        std::vector<BatchSample> samples(batch);
        for (std::size_t g = 0; g < 2; ++g) {
            std::vector<std::size_t> members;
            for (std::size_t i = 0; i < batch; ++i) {
                if ((i % 3 == 1) == (g == 1)) members.push_back(i);
            }
            Matrix xg(members.size(), 7);
            for (std::size_t j = 0; j < members.size(); ++j) {
                const auto src = x.row(members[j]);
                std::copy(src.begin(), src.end(), xg.row(j).begin());
                samples[members[j]] = {&caches[g], j};
            }
            net.forward_batch(xg, members.size(), group_widths[g], caches[g]);
        }

        const auto ref = naive_mlp_backward(net, x, widths, dout);
        BackwardScratch scratch;
        net.backward_batch({}, dout, scratch); // empty: a no-op
        net.backward_batch(samples, dout, scratch);

        for (std::size_t l = 0; l < net.num_layers(); ++l) {
            SCOPED_TRACE("layer " + std::to_string(l));
            expect_grads_eq(ref[l], net.layers()[l]);
        }
    }
}

// No backward reads forward_batch's padding columns: gradients must not
// change when every activation's columns from `batch` on are overwritten
// with NaN after the forward. Two width groups of ragged sizes.
TEST(MlpBackwardBatch, PaddingColumnsNeverRead) {
    MlpConfig cfg;
    cfg.dims = {7, 128, 128, 128, 48};
    cfg.seed = 43;
    SlimmableMlp net(cfg);
    util::Rng rng(44);
    for (const std::size_t batch : {1, 2, 3, 5, 6, 7, 9, 13, 17}) {
        const double group_widths[] = {1.0, 0.75};
        std::vector<BatchCache> caches(2);
        std::vector<BatchSample> samples;
        for (std::size_t g = 0; g < 2; ++g) {
            const std::size_t m = g == 0 ? batch : batch + 2;
            const Matrix x = random_matrix(m, 7, rng);
            net.forward_batch(x, m, group_widths[g], caches[g]);
            for (std::size_t k = 0; k < m; ++k) samples.push_back({&caches[g], k});
        }
        const Matrix dout = random_matrix(samples.size(), net.output_dim(), rng);
        BackwardScratch scratch;
        net.zero_grad();
        net.backward_batch(samples, dout, scratch);
        std::vector<LayerGrads> clean;
        for (auto& layer : net.layers()) {
            LayerGrads g(layer);
            std::copy(layer.grad_weights().flat().begin(), layer.grad_weights().flat().end(),
                      g.gw.flat().begin());
            std::copy(layer.grad_bias().begin(), layer.grad_bias().end(), g.gb.begin());
            std::copy(layer.marked_cols().begin(), layer.marked_cols().end(), g.marked.begin());
            clean.push_back(std::move(g));
        }

        for (auto& cache : caches) {
            for (auto& act : cache.activations) {
                for (std::size_t r = 0; r < act.rows(); ++r) {
                    for (std::size_t k = cache.batch; k < act.cols(); ++k) {
                        act(r, k) = std::numeric_limits<double>::quiet_NaN();
                    }
                }
            }
        }
        net.zero_grad();
        net.backward_batch(samples, dout, scratch);
        SCOPED_TRACE("batch " + std::to_string(batch));
        for (std::size_t l = 0; l < net.num_layers(); ++l) {
            SCOPED_TRACE("layer " + std::to_string(l));
            expect_grads_eq(clean[l], net.layers()[l]);
        }
    }
}

// The touched-prefix high-water mark must record exactly the union of the
// leading spans touched across a batch of mixed widths.
TEST(SlimmableLinearMarking, PrefixMarkingMatchesBruteForce) {
    util::Rng rng(17);
    SlimmableLinear layer(8, 6, rng);
    const Matrix x = random_matrix(4, 8, rng);
    const Matrix dy = random_matrix(4, 6, rng);

    // One batch: narrow, wide, then narrow again -- the second narrow sample
    // must not shrink anything, the wide one must extend every row span.
    const Matrix::Slice slices[] = {{3, 4}, {6, 8}, {3, 4}, {5, 6}};
    std::vector<std::uint32_t> expect(6, 0);
    for (const auto& slice : slices) {
        for (std::size_t r = 0; r < slice.out; ++r) {
            expect[r] = std::max(expect[r], static_cast<std::uint32_t>(slice.in));
        }
    }
    layer.backward_batch(x, dy, nullptr, slices);
    const auto marked = layer.marked_cols();
    EXPECT_TRUE(std::equal(marked.begin(), marked.end(), expect.begin(), expect.end()));

    // zero_grad resets the high-water marks too: a narrow backward after it
    // must mark the narrow prefix again from scratch.
    layer.zero_grad();
    for (const auto m : layer.marked_cols()) ASSERT_EQ(m, 0u);
    const Matrix::Slice narrow{2, 3};
    layer.backward_batch(x, dy, nullptr, {&narrow, 1});
    for (std::size_t r = 0; r < 6; ++r) {
        EXPECT_EQ(layer.marked_cols()[r], r < 2 ? 3u : 0u) << "r=" << r;
    }
}

[[nodiscard]] Transition make_transition(util::Rng& rng, std::size_t state_dim,
                                         std::size_t actions, double width_state,
                                         double width_next, bool terminal) {
    Transition t;
    t.state = random_vector(state_dim, rng);
    t.next_state = random_vector(state_dim, rng);
    t.action = static_cast<int>(rng.uniform_int(0, static_cast<std::int64_t>(actions) - 1));
    t.reward = rng.uniform(-1.0, 1.0);
    t.terminal = terminal;
    t.width_state = width_state;
    t.width_next = width_next;
    return t;
}

struct DqnCase {
    bool double_dqn;
    bool slim_output;
    std::size_t batch_size;
    /// The paper's Q-net {7,128,128,128,48} on LOTUS-style single-width
    /// batches for 250 steps (2 target syncs) instead of the small mixed
    /// pool.
    bool paper_shape;
    /// FNV-1a digest of the run (see TrainBatchMatchesPin).
    const char* pin;

    friend void PrintTo(const DqnCase& c, std::ostream* os) {
        *os << (c.paper_shape ? "paper " : "") << (c.double_dqn ? "double" : "vanilla")
            << (c.slim_output ? " ragged" : " fullout") << " b" << c.batch_size;
    }
};

void append_bytes(std::string& bytes, std::span<const double> values) {
    bytes.append(reinterpret_cast<const char*>(values.data()), values.size() * sizeof(double));
}

class DqnPinnedDigest : public ::testing::TestWithParam<DqnCase> {};

// The train step's golden pin: a DqnCore fed a fixed transition stream must
// reproduce bit for bit its per-step losses, then per layer the final
// online weights and biases and the target weights, then Q-values of a probe
// state at 0.75x and 1.0x. The digest hashes those doubles' bytes in that
// order. Every pin was recorded from two independent train-step
// implementations -- a per-sample scalar one (one forward and one backward
// per transition) and the batched one -- which agreed on every case; a pin
// change is a behaviour change.
TEST_P(DqnPinnedDigest, TrainBatchMatchesPin) {
    const auto param = GetParam();
    MlpConfig net;
    net.dims = param.paper_shape ? std::vector<std::size_t>{7, 128, 128, 128, 48}
                                 : std::vector<std::size_t>{7, 24, 16, 48};
    net.slim_output = param.slim_output;
    net.seed = 41;

    DqnConfig cfg;
    cfg.gamma = 0.9;
    // Force syncs mid-test (the paper-shape run keeps the default period).
    cfg.target_sync_every = param.paper_shape ? 100 : 3;
    cfg.double_dqn = param.double_dqn;
    const int steps = param.paper_shape ? 250 : 8;
    DqnCore core(net, cfg);

    util::Rng rng(97);
    // Small nets: mixed widths alternating like LOTUS' even/odd steps inside
    // one batch, plus terminals and a lone off-grid width to force a third
    // bucket. Paper shape: like LotusAgent's two buffers -- even batches
    // step 0.75x -> bootstrap 1.0x, odd batches 1.0x -> 0.75x.
    std::vector<Transition> pools[2];
    for (std::size_t i = 0; i < 64; ++i) {
        const bool even = i % 2 == 0;
        if (param.paper_shape) {
            for (const bool pool_even : {true, false}) {
                pools[pool_even ? 0 : 1].push_back(make_transition(
                    rng, 7, 48, pool_even ? 0.75 : 1.0, pool_even ? 1.0 : 0.75, i % 11 == 4));
            }
        } else {
            pools[0].push_back(make_transition(rng, 7, 48, i % 7 == 3 ? 0.5 : (even ? 1.0 : 0.75),
                                               even ? 0.75 : 1.0, i % 5 == 0));
        }
    }

    std::string bytes;
    std::size_t cursor[2] = {0, 0};
    for (int step = 0; step < steps; ++step) {
        const std::size_t p = param.paper_shape ? static_cast<std::size_t>(step % 2) : 0;
        std::vector<const Transition*> batch;
        for (std::size_t i = 0; i < param.batch_size; ++i) {
            batch.push_back(&pools[p][cursor[p]]);
            // Paper shape: stride 7 (coprime to 64) varies each batch's mix.
            cursor[p] = (cursor[p] + (param.paper_shape ? 7 : 1)) % pools[p].size();
        }
        const double loss = core.train_batch(batch);
        ASSERT_GE(loss, 0.0) << "step " << step;
        append_bytes(bytes, {&loss, 1});
    }
    EXPECT_GE(core.updates() / cfg.target_sync_every, 2u);

    for (std::size_t l = 0; l < core.online().num_layers(); ++l) {
        const auto& online = core.online().layers()[l];
        append_bytes(bytes, online.weights().flat());
        append_bytes(bytes, online.bias());
        append_bytes(bytes, core.target().layers()[l].weights().flat());
    }
    const auto probe = random_vector(7, rng);
    for (const double width : {0.75, 1.0}) append_bytes(bytes, core.q_values(probe, width));

    EXPECT_EQ(util::fnv1a_hex(bytes), param.pin);
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndBatchSizes, DqnPinnedDigest,
    ::testing::Values(DqnCase{false, false, 32, false, "db6de16c896b639e"},
                      DqnCase{true, false, 32, false, "c22345c34028e946"},
                      DqnCase{false, true, 32, false, "df9cd4c6a7bc9c18"},
                      DqnCase{true, true, 7, false, "cf91afafd4bb693a"},
                      DqnCase{false, false, 1, false, "12b815a1a90ffca9"},
                      DqnCase{true, false, 5, false, "3bc5cf352c4ce647"},
                      DqnCase{false, false, 32, true, "4e7df270a62f2413"},
                      DqnCase{true, false, 32, true, "5a284027df9cc0a4"}),
    [](const ::testing::TestParamInfo<DqnCase>& info) {
        const auto& c = info.param;
        return std::string(c.paper_shape ? "paper_" : "") +
               (c.double_dqn ? "double" : "vanilla") +
               (c.slim_output ? "_ragged" : "_fullout") + "_b" +
               std::to_string(c.batch_size);
    });

// ---------------------------------------------------------------------------
// Bootstrap memo: a vanilla-DQN transition keeps max_a Q_target(s', a) until
// the target network or the transition changes.

[[nodiscard]] std::uint64_t memo_hits() {
    return prof::counter_total("rl.bootstrap_memo_hits");
}

/// A copy of `t`'s fields with a fresh (empty) memo.
[[nodiscard]] Transition rebuilt(const Transition& t) {
    Transition fresh;
    fresh.state = t.state;
    fresh.action = t.action;
    fresh.reward = t.reward;
    fresh.next_state = t.next_state;
    fresh.terminal = t.terminal;
    fresh.width_state = t.width_state;
    fresh.width_next = t.width_next;
    return fresh;
}

[[nodiscard]] MlpConfig memo_net(std::uint64_t seed) {
    MlpConfig net;
    net.dims = {7, 24, 16, 48};
    net.seed = seed;
    return net;
}

[[nodiscard]] DqnConfig memo_config() {
    DqnConfig cfg;
    cfg.batch_size = 16;
    cfg.target_sync_every = 10;
    return cfg;
}

/// Train `core` for 120 steps on a fixed stream: one LOTUS-style transition
/// (alternating widths, some terminal) pushed per step into a 48-slot ring,
/// so slots are overwritten and the target syncs 12 times. With `rebuild`,
/// every sampled transition is rebuilt from its fields before the step, so
/// the memo is never hit. Returns the bytes of the per-step losses.
std::string train_on_stream(DqnCore& core, bool rebuild) {
    util::Rng gen(71);
    util::Rng sampler(73);
    ReplayBuffer buffer(48);
    ReplayBuffer::SampleScratch scratch;
    std::vector<Transition> copies;
    std::vector<const Transition*> batch;
    std::string bytes;
    for (int step = 0; step < 120; ++step) {
        const bool even = step % 2 == 0;
        buffer.push(make_transition(gen, 7, 48, even ? 0.75 : 1.0, even ? 1.0 : 0.75,
                                    step % 9 == 4));
        const auto sampled = buffer.sample(sampler, core.config().batch_size, scratch);
        batch.assign(sampled.begin(), sampled.end());
        if (rebuild) {
            copies.clear();
            for (const auto* t : sampled) copies.push_back(rebuilt(*t));
            for (std::size_t i = 0; i < copies.size(); ++i) batch[i] = &copies[i];
        }
        const double loss = core.train_batch(batch);
        append_bytes(bytes, {&loss, 1});
    }
    return bytes;
}

void expect_same_parameters(const DqnCore& a, const DqnCore& b) {
    for (std::size_t l = 0; l < a.online().num_layers(); ++l) {
        expect_bitwise_eq(a.online().layers()[l].weights().flat(),
                          b.online().layers()[l].weights().flat());
        expect_bitwise_eq(a.online().layers()[l].bias(), b.online().layers()[l].bias());
        expect_bitwise_eq(a.target().layers()[l].weights().flat(),
                          b.target().layers()[l].weights().flat());
        expect_bitwise_eq(a.target().layers()[l].bias(), b.target().layers()[l].bias());
    }
}

TEST(DqnBootstrapMemo, MatchesReferenceThatNeverHits) {
    prof::reset();
    DqnCore reference(memo_net(43), memo_config());
    const auto reference_losses = train_on_stream(reference, /*rebuild=*/true);
    ASSERT_EQ(memo_hits(), 0u);

    DqnCore memoized(memo_net(43), memo_config());
    const auto losses = train_on_stream(memoized, /*rebuild=*/false);
    EXPECT_GT(memo_hits(), 0u);
    EXPECT_EQ(losses, reference_losses);
    expect_same_parameters(memoized, reference);
}

// The hit count on the fixed stream above, against the non-terminal rows it
// bootstraps (a change here is a change to when the memo is reused).
TEST(DqnBootstrapMemo, HitCountOnFixedStreamMatchesPin) {
    prof::reset();
    DqnCore core(memo_net(43), memo_config());
    (void)train_on_stream(core, /*rebuild=*/false);
    EXPECT_EQ(prof::counter_total("rl.bootstrap_rows"), 1596u);
    EXPECT_EQ(memo_hits(), 1129u);
}

/// One-slot buffer: every step samples the slot's current transition.
struct OneSlot {
    ReplayBuffer buffer{1};
    util::Rng rng{5};
    util::Rng gen{6};

    void push() { buffer.push(make_transition(gen, 7, 48, 1.0, 0.75, false)); }
    /// One train_step; returns whether its bootstrap row hit the memo.
    bool step_hits(DqnCore& core) {
        const auto before = memo_hits();
        EXPECT_GE(core.train_step(buffer, rng), 0.0);
        return memo_hits() > before;
    }
};

[[nodiscard]] double target_max(const DqnCore& core, const Transition& t) {
    const auto q = core.target().forward(t.next_state, t.width_next);
    return *std::max_element(q.begin(), q.end());
}

TEST(DqnBootstrapMemo, OverwrittenSlotMisses) {
    prof::reset();
    DqnConfig cfg = memo_config();
    cfg.target_sync_every = 1000;
    DqnCore core(memo_net(47), cfg);
    OneSlot slot;
    slot.push();
    EXPECT_FALSE(slot.step_hits(core));
    EXPECT_TRUE(slot.step_hits(core));
    slot.push(); // same ring slot, new next_state
    EXPECT_FALSE(slot.step_hits(core));
    EXPECT_EQ(slot.buffer[0].bootstrap, target_max(core, slot.buffer[0]));
    EXPECT_TRUE(slot.step_hits(core));
}

TEST(DqnBootstrapMemo, TargetSyncMisses) {
    prof::reset();
    DqnConfig cfg = memo_config();
    cfg.target_sync_every = 3;
    DqnCore core(memo_net(53), cfg);
    OneSlot slot;
    slot.push();
    EXPECT_FALSE(slot.step_hits(core));
    EXPECT_TRUE(slot.step_hits(core));
    EXPECT_TRUE(slot.step_hits(core)); // the target syncs after this update
    EXPECT_FALSE(slot.step_hits(core));
    EXPECT_EQ(slot.buffer[0].bootstrap, target_max(core, slot.buffer[0]));
    core.sync_target();
    EXPECT_FALSE(slot.step_hits(core));
    EXPECT_TRUE(slot.step_hits(core));
}

TEST(DqnBootstrapMemo, CoresNeverShareValues) {
    prof::reset();
    DqnConfig cfg = memo_config();
    cfg.target_sync_every = 1000;
    DqnCore a(memo_net(59), cfg);
    DqnCore b(memo_net(61), cfg);
    OneSlot slot;
    slot.push();
    for (int round = 0; round < 3; ++round) {
        EXPECT_FALSE(slot.step_hits(a)) << "round " << round;
        EXPECT_EQ(slot.buffer[0].bootstrap, target_max(a, slot.buffer[0]));
        EXPECT_FALSE(slot.step_hits(b)) << "round " << round;
        EXPECT_EQ(slot.buffer[0].bootstrap, target_max(b, slot.buffer[0]));
    }
    EXPECT_NE(target_max(a, slot.buffer[0]), target_max(b, slot.buffer[0]));

    // A core rebuilt in place (same address, new target network) misses too.
    std::optional<DqnCore> rebuilt_core(std::in_place, memo_net(67), cfg);
    const DqnCore* address = &*rebuilt_core;
    EXPECT_FALSE(slot.step_hits(*rebuilt_core));
    EXPECT_TRUE(slot.step_hits(*rebuilt_core));
    rebuilt_core.emplace(memo_net(71), cfg);
    ASSERT_EQ(&*rebuilt_core, address);
    EXPECT_FALSE(slot.step_hits(*rebuilt_core));
    EXPECT_EQ(slot.buffer[0].bootstrap, target_max(*rebuilt_core, slot.buffer[0]));
}

TEST(DqnBootstrapMemo, DoubleDqnNeverMemoizes) {
    prof::reset();
    DqnConfig cfg = memo_config();
    cfg.double_dqn = true;
    DqnCore core(memo_net(73), cfg);
    OneSlot slot;
    slot.push();
    for (int i = 0; i < 4; ++i) EXPECT_FALSE(slot.step_hits(core));
    EXPECT_EQ(prof::counter_total("rl.bootstrap_rows"), 4u);
    EXPECT_EQ(slot.buffer[0].bootstrap_version, 0u);
}

// rl.train_batch splits into four phase regions, each entered once per
// batched step under it, and the phases' totals never exceed the parent's.
TEST(DqnProfilerRegions, TrainBatchPhasesNestUnderTrainBatch) {
    prof::set_enabled(false);
    prof::reset();
    MlpConfig net;
    net.dims = {7, 24, 16, 48};
    net.seed = 5;
    DqnConfig cfg;
    cfg.double_dqn = true;
    DqnCore core(net, cfg);
    util::Rng rng(6);
    std::vector<Transition> pool;
    for (std::size_t i = 0; i < 16; ++i) {
        pool.push_back(make_transition(rng, 7, 48, i % 2 ? 1.0 : 0.75, 1.0, i % 4 == 0));
    }
    std::vector<const Transition*> batch;
    for (const auto& t : pool) batch.push_back(&t);

    prof::set_enabled(true);
    constexpr std::uint64_t kSteps = 12;
    for (std::uint64_t i = 0; i < kSteps; ++i) (void)core.train_batch(batch);
    const auto report = prof::capture();
    prof::set_enabled(false);
    prof::reset();

    const auto index_of = [&](const std::string& name) {
        for (std::size_t i = 0; i < report.regions.size(); ++i) {
            if (report.regions[i].name == name) return i;
        }
        return report.regions.size();
    };
    const std::size_t parent = index_of("rl.train_batch");
    ASSERT_LT(parent, report.regions.size());
    EXPECT_EQ(report.regions[parent].calls, kSteps);
    std::uint64_t children_ns = 0;
    for (const char* name : {"rl.train.bootstrap_fwd", "rl.train.online_fwd",
                             "rl.train.backward", "rl.train.adam"}) {
        const std::size_t i = index_of(name);
        ASSERT_LT(i, report.regions.size()) << name;
        const auto& region = report.regions[i];
        EXPECT_EQ(region.parent, parent) << name;
        EXPECT_EQ(region.calls, kSteps) << name;
        EXPECT_LE(region.total_ns, report.regions[parent].total_ns) << name;
        children_ns += region.total_ns;
    }
    EXPECT_LE(children_ns, report.regions[parent].total_ns);
    EXPECT_EQ(children_ns, report.regions[parent].child_ns);
}

} // namespace
} // namespace lotus::rl
