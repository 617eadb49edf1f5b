#include "rl/optimizer.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <type_traits>

#include "prof/profiler.hpp"

namespace lotus::rl {

CosineLrSchedule::CosineLrSchedule(double lr0, double lr_min, std::size_t total_steps)
    : lr0_(lr0), lr_min_(lr_min), total_steps_(total_steps) {
    if (lr0 <= 0.0 || lr_min < 0.0 || lr_min > lr0) {
        throw std::invalid_argument("CosineLrSchedule: bad rates");
    }
    if (total_steps == 0) throw std::invalid_argument("CosineLrSchedule: zero steps");
}

double CosineLrSchedule::at(std::size_t step) const noexcept {
    const double t = std::min(static_cast<double>(step), static_cast<double>(total_steps_));
    const double frac = t / static_cast<double>(total_steps_);
    return lr_min_ + 0.5 * (lr0_ - lr_min_) * (1.0 + std::cos(std::numbers::pi * frac));
}

Adam::Adam(const SlimmableMlp& net, AdamConfig config)
    : config_(config), lr_(config.lr, config.lr_min, config.lr_total_steps) {
    moments_.reserve(net.layers().size());
    for (const auto& layer : net.layers()) {
        Moments m;
        m.m_w.assign(layer.weights().size(), 0.0);
        m.v_w.assign(layer.weights().size(), 0.0);
        m.m_b.assign(layer.bias().size(), 0.0);
        m.v_b.assign(layer.bias().size(), 0.0);
        moments_.push_back(std::move(m));
    }
}

namespace {

// Unit roundoff of double.
constexpr double kUnitRoundoff = 0x1p-53;

// The clip's reference sum: every touched gradient squared, added in one
// sequential chain in flat order (each layer's weight rows, then its
// biases).
double touched_sq_sequential(std::vector<SlimmableLinear>& layers) noexcept {
    double sq = 0.0;
    for (auto& layer : layers) {
        const auto marked = layer.marked_cols();
        const auto& gw = layer.grad_weights();
        for (std::size_t r = 0; r < marked.size(); ++r) {
            const double* g = gw.row(r).data();
            for (std::size_t c = 0; c < marked[r]; ++c) sq += g[c] * g[c];
        }
        const auto gb = layer.grad_bias();
        for (std::size_t r = 0; r < marked.size(); ++r) {
            if (marked[r] > 0) sq += gb[r] * gb[r];
        }
    }
    return sq;
}

// The same squares summed in 8 independent lanes (vectorizable); `n`
// receives their count.
double touched_sq_lanes(std::vector<SlimmableLinear>& layers, std::size_t& n) noexcept {
    double lane[8] = {};
    n = 0;
    for (auto& layer : layers) {
        const auto marked = layer.marked_cols();
        const auto& gw = layer.grad_weights();
        for (std::size_t r = 0; r < marked.size(); ++r) {
            const double* g = gw.row(r).data();
            const std::size_t m = marked[r];
            std::size_t c = 0;
            for (; c + 8 <= m; c += 8) {
                #pragma GCC unroll 8
                for (std::size_t j = 0; j < 8; ++j) lane[j] += g[c + j] * g[c + j];
            }
            for (; c < m; ++c) lane[c % 8] += g[c] * g[c];
            n += m;
        }
        const auto gb = layer.grad_bias();
        for (std::size_t r = 0; r < marked.size(); ++r) {
            if (marked[r] == 0) continue;
            lane[r % 8] += gb[r] * gb[r];
            ++n;
        }
    }
    return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
           ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

// The step's per-entry constants.
struct Coeffs {
    double scale, lr, beta1, beta2, eps, bc1, bc2;
};

// Adam on one touched span; clears the gradients it reads. Branch-free, so
// the compiler can vectorize it without changing any result.
template <bool kDivBc1, bool kDivBc2>
void update_span(double* __restrict p, double* __restrict g, double* __restrict m,
                 double* __restrict v, std::size_t n, const Coeffs& k) noexcept {
    const double scale = k.scale;
    const double lr = k.lr;
    const double beta1 = k.beta1;
    const double beta2 = k.beta2;
    const double eps = k.eps;
    const double bc1 = k.bc1;
    const double bc2 = k.bc2;
    for (std::size_t i = 0; i < n; ++i) {
        const double gi = g[i] * scale;
        g[i] = 0.0;
        m[i] = beta1 * m[i] + (1.0 - beta1) * gi;
        v[i] = beta2 * v[i] + (1.0 - beta2) * gi * gi;
        const double mhat = kDivBc1 ? m[i] / bc1 : m[i];
        const double vhat = kDivBc2 ? v[i] / bc2 : v[i];
        p[i] -= lr * mhat / (std::sqrt(vhat) + eps);
    }
}

} // namespace

double Adam::step(SlimmableMlp& net) {
    if (net.layers().size() != moments_.size()) {
        throw std::invalid_argument("Adam::step: network topology changed");
    }

    // Optional global-norm gradient clipping over touched entries (see the
    // header for the pre-check's bound).
    double scale = 1.0;
    if (config_.grad_clip > 0.0) {
        std::size_t n = 0;
        const double lanes = touched_sq_lanes(net.layers(), n);
        // Relative slack (3n + 8)u, plus 2^-1000 for a product that rounds
        // in the subnormal range.
        const double slack = 1.0 + (3.0 * static_cast<double>(n) + 8.0) * kUnitRoundoff;
        const double bound = lanes * slack + 0x1p-1000;
        if (!(std::sqrt(bound) <= config_.grad_clip)) {
            LOTUS_PROF_COUNT("rl.adam_exact_clip", 1);
            const double norm = std::sqrt(touched_sq_sequential(net.layers()));
            if (norm > config_.grad_clip) scale = config_.grad_clip / norm;
        }
    }

    ++t_;
    const Coeffs k{.scale = scale,
                   .lr = lr_.at(t_),
                   .beta1 = config_.beta1,
                   .beta2 = config_.beta2,
                   .eps = config_.epsilon,
                   .bc1 = 1.0 - std::pow(config_.beta1, static_cast<double>(t_)),
                   .bc2 = 1.0 - std::pow(config_.beta2, static_cast<double>(t_))};

    // Update the touched spans only (untouched parameters and moments keep
    // their exact values), zeroing their gradients, then clear the marks.
    const auto update_touched = [&](auto div_bc1, auto div_bc2) {
        constexpr bool kDivBc1 = decltype(div_bc1)::value;
        constexpr bool kDivBc2 = decltype(div_bc2)::value;
        for (std::size_t li = 0; li < net.layers().size(); ++li) {
            auto& layer = net.layers()[li];
            auto& mom = moments_[li];
            const auto marked = layer.marked_cols();
            const std::size_t cols = layer.in_features();
            double* w = layer.weights().flat().data();
            double* gw = layer.grad_weights().flat().data();
            for (std::size_t r = 0; r < marked.size(); ++r) {
                const std::size_t o = r * cols;
                update_span<kDivBc1, kDivBc2>(w + o, gw + o, mom.m_w.data() + o,
                                              mom.v_w.data() + o, marked[r], k);
            }
            auto b = layer.bias();
            auto gb = layer.grad_bias();
            for (std::size_t r = 0; r < marked.size(); ++r) {
                if (marked[r] > 0) {
                    update_span<kDivBc1, kDivBc2>(&b[r], &gb[r], &mom.m_b[r], &mom.v_b[r], 1, k);
                }
            }
            layer.clear_marks();
        }
    };
    const bool div1 = k.bc1 != 1.0;
    const bool div2 = k.bc2 != 1.0;
    if (div1 && div2) {
        update_touched(std::true_type{}, std::true_type{});
    } else if (div1) {
        update_touched(std::true_type{}, std::false_type{});
    } else if (div2) {
        update_touched(std::false_type{}, std::true_type{});
    } else {
        update_touched(std::false_type{}, std::false_type{});
    }
    return k.lr;
}

} // namespace lotus::rl
