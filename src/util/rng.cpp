#include "util/rng.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace lotus::util {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
}
} // namespace

std::uint64_t derive_seed(std::uint64_t root, std::string_view stream_id,
                          std::uint64_t index) noexcept {
    std::uint64_t h = 0xcbf29ce484222325ULL; // FNV-1a over the stream id
    for (const char c : stream_id) {
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    // Two splitmix rounds: the first folds (root, id), the second folds the
    // index so that neighbouring indices land in unrelated states.
    SplitMix64 first(root ^ rotl(h, 17));
    SplitMix64 second(first.next() ^ (index * 0x9e3779b97f4a7c15ULL + 0xd1b54a32d192ed03ULL));
    return second.next();
}

Rng::Rng(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& word : s_) word = sm.next();
}

std::uint64_t Rng::next_u64() noexcept {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double Rng::uniform() noexcept {
    // 53 high bits -> double in [0,1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    if (lo >= hi) return lo;
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1ULL;
    // Unbiased rejection sampling (Lemire-style threshold).
    const std::uint64_t threshold = (~span + 1ULL) % span; // (2^64 - span) mod span
    for (;;) {
        const std::uint64_t r = next_u64();
        if (r >= threshold) return lo + static_cast<std::int64_t>(r % span);
    }
}

bool Rng::bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
}

double Rng::normal() noexcept {
    if (has_cached_normal_) {
        has_cached_normal_ = false;
        return cached_normal_;
    }
    // Box-Muller; u1 in (0,1] to avoid log(0).
    double u1 = 1.0 - uniform();
    double u2 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * std::numbers::pi * u2;
    cached_normal_ = radius * std::sin(theta);
    has_cached_normal_ = true;
    return radius * std::cos(theta);
}

double Rng::normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
}

double Rng::lognormal(double mu, double sigma) noexcept {
    return std::exp(normal(mu, sigma));
}

void Rng::sample_indices(std::size_t n, std::size_t k, std::vector<std::size_t>& out) {
    if (k > n) throw std::invalid_argument("sample_indices: k > n");
    // Floyd's algorithm: O(k) expected, no O(n) scratch.
    out.clear();
    for (std::size_t j = n - k; j < n; ++j) {
        const auto t = static_cast<std::size_t>(
            uniform_int(0, static_cast<std::int64_t>(j)));
        bool seen = false;
        for (const auto v : out) {
            if (v == t) { seen = true; break; }
        }
        out.push_back(seen ? j : t);
    }
}

} // namespace lotus::util
