#pragma once
// Deterministic pseudo-random number generation for simulation and RL.
//
// All stochastic components of the reproduction (workload streams, epsilon
// exploration, replay sampling, weight init) draw from a lotus::util::Rng so
// that every experiment is exactly reproducible from a single seed. The
// engine is SplitMix64 feeding xoshiro256++, which is fast, high quality and
// trivially seedable -- we deliberately avoid std::mt19937 so that
// independent streams are cheap to seed (`derive_seed` names each one).

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

namespace lotus::util {

/// Counter-based seeding helper (SplitMix64). Used to expand a single
/// user-provided seed into full xoshiro state and to derive child seeds.
class SplitMix64 {
public:
    explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

    std::uint64_t next() noexcept {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

private:
    std::uint64_t state_;
};

/// Derive a child seed from (root seed, stream id, index) with a
/// splitmix-style avalanche over an FNV-1a hash of the id. The result
/// depends only on the three inputs -- never on call order or thread
/// schedule -- which is what makes parallel episode execution reproduce the
/// serial run exactly: every (scenario, arm) episode owns a seed that is a
/// pure function of its identity.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t root, std::string_view stream_id,
                                        std::uint64_t index) noexcept;

/// xoshiro256++ PRNG with convenience distributions.
///
/// Satisfies UniformRandomBitGenerator so it can also be plugged into
/// <random> distributions if ever needed, but the member helpers below are
/// what the codebase uses (they are reproducible across platforms, unlike
/// libstdc++/libc++ distribution implementations).
class Rng {
public:
    using result_type = std::uint64_t;

    explicit Rng(std::uint64_t seed = 0x10705ULL) noexcept;

    static constexpr result_type min() noexcept { return 0; }
    static constexpr result_type max() noexcept { return ~0ULL; }

    result_type operator()() noexcept { return next_u64(); }

    std::uint64_t next_u64() noexcept;

    /// Uniform double in [0, 1).
    double uniform() noexcept;

    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi) noexcept;

    /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

    /// Bernoulli trial with success probability p (clamped to [0,1]).
    bool bernoulli(double p) noexcept;

    /// Standard normal via Box-Muller (cached second deviate).
    double normal() noexcept;

    /// Normal with the given mean and standard deviation.
    double normal(double mean, double stddev) noexcept;

    /// Log-normal: exp(N(mu, sigma)). Parameters are of the underlying normal.
    double lognormal(double mu, double sigma) noexcept;

    /// Sample k distinct indices from [0, n) (k <= n) into `out`, for replay
    /// sampling. `out` is overwritten; its capacity is reused.
    void sample_indices(std::size_t n, std::size_t k, std::vector<std::size_t>& out);

private:
    std::array<std::uint64_t, 4> s_{};
    double cached_normal_ = 0.0;
    bool has_cached_normal_ = false;
};

} // namespace lotus::util
