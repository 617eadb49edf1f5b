#pragma once
// Streaming and windowed statistics.
//
// Two primitives back the whole evaluation pipeline:
//  * RunningStats  -- Welford-style single-pass mean/variance/min/max, used
//    for the l̄ and sigma_l columns of Tables 1-2.
//  * WindowedStats -- mean/std over the most recent n samples, used for the
//    sigma_n(Delta-L) term in the latency reward of Eq. (2).

#include <cstddef>
#include <vector>

namespace lotus::util {

/// Single-pass mean / variance / extrema accumulator (Welford's algorithm).
/// Numerically stable for the long (3,000+ sample) latency traces the
/// benches produce.
class RunningStats {
public:
    void add(double x) noexcept;
    void merge(const RunningStats& other) noexcept;
    void reset() noexcept;

    [[nodiscard]] std::size_t count() const noexcept { return n_; }
    [[nodiscard]] double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
    /// Sample variance (n-1 denominator); 0 for fewer than two samples.
    [[nodiscard]] double variance() const noexcept;
    [[nodiscard]] double stddev() const noexcept;
    [[nodiscard]] double min() const noexcept { return n_ > 0 ? min_ : 0.0; }
    [[nodiscard]] double max() const noexcept { return n_ > 0 ? max_ : 0.0; }

private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/// Mean/std over a sliding window of the most recent `capacity` samples.
/// Implements sigma_n(.) from Eq. (2) of the paper. Uses exact recomputation
/// over the (small) window to avoid the drift of incremental sum updates.
class WindowedStats {
public:
    explicit WindowedStats(std::size_t capacity);

    void add(double x);
    void reset() noexcept;

    [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
    [[nodiscard]] bool full() const noexcept { return buf_.size() == capacity_; }
    [[nodiscard]] double mean() const noexcept;
    /// Population std over the window (n denominator); 0 for empty/singleton.
    [[nodiscard]] double stddev() const noexcept;

private:
    std::size_t capacity_;
    std::size_t head_ = 0; // next slot to overwrite once full
    std::vector<double> buf_;
};

/// Percentiles over ONE sort of a copy of the data: returns one value per
/// entry of `ps` (each clamped to [0, 100]), in the same order. Exact:
/// linear interpolation at rank p/100 * (n - 1). Throws on empty input.
[[nodiscard]] std::vector<double> percentiles(std::vector<double> values,
                                              const std::vector<double>& ps);

/// The one latency-limit boundary rule of the repo: a value exactly on its
/// limit meets it. R_L (satisfaction_rate, runtime::Trace::summary) and the
/// serving ledger's SLO misses (missed means !meets_limit(e2e, slo)) all
/// call this.
[[nodiscard]] constexpr bool meets_limit(double value, double limit) noexcept {
    return value <= limit;
}

/// Fraction of samples that meets_limit(x, limit); the satisfaction rate R_L
/// of Tables 1-2. Returns 0 for an empty range.
[[nodiscard]] double satisfaction_rate(const std::vector<double>& values, double limit) noexcept;

/// Pearson correlation of two equal-length series (0 if degenerate).
[[nodiscard]] double pearson(const std::vector<double>& a, const std::vector<double>& b);

} // namespace lotus::util
