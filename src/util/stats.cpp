#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lotus::util {

void RunningStats::add(double x) noexcept {
    ++n_;
    if (n_ == 1) {
        mean_ = x;
        m2_ = 0.0;
        min_ = x;
        max_ = x;
        return;
    }
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& other) noexcept {
    if (other.n_ == 0) return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(other.n_);
    const double delta = other.mean_ - mean_;
    const double total = na + nb;
    mean_ += delta * nb / total;
    m2_ += other.m2_ + delta * delta * na * nb / total;
    n_ += other.n_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void RunningStats::reset() noexcept {
    *this = RunningStats{};
}

double RunningStats::variance() const noexcept {
    if (n_ < 2) return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept {
    return std::sqrt(variance());
}

WindowedStats::WindowedStats(std::size_t capacity) : capacity_(capacity) {
    if (capacity_ == 0) throw std::invalid_argument("WindowedStats: capacity must be > 0");
    buf_.reserve(capacity_);
}

void WindowedStats::add(double x) {
    if (buf_.size() < capacity_) {
        buf_.push_back(x);
    } else {
        buf_[head_] = x;
        head_ = (head_ + 1) % capacity_;
    }
}

void WindowedStats::reset() noexcept {
    buf_.clear();
    head_ = 0;
}

double WindowedStats::mean() const noexcept {
    if (buf_.empty()) return 0.0;
    double sum = 0.0;
    for (const double v : buf_) sum += v;
    return sum / static_cast<double>(buf_.size());
}

double WindowedStats::stddev() const noexcept {
    const std::size_t n = buf_.size();
    if (n < 2) return 0.0;
    const double m = mean();
    double acc = 0.0;
    for (const double v : buf_) acc += (v - m) * (v - m);
    return std::sqrt(acc / static_cast<double>(n));
}

namespace {

/// Interpolated percentile over an already-sorted series.
double sorted_percentile(const std::vector<double>& sorted, double p) {
    p = std::clamp(p, 0.0, 100.0);
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi = static_cast<std::size_t>(std::ceil(rank));
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

} // namespace

std::vector<double> percentiles(std::vector<double> values, const std::vector<double>& ps) {
    if (values.empty()) throw std::invalid_argument("percentiles: empty input");
    std::sort(values.begin(), values.end());
    std::vector<double> out;
    out.reserve(ps.size());
    for (const double p : ps) out.push_back(sorted_percentile(values, p));
    return out;
}

double satisfaction_rate(const std::vector<double>& values, double limit) noexcept {
    if (values.empty()) return 0.0;
    std::size_t ok = 0;
    for (const double v : values) {
        if (meets_limit(v, limit)) ++ok;
    }
    return static_cast<double>(ok) / static_cast<double>(values.size());
}

double pearson(const std::vector<double>& a, const std::vector<double>& b) {
    if (a.size() != b.size()) throw std::invalid_argument("pearson: size mismatch");
    const std::size_t n = a.size();
    if (n < 2) return 0.0;
    double ma = 0.0;
    double mb = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        ma += a[i];
        mb += b[i];
    }
    ma /= static_cast<double>(n);
    mb /= static_cast<double>(n);
    double cov = 0.0;
    double va = 0.0;
    double vb = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double da = a[i] - ma;
        const double db = b[i] - mb;
        cov += da * db;
        va += da * da;
        vb += db * db;
    }
    if (va <= 0.0 || vb <= 0.0) return 0.0;
    return cov / std::sqrt(va * vb);
}

} // namespace lotus::util
