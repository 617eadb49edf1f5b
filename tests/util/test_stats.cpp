// Tests for streaming/windowed statistics -- the backbone of the latency
// tables (RunningStats) and the sigma_n reward term (WindowedStats).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace lotus::util {
namespace {

double naive_mean(const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return s / static_cast<double>(v.size());
}

double naive_sample_std(const std::vector<double>& v) {
    const double m = naive_mean(v);
    double acc = 0.0;
    for (const double x : v) acc += (x - m) * (x - m);
    return std::sqrt(acc / static_cast<double>(v.size() - 1));
}

TEST(RunningStats, EmptyIsZero) {
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleValue) {
    RunningStats s;
    s.add(4.5);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 4.5);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 4.5);
    EXPECT_DOUBLE_EQ(s.max(), 4.5);
}

TEST(RunningStats, MatchesNaiveComputation) {
    Rng rng(3);
    std::vector<double> v;
    RunningStats s;
    for (int i = 0; i < 5000; ++i) {
        const double x = rng.normal(100.0, 15.0);
        v.push_back(x);
        s.add(x);
    }
    EXPECT_NEAR(s.mean(), naive_mean(v), 1e-9);
    EXPECT_NEAR(s.stddev(), naive_sample_std(v), 1e-9);
}

TEST(RunningStats, NumericallyStableAtLargeOffset) {
    // Welford should survive a large common offset that would destroy the
    // naive sum-of-squares formula in single precision.
    RunningStats s;
    const double offset = 1e9;
    for (int i = 0; i < 1000; ++i) s.add(offset + (i % 2 == 0 ? 1.0 : -1.0));
    EXPECT_NEAR(s.mean(), offset, 1e-3);
    EXPECT_NEAR(s.variance(), 1.0 + 1.0 / 999.0, 1e-6);
}

TEST(RunningStats, MinMaxTracking) {
    RunningStats s;
    for (const double x : {3.0, -7.0, 12.0, 0.5}) s.add(x);
    EXPECT_DOUBLE_EQ(s.min(), -7.0);
    EXPECT_DOUBLE_EQ(s.max(), 12.0);
}

TEST(RunningStats, MergeEqualsConcatenation) {
    Rng rng(5);
    RunningStats a;
    RunningStats b;
    RunningStats whole;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(-10, 10);
        (i < 400 ? a : b).add(x);
        whole.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), whole.min());
    EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStats, MergeWithEmpty) {
    RunningStats a;
    a.add(1.0);
    a.add(2.0);
    RunningStats empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 2u);
    EXPECT_NEAR(empty.mean(), 1.5, 1e-12);
}

TEST(RunningStats, ResetClears) {
    RunningStats s;
    s.add(1.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
}

TEST(WindowedStats, RejectsZeroCapacity) {
    EXPECT_THROW(WindowedStats w(0), std::invalid_argument);
}

TEST(WindowedStats, PartialWindow) {
    WindowedStats w(10);
    w.add(2.0);
    w.add(4.0);
    EXPECT_EQ(w.size(), 2u);
    EXPECT_FALSE(w.full());
    EXPECT_DOUBLE_EQ(w.mean(), 3.0);
}

TEST(WindowedStats, EvictsOldestWhenFull) {
    WindowedStats w(3);
    for (const double x : {1.0, 2.0, 3.0, 10.0}) w.add(x);
    // Window should now hold {2, 3, 10}.
    EXPECT_TRUE(w.full());
    EXPECT_NEAR(w.mean(), 5.0, 1e-12);
}

TEST(WindowedStats, MatchesNaiveOverSlidingWindow) {
    Rng rng(7);
    constexpr std::size_t kWin = 10;
    WindowedStats w(kWin);
    std::vector<double> all;
    for (int i = 0; i < 500; ++i) {
        const double x = rng.uniform(0, 100);
        all.push_back(x);
        w.add(x);
        const std::size_t n = std::min(all.size(), kWin);
        std::vector<double> window(all.end() - static_cast<std::ptrdiff_t>(n), all.end());
        const double m = naive_mean(window);
        double acc = 0.0;
        for (const double v : window) acc += (v - m) * (v - m);
        const double pop_std = std::sqrt(acc / static_cast<double>(n));
        ASSERT_NEAR(w.mean(), m, 1e-9) << "at step " << i;
        ASSERT_NEAR(w.stddev(), pop_std, 1e-9) << "at step " << i;
    }
}

TEST(WindowedStats, SingletonStdIsZero) {
    WindowedStats w(5);
    w.add(42.0);
    EXPECT_EQ(w.stddev(), 0.0);
}

TEST(WindowedStats, ResetEmpties) {
    WindowedStats w(4);
    w.add(1.0);
    w.add(2.0);
    w.reset();
    EXPECT_EQ(w.size(), 0u);
    EXPECT_EQ(w.mean(), 0.0);
}

TEST(Percentile, KnownValues) {
    std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    EXPECT_DOUBLE_EQ(percentiles(v, {0})[0], 1.0);
    EXPECT_DOUBLE_EQ(percentiles(v, {100})[0], 10.0);
    EXPECT_DOUBLE_EQ(percentiles(v, {50})[0], 5.5);
}

TEST(Percentile, UnsortedInput) {
    std::vector<double> v{9, 1, 5, 3, 7};
    EXPECT_DOUBLE_EQ(percentiles(v, {50})[0], 5.0);
}

TEST(Percentile, EmptyThrows) {
    EXPECT_THROW((void)percentiles({}, {50}), std::invalid_argument);
}

TEST(Percentile, ClampsP) {
    std::vector<double> v{1, 2, 3};
    EXPECT_DOUBLE_EQ(percentiles(v, {-5})[0], 1.0);
    EXPECT_DOUBLE_EQ(percentiles(v, {150})[0], 3.0);
}

TEST(Percentiles, MatchesSingleCallsOverOneSort) {
    const std::vector<double> v{9, 1, 5, 3, 7, 2, 8, 4, 6, 10};
    const auto batch = percentiles(v, {0.0, 50.0, 95.0, 99.0, 100.0});
    ASSERT_EQ(batch.size(), 5u);
    EXPECT_DOUBLE_EQ(batch[0], percentiles(v, {0.0})[0]);
    EXPECT_DOUBLE_EQ(batch[1], percentiles(v, {50.0})[0]);
    EXPECT_DOUBLE_EQ(batch[2], percentiles(v, {95.0})[0]);
    EXPECT_DOUBLE_EQ(batch[3], percentiles(v, {99.0})[0]);
    EXPECT_DOUBLE_EQ(batch[4], percentiles(v, {100.0})[0]);
}

TEST(Percentiles, PreservesRequestOrderAndClamps) {
    const std::vector<double> v{1, 2, 3};
    const auto out = percentiles(v, {150.0, -5.0});
    ASSERT_EQ(out.size(), 2u);
    EXPECT_DOUBLE_EQ(out[0], 3.0);
    EXPECT_DOUBLE_EQ(out[1], 1.0);
    EXPECT_TRUE(percentiles(v, {}).empty());
}

TEST(Percentiles, EmptyInputThrows) {
    EXPECT_THROW((void)percentiles({}, {50.0}), std::invalid_argument);
}

TEST(SatisfactionRate, BoundaryCountsAsSatisfied) {
    // The repo's single SLO boundary rule: "<= limit is satisfied", matching
    // the serving layer's miss accounting (missed means e2e > slo).
    std::vector<double> v{0.1, 0.2, 0.3, 0.3, 0.5};
    EXPECT_DOUBLE_EQ(satisfaction_rate(v, 0.3), 0.8);
    EXPECT_DOUBLE_EQ(satisfaction_rate(v, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(satisfaction_rate(v, 0.05), 0.0);
    // The exact-boundary case: a sample precisely on the limit satisfies it.
    EXPECT_DOUBLE_EQ(satisfaction_rate({0.5}, 0.5), 1.0);
    EXPECT_DOUBLE_EQ(satisfaction_rate({std::nextafter(0.5, 1.0)}, 0.5), 0.0);
}

TEST(SatisfactionRate, EmptyIsZero) {
    EXPECT_DOUBLE_EQ(satisfaction_rate({}, 1.0), 0.0);
}

TEST(Pearson, PerfectCorrelation) {
    std::vector<double> a{1, 2, 3, 4};
    std::vector<double> b{2, 4, 6, 8};
    EXPECT_NEAR(pearson(a, b), 1.0, 1e-12);
    std::vector<double> c{8, 6, 4, 2};
    EXPECT_NEAR(pearson(a, c), -1.0, 1e-12);
}

TEST(Pearson, DegenerateSeriesIsZero) {
    std::vector<double> a{1, 1, 1};
    std::vector<double> b{2, 3, 4};
    EXPECT_EQ(pearson(a, b), 0.0);
}

TEST(Pearson, SizeMismatchThrows) {
    EXPECT_THROW((void)pearson({1, 2}, {1, 2, 3}), std::invalid_argument);
}

} // namespace
} // namespace lotus::util
