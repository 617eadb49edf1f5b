// Tests for lotus::util::Rng -- determinism, distribution sanity, forking.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace lotus::util {
namespace {

TEST(Rng, SameSeedSameSequence) {
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(a.next_u64(), b.next_u64()) << "diverged at draw " << i;
    }
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next_u64() == b.next_u64()) ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf) {
    Rng rng(11);
    double sum = 0.0;
    constexpr int kN = 100000;
    for (int i = 0; i < kN; ++i) sum += rng.uniform();
    EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
    Rng rng(13);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.5, 8.25);
        ASSERT_GE(u, -3.5);
        ASSERT_LT(u, 8.25);
    }
}

TEST(Rng, UniformIntInclusiveBounds) {
    Rng rng(17);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 5000; ++i) {
        const auto v = rng.uniform_int(3, 7);
        ASSERT_GE(v, 3);
        ASSERT_LE(v, 7);
        seen.insert(v);
    }
    // All five values should appear in 5000 draws.
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntDegenerateRange) {
    Rng rng(19);
    EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntUnbiasedAcrossValues) {
    Rng rng(23);
    constexpr int kN = 60000;
    int counts[6] = {0};
    for (int i = 0; i < kN; ++i) counts[rng.uniform_int(0, 5)]++;
    for (const int c : counts) {
        EXPECT_NEAR(static_cast<double>(c) / kN, 1.0 / 6.0, 0.01);
    }
}

TEST(Rng, BernoulliEdgeCases) {
    Rng rng(29);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
        EXPECT_FALSE(rng.bernoulli(-1.0));
        EXPECT_TRUE(rng.bernoulli(2.0));
    }
}

TEST(Rng, BernoulliRate) {
    Rng rng(31);
    constexpr int kN = 50000;
    int hits = 0;
    for (int i = 0; i < kN; ++i) {
        if (rng.bernoulli(0.3)) ++hits;
    }
    EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, NormalMoments) {
    Rng rng(37);
    constexpr int kN = 200000;
    double sum = 0.0;
    double sq = 0.0;
    for (int i = 0; i < kN; ++i) {
        const double x = rng.normal();
        sum += x;
        sq += x * x;
    }
    const double mean = sum / kN;
    const double var = sq / kN - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.02);
    EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, NormalShifted) {
    Rng rng(41);
    constexpr int kN = 50000;
    double sum = 0.0;
    for (int i = 0; i < kN; ++i) sum += rng.normal(10.0, 2.0);
    EXPECT_NEAR(sum / kN, 10.0, 0.05);
}

TEST(Rng, LognormalPositiveAndMedian) {
    Rng rng(43);
    std::vector<double> xs;
    for (int i = 0; i < 20001; ++i) {
        const double x = rng.lognormal(1.0, 0.5);
        ASSERT_GT(x, 0.0);
        xs.push_back(x);
    }
    std::nth_element(xs.begin(), xs.begin() + 10000, xs.end());
    // Median of lognormal = exp(mu).
    EXPECT_NEAR(xs[10000], std::exp(1.0), 0.1);
}

TEST(Rng, SampleIndicesDistinctAndInRange) {
    Rng rng(53);
    std::vector<std::size_t> idx;
    for (int trial = 0; trial < 100; ++trial) {
        rng.sample_indices(50, 10, idx);
        ASSERT_EQ(idx.size(), 10u);
        std::set<std::size_t> unique(idx.begin(), idx.end());
        ASSERT_EQ(unique.size(), 10u) << "duplicates drawn";
        for (const auto i : idx) ASSERT_LT(i, 50u);
    }
}

TEST(Rng, SampleIndicesFullSet) {
    Rng rng(59);
    std::vector<std::size_t> idx{99, 98}; // stale contents are overwritten
    rng.sample_indices(8, 8, idx);
    ASSERT_EQ(idx.size(), 8u);
    std::set<std::size_t> unique(idx.begin(), idx.end());
    EXPECT_EQ(unique.size(), 8u);
}

TEST(Rng, SampleIndicesRejectsOversample) {
    Rng rng(61);
    std::vector<std::size_t> idx;
    EXPECT_THROW(rng.sample_indices(3, 4, idx), std::invalid_argument);
}

TEST(Rng, SampleIndicesUniformCoverage) {
    Rng rng(67);
    std::vector<int> counts(20, 0);
    constexpr int kTrials = 20000;
    std::vector<std::size_t> idx;
    for (int t = 0; t < kTrials; ++t) {
        rng.sample_indices(20, 5, idx);
        for (const auto i : idx) counts[i]++;
    }
    // Each index expected kTrials * 5/20 times.
    for (const int c : counts) {
        EXPECT_NEAR(static_cast<double>(c) / kTrials, 0.25, 0.02);
    }
}

TEST(DeriveSeed, PureFunctionOfInputs) {
    const auto a = derive_seed(42, "fig4_kitti", 0);
    const auto b = derive_seed(42, "fig4_kitti", 0);
    EXPECT_EQ(a, b);
}

TEST(DeriveSeed, DistinguishesRootIdAndIndex) {
    const auto base = derive_seed(42, "fig4_kitti", 0);
    EXPECT_NE(base, derive_seed(43, "fig4_kitti", 0));
    EXPECT_NE(base, derive_seed(42, "fig4_visdrone", 0));
    EXPECT_NE(base, derive_seed(42, "fig4_kitti", 1));
}

TEST(DeriveSeed, NeighbouringIndicesUncorrelated) {
    // Streams seeded from adjacent arm indices must diverge immediately.
    Rng a(derive_seed(7, "scenario", 0));
    Rng b(derive_seed(7, "scenario", 1));
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next_u64() == b.next_u64()) ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(DeriveSeed, ManyEpisodesNoCollisions) {
    std::set<std::uint64_t> seeds;
    const char* scenarios[] = {"table1_frcnn_kitti", "table1_frcnn_visdrone",
                               "fig7a_temp_changes", "stress_heatwave"};
    for (const char* s : scenarios) {
        for (std::uint64_t arm = 0; arm < 64; ++arm) {
            seeds.insert(derive_seed(42, s, arm));
        }
    }
    EXPECT_EQ(seeds.size(), 4u * 64u);
}

} // namespace
} // namespace lotus::util
