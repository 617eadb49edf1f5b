// Tests for the serving arrival processes: determinism in (spec, count,
// seed), ordering, mean-rate preservation and input validation.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "serving/arrivals.hpp"

namespace lotus::serving {
namespace {

ArrivalSpec spec_of(ArrivalKind kind, double rate = 2.0) {
    ArrivalSpec s;
    s.kind = kind;
    s.rate_hz = rate;
    return s;
}

/// Every arrival the generator has left, in order.
std::vector<double> drain(ArrivalGenerator gen) {
    std::vector<double> out;
    while (!gen.done()) out.push_back(gen.next());
    return out;
}

const ArrivalKind kAllKinds[] = {ArrivalKind::periodic, ArrivalKind::poisson,
                                 ArrivalKind::bursty, ArrivalKind::diurnal,
                                 ArrivalKind::attack};

TEST(Arrivals, PeriodicIsExact) {
    auto s = spec_of(ArrivalKind::periodic, 4.0);
    s.phase_s = 0.5;
    const auto t = drain(ArrivalGenerator(s, 5, 1));
    ASSERT_EQ(t.size(), 5u);
    for (std::size_t k = 0; k < t.size(); ++k) {
        EXPECT_DOUBLE_EQ(t[k], 0.5 + static_cast<double>(k) / 4.0);
    }
}

TEST(Arrivals, AllKindsAscendingAndCorrectCount) {
    for (const auto kind : kAllKinds) {
        const auto t = drain(ArrivalGenerator(spec_of(kind), 200, 7));
        ASSERT_EQ(t.size(), 200u) << to_string(kind);
        for (std::size_t i = 1; i < t.size(); ++i) {
            EXPECT_LE(t[i - 1], t[i]) << to_string(kind) << " index " << i;
        }
        EXPECT_GE(t.front(), 0.0) << to_string(kind);
    }
}

TEST(Arrivals, DeterministicInSeed) {
    for (const auto kind : kAllKinds) {
        const auto a = drain(ArrivalGenerator(spec_of(kind), 100, 42));
        const auto b = drain(ArrivalGenerator(spec_of(kind), 100, 42));
        ASSERT_EQ(a, b) << to_string(kind);
    }
}

TEST(Arrivals, SeedChangesStochasticKinds) {
    for (const auto kind : {ArrivalKind::poisson, ArrivalKind::bursty,
                            ArrivalKind::diurnal, ArrivalKind::attack}) {
        const auto a = drain(ArrivalGenerator(spec_of(kind), 100, 1));
        const auto b = drain(ArrivalGenerator(spec_of(kind), 100, 2));
        EXPECT_NE(a, b) << to_string(kind);
    }
}

TEST(Arrivals, MeanRatePreserved) {
    // Span of n arrivals at rate r should be ~n/r for every process.
    for (const auto kind : kAllKinds) {
        const auto t = drain(ArrivalGenerator(spec_of(kind, 2.0), 1000, 3));
        const double span = t.back() - t.front();
        const double expected = 1000.0 / 2.0;
        EXPECT_NEAR(span, expected, 0.35 * expected) << to_string(kind);
    }
}

TEST(Arrivals, BurstyClustersRequests) {
    auto s = spec_of(ArrivalKind::bursty, 1.0);
    s.burst = 5;
    s.burst_spread_s = 0.01;
    const auto t = drain(ArrivalGenerator(s, 50, 9));
    // Inside a volley consecutive gaps are the tight spread; between
    // volleys they are ~burst/rate. Count tight gaps.
    std::size_t tight = 0;
    for (std::size_t i = 1; i < t.size(); ++i) {
        if (t[i] - t[i - 1] < 0.011) ++tight;
    }
    // 10 volleys of 5 -> 40 intra-volley gaps.
    EXPECT_EQ(tight, 40u);
}

TEST(Arrivals, AttackLeavesQuietGaps) {
    auto s = spec_of(ArrivalKind::attack, 1.0);
    s.burst = 10;
    const auto t = drain(ArrivalGenerator(s, 100, 11));
    double longest_gap = 0.0;
    for (std::size_t i = 1; i < t.size(); ++i) {
        longest_gap = std::max(longest_gap, t[i] - t[i - 1]);
    }
    // Quiet phases are ~burst/rate = 10 s long (+-30%).
    EXPECT_GT(longest_gap, 5.0);
}

TEST(Arrivals, KindNamesRoundTrip) {
    for (const auto kind : kAllKinds) {
        EXPECT_EQ(arrival_kind_from(to_string(kind)), kind);
    }
    EXPECT_EQ(arrival_kind_from("bursty"), ArrivalKind::bursty);
    EXPECT_THROW((void)arrival_kind_from("sinusoidal"), std::invalid_argument);
}

TEST(Arrivals, RejectsInvalidSpecs) {
    auto bad_rate = spec_of(ArrivalKind::poisson, 0.0);
    EXPECT_THROW((void)ArrivalGenerator(bad_rate, 10, 1), std::invalid_argument);

    auto bad_burst = spec_of(ArrivalKind::bursty);
    bad_burst.burst = 0;
    EXPECT_THROW((void)ArrivalGenerator(bad_burst, 10, 1), std::invalid_argument);

    auto bad_floor = spec_of(ArrivalKind::diurnal);
    bad_floor.diurnal_floor = 0.0;
    EXPECT_THROW((void)ArrivalGenerator(bad_floor, 10, 1), std::invalid_argument);

    auto bad_phase = spec_of(ArrivalKind::periodic);
    bad_phase.phase_s = -1.0;
    EXPECT_THROW((void)ArrivalGenerator(bad_phase, 10, 1), std::invalid_argument);

    EXPECT_TRUE(drain(ArrivalGenerator(spec_of(ArrivalKind::periodic), 0, 1)).empty());
}

} // namespace
} // namespace lotus::serving
