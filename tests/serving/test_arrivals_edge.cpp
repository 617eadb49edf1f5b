// Edge-case contracts for the arrival processes: zero-count requests,
// extreme rates, tiny volleys, large phase offsets and spec validation.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "serving/arrivals.hpp"

namespace lotus::serving {
namespace {

ArrivalSpec spec_of(ArrivalKind kind, double rate) {
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

TEST(ArrivalsEdge, ZeroCountYieldsEmptyTimeline) {
    for (const auto kind : kAllKinds) {
        const auto t = drain(ArrivalGenerator(spec_of(kind, 2.0), 0, 3));
        EXPECT_TRUE(t.empty()) << to_string(kind);
    }
}

TEST(ArrivalsEdge, ExtremeRatesStayAscendingAndFinite) {
    for (const auto kind : kAllKinds) {
        for (const double rate : {1e-6, 1e6, 1e9}) {
            auto s = spec_of(kind, rate);
            s.burst = 16;
            const auto t = drain(ArrivalGenerator(s, 500, 11));
            ASSERT_EQ(t.size(), 500u) << to_string(kind) << " @ " << rate;
            EXPECT_GE(t.front(), 0.0) << to_string(kind) << " @ " << rate;
            for (std::size_t i = 0; i < t.size(); ++i) {
                ASSERT_TRUE(std::isfinite(t[i]))
                    << to_string(kind) << " @ " << rate << " index " << i;
                if (i > 0) {
                    ASSERT_LE(t[i - 1], t[i])
                        << to_string(kind) << " @ " << rate << " index " << i;
                }
            }
        }
    }
}

TEST(ArrivalsEdge, TinyBurstAndSingleRequest) {
    for (const auto kind : kAllKinds) {
        auto s = spec_of(kind, 0.5);
        s.burst = 1;
        const auto t = drain(ArrivalGenerator(s, 1, 5));
        ASSERT_EQ(t.size(), 1u) << to_string(kind);
        EXPECT_TRUE(std::isfinite(t[0])) << to_string(kind);
        EXPECT_GE(t[0], 0.0) << to_string(kind);
    }
}

TEST(ArrivalsEdge, LargePhaseOffsetsShiftNotScramble) {
    for (const auto kind : kAllKinds) {
        auto s = spec_of(kind, 2.0);
        s.phase_s = 1e6;
        const auto t = drain(ArrivalGenerator(s, 100, 9));
        ASSERT_EQ(t.size(), 100u) << to_string(kind);
        EXPECT_GE(t.front(), 0.0) << to_string(kind);
        for (std::size_t i = 1; i < t.size(); ++i) {
            ASSERT_LE(t[i - 1], t[i]) << to_string(kind) << " index " << i;
        }
    }
}

TEST(ArrivalsEdge, ValidationStillRejectsBadSpecs) {
    EXPECT_THROW((void)ArrivalGenerator(spec_of(ArrivalKind::poisson, 0.0), 10, 1),
                 std::invalid_argument);
    EXPECT_THROW((void)ArrivalGenerator(spec_of(ArrivalKind::poisson, -1.0), 10, 1),
                 std::invalid_argument);
    auto s = spec_of(ArrivalKind::bursty, 1.0);
    s.burst = 0;
    EXPECT_THROW((void)ArrivalGenerator(s, 10, 1), std::invalid_argument);
}

} // namespace
} // namespace lotus::serving
