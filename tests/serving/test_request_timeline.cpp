// Request timeline order: serving::RequestTimeline's lazy k-way merge (and
// build_request_timeline, which drains it) must equal a test-local
// reference that materialises every stream and sorts by (arrival, stream,
// frame index), on the cases where ordering is delicate: periodic phase-0
// streams that tie across streams, and volley processes at rates high
// enough that the monotonicity clamp ties arrivals within a stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "serving/engine.hpp"
#include "util/rng.hpp"
#include "workload/dataset.hpp"

namespace lotus::serving {
namespace {

/// Materialise-and-sort reference. The per-stream seeds are the timeline's
/// seed namespaces ("arrivals/<name>", "frames/<name>", stream index).
std::vector<Request> sorted_reference(const std::vector<StreamSpec>& streams,
                                      std::uint64_t seed) {
    std::vector<Request> all;
    for (std::size_t s = 0; s < streams.size(); ++s) {
        const auto& stream = streams[s];
        ArrivalGenerator arrivals(stream.arrival, stream.requests,
                                  util::derive_seed(seed, "arrivals/" + stream.name, s));
        workload::FrameStream frames(workload::dataset_by_name(stream.dataset),
                                     util::derive_seed(seed, "frames/" + stream.name, s));
        for (std::size_t k = 0; k < stream.requests; ++k) {
            Request r;
            r.stream = s;
            r.arrival_s = arrivals.next();
            r.slo_s = stream.slo_s;
            r.frame = frames.next();
            all.push_back(r);
        }
    }
    std::stable_sort(all.begin(), all.end(), [](const Request& a, const Request& b) {
        if (a.arrival_s != b.arrival_s) return a.arrival_s < b.arrival_s;
        if (a.stream != b.stream) return a.stream < b.stream;
        return a.frame.index < b.frame.index;
    });
    for (std::size_t i = 0; i < all.size(); ++i) all[i].id = i;
    return all;
}

StreamSpec stream(std::string name, ArrivalKind kind, double rate_hz, std::size_t requests,
                  std::string dataset = "KITTI") {
    StreamSpec s;
    s.name = std::move(name);
    s.dataset = std::move(dataset);
    s.slo_s = 0.5;
    s.requests = requests;
    s.arrival.kind = kind;
    s.arrival.rate_hz = rate_hz;
    s.arrival.phase_s = 0.0;
    return s;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Compares the merged timeline with the reference request by request and
/// returns how many adjacent pairs tie on arrival across / within streams.
struct Ties {
    std::size_t cross = 0;
    std::size_t within = 0;
};

Ties expect_matches_reference(const std::vector<StreamSpec>& streams, std::uint64_t seed) {
    const auto got = build_request_timeline(streams, seed);
    const auto want = sorted_reference(streams, seed);
    EXPECT_EQ(got.size(), want.size());
    Ties ties;
    for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
        SCOPED_TRACE("request " + std::to_string(i));
        EXPECT_EQ(got[i].id, i);
        EXPECT_EQ(got[i].stream, want[i].stream);
        EXPECT_EQ(bits(got[i].arrival_s), bits(want[i].arrival_s));
        EXPECT_EQ(got[i].frame.index, want[i].frame.index);
        EXPECT_EQ(got[i].frame.proposals, want[i].frame.proposals);
        EXPECT_EQ(bits(got[i].frame.jitter), bits(want[i].frame.jitter));
        EXPECT_EQ(bits(got[i].slo_s), bits(want[i].slo_s));
        if (i > 0 && want[i].arrival_s == want[i - 1].arrival_s) {
            ++(want[i].stream == want[i - 1].stream ? ties.within : ties.cross);
        }
    }
    return ties;
}

TEST(RequestTimeline, PeriodicPhaseZeroStreamsTieAcrossStreams) {
    // Same-rate and harmonic-rate periodic streams from phase 0 share
    // instants: every tie must go to the lower stream index.
    const std::vector<StreamSpec> streams{
        stream("a", ArrivalKind::periodic, 2.0, 40),
        stream("b", ArrivalKind::periodic, 2.0, 40, "VisDrone2019"),
        stream("c", ArrivalKind::periodic, 4.0, 60),
        stream("d", ArrivalKind::periodic, 1.0, 20),
    };
    for (const std::uint64_t seed : {1u, 42u, 977u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const auto ties = expect_matches_reference(streams, seed);
        EXPECT_GT(ties.cross, 40u);
    }
}

TEST(RequestTimeline, ClampedVolleysTieWithinAndAcrossStreams) {
    // At these rates consecutive volleys overlap, so the monotonicity clamp
    // repeats arrivals inside a stream: generation order must hold there.
    std::vector<StreamSpec> streams{
        stream("burst0", ArrivalKind::bursty, 400.0, 120),
        stream("attack0", ArrivalKind::attack, 400.0, 120),
        stream("burst1", ArrivalKind::bursty, 250.0, 90, "VisDrone2019"),
        stream("attack1", ArrivalKind::attack, 300.0, 90),
    };
    for (auto& s : streams) s.arrival.burst = 16;
    for (const std::uint64_t seed : {3u, 42u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const auto ties = expect_matches_reference(streams, seed);
        EXPECT_GT(ties.within, 0u);
    }
}

TEST(RequestTimeline, MixedProcessesMatchTheReference) {
    std::vector<StreamSpec> streams{
        stream("p", ArrivalKind::poisson, 3.0, 50),
        stream("d", ArrivalKind::diurnal, 2.0, 50),
        stream("t", ArrivalKind::periodic, 3.0, 50),
    };
    streams[2].arrival.phase_s = 0.25;
    (void)expect_matches_reference(streams, 7);
}

TEST(RequestTimeline, DrainsEveryStreamOnceThenStops) {
    const std::vector<StreamSpec> streams{
        stream("a", ArrivalKind::periodic, 2.0, 5),
        stream("b", ArrivalKind::poisson, 2.0, 3),
    };
    RequestTimeline timeline(streams, 11);
    EXPECT_EQ(timeline.size(), 8u);
    const auto whole = build_request_timeline(streams, 11);
    Request r;
    std::size_t n = 0;
    while (timeline.next(r)) {
        ASSERT_LT(n, whole.size());
        EXPECT_EQ(r.id, whole[n].id);
        EXPECT_EQ(bits(r.arrival_s), bits(whole[n].arrival_s));
        ++n;
    }
    EXPECT_EQ(n, 8u);
    EXPECT_FALSE(timeline.next(r));
    EXPECT_TRUE(build_request_timeline({}, 11).empty());
}

} // namespace
} // namespace lotus::serving
