// Tests for the RequestQueue and the scheduling policies: selection order,
// deterministic tie-breaks, admission-control shedding and the factory --
// plus a differential test of the heap-ordered queue against a brute-force
// linear scan over the pending requests in push order.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "serving/queue.hpp"
#include "serving/scheduler.hpp"
#include "util/rng.hpp"

namespace lotus::serving {
namespace {

Request req(std::size_t id, double arrival_s, double slo_s, std::size_t stream = 0) {
    Request r;
    r.id = id;
    r.stream = stream;
    r.arrival_s = arrival_s;
    r.slo_s = slo_s;
    return r;
}

TEST(RequestQueue, PushDrainAndDepthTracking) {
    RequestQueue q;
    EXPECT_TRUE(q.empty());
    q.push(req(2, 1.0, 1.0));
    q.push(req(0, 0.0, 1.0));
    q.push(req(1, 0.5, 1.0));
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.max_depth(), 3u);

    EXPECT_EQ(q.pop().id, 0u); // default order: earliest deadline
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.max_depth(), 3u); // high-water mark survives the pop

    const auto drained = q.drain();
    ASSERT_EQ(drained.size(), 2u);
    EXPECT_EQ(drained[0].id, 2u); // push order, not heap order
    EXPECT_EQ(drained[1].id, 1u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.max_depth(), 3u); // ... and the drain
    EXPECT_TRUE(q.drain().empty());
    EXPECT_THROW((void)q.pop(), std::out_of_range);
}

TEST(RequestQueue, SetOrderRekeysPendingRequests) {
    RequestQueue q;
    q.push(req(0, 0.0, 5.0)); // deadline 5
    q.push(req(1, 1.0, 1.0)); // deadline 2
    q.push(req(2, 0.5, 0.5)); // deadline 1
    q.set_order(QueueOrder::arrival);
    EXPECT_EQ(q.pop().id, 0u);
    q.set_order(QueueOrder::deadline);
    EXPECT_EQ(q.pop().id, 2u);
    EXPECT_EQ(q.pop().id, 1u);
}

TEST(FifoScheduler, PicksEarliestArrival) {
    RequestQueue q;
    q.push(req(2, 3.0, 1.0));
    q.push(req(0, 1.0, 1.0));
    q.push(req(1, 2.0, 1.0));

    FifoScheduler fifo;
    const auto d = fifo.pick(q, 3.0, 0.4);
    ASSERT_TRUE(d.next.has_value());
    EXPECT_EQ(d.next->id, 0u);
    EXPECT_TRUE(d.shed.empty());
    EXPECT_EQ(q.size(), 2u);
}

TEST(FifoScheduler, TieBreaksOnId) {
    RequestQueue q;
    q.push(req(5, 1.0, 1.0));
    q.push(req(3, 1.0, 1.0));
    FifoScheduler fifo;
    EXPECT_EQ(fifo.pick(q, 1.0, 0.0).next->id, 3u);
}

TEST(EdfScheduler, PicksEarliestDeadline) {
    RequestQueue q;
    q.push(req(0, 0.0, 5.0)); // deadline 5
    q.push(req(1, 1.0, 1.0)); // deadline 2  <- most urgent
    q.push(req(2, 0.5, 3.0)); // deadline 3.5

    EdfScheduler edf;
    const auto d = edf.pick(q, 1.0, 0.4);
    ASSERT_TRUE(d.next.has_value());
    EXPECT_EQ(d.next->id, 1u);
    EXPECT_TRUE(d.shed.empty());
}

TEST(EdfScheduler, NeverSheds) {
    RequestQueue q;
    q.push(req(0, 0.0, 0.1)); // deadline 0.1, hopeless at now=10
    EdfScheduler edf;
    const auto d = edf.pick(q, 10.0, 1.0);
    ASSERT_TRUE(d.next.has_value());
    EXPECT_EQ(d.next->id, 0u);
    EXPECT_TRUE(d.shed.empty());
}

TEST(EdfAdmitScheduler, ShedsExpiredRequests) {
    RequestQueue q;
    q.push(req(0, 0.0, 0.5)); // deadline 0.5 < now -> shed
    q.push(req(1, 0.8, 1.0)); // deadline 1.8 -> feasible

    EdfAdmitScheduler admit;
    const auto d = admit.pick(q, 1.0, 0.0); // no service estimate yet
    ASSERT_TRUE(d.next.has_value());
    EXPECT_EQ(d.next->id, 1u);
    ASSERT_EQ(d.shed.size(), 1u);
    EXPECT_EQ(d.shed[0].id, 0u);
}

TEST(EdfAdmitScheduler, ShedsPredictedMisses) {
    RequestQueue q;
    q.push(req(0, 0.0, 1.2)); // deadline 1.2; now+service = 1.4 -> predicted miss
    q.push(req(1, 0.0, 2.0)); // deadline 2.0 -> feasible

    EdfAdmitScheduler admit;
    const auto d = admit.pick(q, 1.0, 0.4);
    ASSERT_TRUE(d.next.has_value());
    EXPECT_EQ(d.next->id, 1u);
    ASSERT_EQ(d.shed.size(), 1u);
    EXPECT_EQ(d.shed[0].id, 0u);
    EXPECT_TRUE(q.empty());
}

TEST(EdfAdmitScheduler, CanShedEverything) {
    RequestQueue q;
    q.push(req(0, 0.0, 0.1));
    q.push(req(1, 0.0, 0.2));
    EdfAdmitScheduler admit;
    const auto d = admit.pick(q, 5.0, 0.5);
    EXPECT_FALSE(d.next.has_value());
    EXPECT_EQ(d.shed.size(), 2u);
    EXPECT_TRUE(q.empty());
}

TEST(SchedulerFactory, BuildsKnownPolicies) {
    for (const auto& name : scheduler_names()) {
        const auto s = make_scheduler(name);
        EXPECT_EQ(s->name(), name);
    }
    EXPECT_EQ(make_scheduler("edf-admit")->name(), "edf_admit");
    EXPECT_THROW((void)make_scheduler("lifo"), std::invalid_argument);
}

TEST(Schedulers, EmptyQueueYieldsNothing) {
    RequestQueue q;
    for (const auto& name : scheduler_names()) {
        auto s = make_scheduler(name);
        const auto d = s->pick(q, 1.0, 0.5);
        EXPECT_FALSE(d.next.has_value()) << name;
        EXPECT_TRUE(d.shed.empty()) << name;
    }
}

/// Brute-force reference: pending requests kept in push order, each pick a
/// linear scan for the smallest (key, arrival, id) tuple, admission-control
/// sheds collected by a front-to-back sweep.
class ScanReference {
public:
    void push(const Request& r) { pending_.push_back(r); }

    ScheduleDecision pick(const std::string& policy, double now_s, double service_s) {
        ScheduleDecision d;
        if (policy == "edf_admit") {
            const double horizon = now_s + std::max(service_s, 0.0);
            std::vector<Request> kept;
            for (const auto& r : pending_) {
                (r.deadline_s() < horizon ? d.shed : kept).push_back(r);
            }
            pending_ = std::move(kept);
        }
        if (pending_.empty()) return d;
        const auto key = [&policy](const Request& r) {
            return std::make_tuple(policy == "fifo" ? r.arrival_s : r.deadline_s(),
                                   r.arrival_s, r.id);
        };
        std::size_t best = 0;
        for (std::size_t i = 1; i < pending_.size(); ++i) {
            if (key(pending_[i]) < key(pending_[best])) best = i;
        }
        d.next = pending_[best];
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(best));
        return d;
    }

    [[nodiscard]] std::size_t size() const noexcept { return pending_.size(); }

private:
    std::vector<Request> pending_;
};

std::vector<std::size_t> ids_of(const std::vector<Request>& requests) {
    std::vector<std::size_t> ids;
    for (const auto& r : requests) ids.push_back(r.id);
    return ids;
}

/// How many picks shed nothing, some, or every pending request.
struct ShedCoverage {
    std::size_t none = 0;
    std::size_t some = 0;
    std::size_t all = 0;
};

/// Drive one seeded push/pick sequence through the queue and the reference,
/// drawing each pick's policy from `policies` (one queue may be shared by
/// several policies, which re-keys the heap). Times sit on a 0.25 s grid so
/// equal arrivals and equal deadlines (from different arrivals) are common;
/// ids come from a shuffled pool, so pushes arrive out of id order like the
/// fleet's migration re-pushes. (void, so ASSERTs can end the sequence.)
void run_differential(const std::vector<std::string>& policies, std::uint64_t seed,
                      ShedCoverage& coverage) {
    constexpr std::size_t kRequests = 600;
    util::Rng rng(seed);
    std::vector<std::size_t> ids(kRequests);
    std::iota(ids.begin(), ids.end(), std::size_t{0});
    for (std::size_t i = kRequests - 1; i > 0; --i) {
        std::swap(ids[i], ids[static_cast<std::size_t>(
                              rng.uniform_int(0, static_cast<std::int64_t>(i)))]);
    }
    const auto grid = [&rng](std::int64_t lo, std::int64_t hi) {
        return 0.25 * static_cast<double>(rng.uniform_int(lo, hi));
    };

    RequestQueue queue;
    ScanReference ref;
    std::size_t pushed = 0;
    for (std::size_t step = 0; pushed < kRequests || !queue.empty(); ++step) {
        const auto burst = static_cast<std::size_t>(rng.uniform_int(0, 4));
        for (std::size_t k = 0; k < burst && pushed < kRequests; ++k) {
            const auto r = req(ids[pushed++], grid(0, 40), grid(1, 8));
            queue.push(r);
            ref.push(r);
        }
        const auto& policy =
            policies[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(policies.size()) - 1))];
        const double now = grid(0, 48);
        const double service = grid(0, 3);
        const std::size_t depth = queue.size();

        const auto got = make_scheduler(policy)->pick(queue, now, service);
        const auto want = ref.pick(policy, now, service);
        const std::string where = policy + " at step " + std::to_string(step);
        ASSERT_EQ(got.next.has_value(), want.next.has_value()) << where;
        if (want.next) {
            ASSERT_EQ(got.next->id, want.next->id) << where;
        }
        ASSERT_EQ(ids_of(got.shed), ids_of(want.shed)) << where;
        ASSERT_EQ(queue.size(), ref.size()) << where;

        if (policy == "edf_admit" && depth > 0) {
            if (got.shed.empty()) ++coverage.none;
            else if (got.shed.size() == depth) ++coverage.all;
            else ++coverage.some;
        }
    }
}

TEST(RequestQueueDifferential, MatchesLinearScanPerPolicy) {
    for (const auto& policy : scheduler_names()) {
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            ShedCoverage coverage;
            run_differential({policy}, seed, coverage);
            if (HasFatalFailure()) return;
            if (policy == "edf_admit") {
                EXPECT_GT(coverage.none, 0u) << "seed " << seed;
                EXPECT_GT(coverage.some, 0u) << "seed " << seed;
                EXPECT_GT(coverage.all, 0u) << "seed " << seed;
            }
        }
    }
}

TEST(RequestQueueDifferential, MatchesLinearScanWithPoliciesSharingAQueue) {
    for (std::uint64_t seed = 100; seed < 108; ++seed) {
        ShedCoverage coverage;
        run_differential(scheduler_names(), seed, coverage);
        if (HasFatalFailure()) return;
    }
}

TEST(EdfAdmitScheduler, ShedsInPushOrderNotIdOrder) {
    // A migrated request is re-pushed after newer arrivals with a lower id;
    // sheds must still come back in push order.
    RequestQueue q;
    q.push(req(7, 0.5, 0.5)); // deadline 1.0
    q.push(req(9, 0.0, 0.25)); // deadline 0.25
    q.push(req(3, 0.25, 0.5)); // deadline 0.75 (re-pushed, lower id)
    q.push(req(8, 1.0, 4.0)); // deadline 5.0 -> feasible
    EdfAdmitScheduler admit;
    const auto d = admit.pick(q, 2.0, 0.0);
    ASSERT_TRUE(d.next.has_value());
    EXPECT_EQ(d.next->id, 8u);
    EXPECT_EQ(ids_of(d.shed), (std::vector<std::size_t>{7, 9, 3}));
}

} // namespace
} // namespace lotus::serving
