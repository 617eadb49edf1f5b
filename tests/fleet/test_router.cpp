// Router policy unit tests: every policy is a deterministic pure function
// of (router state, views, request), ties break on the device index, and
// the thermally-informed policies actually route away from hot dies.

#include <gtest/gtest.h>

#include "fleet/router.hpp"

namespace lotus::fleet {
namespace {

DeviceView view(std::size_t index, double headroom_c, std::size_t depth,
                double expected_service_s = 0.4) {
    DeviceView v;
    v.index = index;
    v.headroom_c = headroom_c;
    v.queue_depth = depth;
    v.expected_service_s = expected_service_s;
    v.backlog_s = static_cast<double>(depth) * expected_service_s;
    return v;
}

serving::Request request() {
    serving::Request r;
    r.arrival_s = 1.0;
    r.slo_s = 0.9;
    return r;
}

TEST(RoundRobinRouter, CyclesThroughThePool) {
    RoundRobinRouter router;
    const std::vector<DeviceView> views = {view(0, 20, 0), view(1, 20, 0), view(2, 20, 0)};
    EXPECT_EQ(router.route(views, request(), 0.0), 0u);
    EXPECT_EQ(router.route(views, request(), 0.0), 1u);
    EXPECT_EQ(router.route(views, request(), 0.0), 2u);
    EXPECT_EQ(router.route(views, request(), 0.0), 0u);
}

TEST(RoundRobinRouter, SkipsUnavailableDevices) {
    RoundRobinRouter router;
    std::vector<DeviceView> views = {view(0, 20, 0), view(1, 20, 0), view(2, 20, 0)};
    views[1].available = false;
    EXPECT_EQ(router.route(views, request(), 0.0), 0u);
    EXPECT_EQ(router.route(views, request(), 0.0), 2u);
    EXPECT_EQ(router.route(views, request(), 0.0), 0u);
}

TEST(RoundRobinRouter, NoAvailableDeviceReturnsNoDevice) {
    RoundRobinRouter router;
    std::vector<DeviceView> views = {view(0, 20, 0)};
    views[0].available = false;
    EXPECT_EQ(router.route(views, request(), 0.0), serving::kNoDevice);
}

TEST(LeastQueueRouter, PicksSmallestBacklog) {
    LeastQueueRouter router;
    const std::vector<DeviceView> views = {view(0, 20, 3), view(1, 20, 1), view(2, 20, 2)};
    EXPECT_EQ(router.route(views, request(), 0.0), 1u);
}

TEST(LeastQueueRouter, BacklogIsSecondsNotDepth) {
    LeastQueueRouter router;
    // 3 requests on a fast device are a shorter wait than 1 on a phone.
    const std::vector<DeviceView> views = {view(0, 20, 3, 0.4), view(1, 20, 1, 1.6)};
    EXPECT_EQ(router.route(views, request(), 0.0), 0u);
}

TEST(LeastQueueRouter, TiesBreakOnIndex) {
    LeastQueueRouter router;
    const std::vector<DeviceView> views = {view(0, 20, 2), view(1, 20, 2), view(2, 20, 2)};
    EXPECT_EQ(router.route(views, request(), 0.0), 0u);
    EXPECT_EQ(router.route(views, request(), 0.0), 0u); // stateless: same answer
}

TEST(ThermalAwareRouter, RoutesAwayFromTheHotDie) {
    ThermalAwareRouter router;
    // Equal queues; device 0 is 3 K from its trip, device 1 has 25 K of
    // headroom. Round-robin would alternate; thermal_aware must flip every
    // pick to the cool die.
    const std::vector<DeviceView> views = {view(0, 3, 2), view(1, 25, 2)};
    EXPECT_EQ(router.route(views, request(), 0.0), 1u);
    EXPECT_EQ(router.route(views, request(), 0.0), 1u);
}

TEST(ThermalAwareRouter, BacklogPenaltyPreventsDrowningTheCoolDie) {
    ThermalAwareRouter router(/*backlog_weight_c_per_s=*/4.0);
    // The cool die is 10 K cooler but already 3 s deeper in backlog:
    // 10 - 4*3 < 0, so the warm-but-idle die wins.
    std::vector<DeviceView> views = {view(0, 10, 0, 1.0), view(1, 20, 3, 1.0)};
    EXPECT_EQ(router.route(views, request(), 0.0), 0u);
    // With only 1 s of extra backlog the cool die keeps the pick.
    views[1] = view(1, 20, 1, 1.0);
    EXPECT_EQ(router.route(views, request(), 0.0), 1u);
}

TEST(LotusFleetRouter, PicksEarliestPredictedCompletion) {
    LotusFleetRouter router;
    // Device 1 has the shorter (backlog + service) horizon; both have
    // ample thermal headroom, so no penalty applies.
    const std::vector<DeviceView> views = {view(0, 30, 3, 0.5), view(1, 30, 2, 0.5)};
    EXPECT_EQ(router.route(views, request(), 0.0), 1u);
}

TEST(LotusFleetRouter, PenalizesDevicesInsideTheSoftMargin) {
    LotusFleetRouter router(/*soft_margin_c=*/5.0, /*penalty_s_per_c=*/0.5);
    // Device 0 is marginally faster but sits 1 K from its trip: 4 K of
    // deficit = 2 s of penalty outweighs the 0.5 s queue advantage.
    const std::vector<DeviceView> views = {view(0, 1, 1, 0.5), view(1, 30, 2, 0.5)};
    EXPECT_EQ(router.route(views, request(), 0.0), 1u);
}

TEST(LotusFleetRouter, ThrottledDevicePaysExtra) {
    LotusFleetRouter router;
    std::vector<DeviceView> views = {view(0, 6, 1, 0.5), view(1, 6, 2, 0.5)};
    EXPECT_EQ(router.route(views, request(), 0.0), 0u);
    views[0].throttled = true;
    EXPECT_EQ(router.route(views, request(), 0.0), 1u);
}

TEST(MakeRouter, KnowsAllPoliciesAndRejectsUnknown) {
    for (const auto& name : router_names()) {
        EXPECT_EQ(make_router(name)->name(), name);
    }
    EXPECT_EQ(make_router("rr")->name(), "round_robin");
    EXPECT_EQ(make_router("jsq")->name(), "least_queue");
    EXPECT_THROW((void)make_router("freshest_die"), std::invalid_argument);
}

} // namespace
} // namespace lotus::fleet
