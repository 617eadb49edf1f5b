// Internal profiler contract (src/prof/): RAII region timers, monotonic
// counters, per-thread accumulation merged at capture, first-seen parent
// hierarchy, runtime timer gate, reset semantics and the text report.

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "prof/profiler.hpp"

namespace lotus::prof {
namespace {

/// Every test starts from zeroed state with timers off and leaves the
/// process the same way (the registry is process-global).
class ProfilerTest : public ::testing::Test {
protected:
    void SetUp() override {
        set_enabled(false);
        reset();
    }
    void TearDown() override {
        set_enabled(false);
        reset();
    }
};

const RegionReport* find_region(const Report& report, const std::string& name) {
    for (const auto& r : report.regions) {
        if (r.name == name) return &r;
    }
    return nullptr;
}

TEST_F(ProfilerTest, RegionsAccumulateCallsAndTime) {
    set_enabled(true);
    for (int i = 0; i < 3; ++i) {
        LOTUS_PROF_SCOPE("test.outer");
    }
    const auto report = capture();
    const auto* outer = find_region(report, "test.outer");
    ASSERT_NE(outer, nullptr);
    EXPECT_EQ(outer->calls, 3u);
    EXPECT_GT(outer->total_ns, 0u);
    EXPECT_EQ(outer->parent, static_cast<std::size_t>(-1)); // root
}

TEST_F(ProfilerTest, NestedScopesRecordFirstSeenParentAndChildTime) {
    set_enabled(true);
    {
        LOTUS_PROF_SCOPE("test.parent");
        {
            LOTUS_PROF_SCOPE("test.child");
        }
    }
    const auto report = capture();
    const auto* parent = find_region(report, "test.parent");
    const auto* child = find_region(report, "test.child");
    ASSERT_NE(parent, nullptr);
    ASSERT_NE(child, nullptr);
    ASSERT_LT(child->parent, report.regions.size());
    EXPECT_EQ(report.regions[child->parent].name, "test.parent");
    // The child's time is attributed to the parent: self <= total.
    EXPECT_GE(parent->child_ns, child->total_ns);
    EXPECT_LE(parent->self_ns(), parent->total_ns);
}

TEST_F(ProfilerTest, DisabledTimersRecordNothing) {
    ASSERT_FALSE(enabled());
    {
        LOTUS_PROF_SCOPE("test.disabled");
    }
    const auto report = capture();
    const auto* region = find_region(report, "test.disabled");
    // The name is interned by the macro's static regardless, but no calls or
    // time may be recorded while disabled.
    if (region != nullptr) {
        EXPECT_EQ(region->calls, 0u);
        EXPECT_EQ(region->total_ns, 0u);
    }
}

TEST_F(ProfilerTest, CountersCountEvenWhileTimersAreDisabled) {
    ASSERT_FALSE(enabled());
    LOTUS_PROF_COUNT("test.counter", 2);
    LOTUS_PROF_COUNT("test.counter", 3);
    EXPECT_EQ(counter_total("test.counter"), 5u);
    EXPECT_EQ(counter_total("test.never_registered"), 0u);
}

TEST_F(ProfilerTest, ResetZeroesValuesButKeepsNames) {
    set_enabled(true);
    {
        LOTUS_PROF_SCOPE("test.reset_region");
    }
    LOTUS_PROF_COUNT("test.reset_counter", 7);
    ASSERT_EQ(counter_total("test.reset_counter"), 7u);

    reset();
    EXPECT_EQ(counter_total("test.reset_counter"), 0u);
    const auto report = capture();
    const auto* region = find_region(report, "test.reset_region");
    ASSERT_NE(region, nullptr) << "reset must keep registered names";
    EXPECT_EQ(region->calls, 0u);
    EXPECT_EQ(region->total_ns, 0u);
}

TEST_F(ProfilerTest, WorkerThreadLogsMergeIntoTheCapture) {
    set_enabled(true);
    constexpr int kThreads = 4;
    constexpr int kPerThread = 100;
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([] {
            for (int i = 0; i < kPerThread; ++i) {
                LOTUS_PROF_SCOPE("test.worker");
                LOTUS_PROF_COUNT("test.worker_count", 1);
            }
        });
    }
    for (auto& w : workers) w.join();
    // Joined threads fold their logs into the registry at thread exit.
    const auto report = capture();
    const auto* region = find_region(report, "test.worker");
    ASSERT_NE(region, nullptr);
    EXPECT_EQ(region->calls, static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(counter_total("test.worker_count"),
              static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST_F(ProfilerTest, CaptureIsNameSortedRegardlessOfInterningOrder) {
    // Interning order is first-execution order, which under a parallel
    // harness depends on thread interleaving; the capture must not be.
    // Register from a worker thread in deliberately anti-alphabetical order,
    // then more names from this thread, and expect one sorted report with
    // parent links intact.
    set_enabled(true);
    std::thread worker([] {
        LOTUS_PROF_SCOPE("test.sort_z");
        LOTUS_PROF_COUNT("test.sortcnt_z", 1);
    });
    worker.join();
    {
        LOTUS_PROF_SCOPE("test.sort_a");
        LOTUS_PROF_SCOPE("test.sort_m");
        LOTUS_PROF_COUNT("test.sortcnt_a", 1);
    }
    const auto report = capture();
    for (std::size_t i = 1; i < report.regions.size(); ++i) {
        EXPECT_LT(report.regions[i - 1].name, report.regions[i].name);
    }
    for (std::size_t i = 1; i < report.counters.size(); ++i) {
        EXPECT_LT(report.counters[i - 1].name, report.counters[i].name);
    }
    const auto* child = find_region(report, "test.sort_m");
    ASSERT_NE(child, nullptr);
    ASSERT_LT(child->parent, report.regions.size());
    EXPECT_EQ(report.regions[child->parent].name, "test.sort_a");
}

TEST_F(ProfilerTest, ReportTextRendersRegionsAndCounters) {
    set_enabled(true);
    {
        LOTUS_PROF_SCOPE("test.report_region");
        LOTUS_PROF_COUNT("test.report_counter", 42);
    }
    const auto text = report_text();
    EXPECT_NE(text.find("test.report_region"), std::string::npos);
    EXPECT_NE(text.find("test.report_counter"), std::string::npos);
    EXPECT_NE(text.find("42"), std::string::npos);

    reset();
    EXPECT_NE(report_text().find("no profile samples recorded"), std::string::npos);
}

} // namespace
} // namespace lotus::prof
