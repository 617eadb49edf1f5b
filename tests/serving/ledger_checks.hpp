#pragma once
// Equality checks shared by the serving and fleet ledger tests: one for a
// summary, field by field, and one for two serving::Ledger views
// (ServingTrace or fleet::FleetTrace), which must hold the same stream
// table, makespan and rows, every ServingRecord field exactly equal --
// device and migrated included.

#include <gtest/gtest.h>

#include <string>

#include "serving/trace.hpp"

namespace lotus::serving {

/// Exact double equality: same arithmetic, same order, same bits.
inline void expect_same_summary(const ServingSummary& a, const ServingSummary& b) {
    EXPECT_EQ(a.stream, b.stream);
    EXPECT_EQ(a.requests, b.requests) << a.stream;
    EXPECT_EQ(a.served, b.served) << a.stream;
    EXPECT_EQ(a.shed, b.shed) << a.stream;
    EXPECT_EQ(a.missed, b.missed) << a.stream;
    EXPECT_EQ(a.p50_ms, b.p50_ms) << a.stream;
    EXPECT_EQ(a.p95_ms, b.p95_ms) << a.stream;
    EXPECT_EQ(a.p99_ms, b.p99_ms) << a.stream;
    EXPECT_EQ(a.mean_wait_ms, b.mean_wait_ms) << a.stream;
    EXPECT_EQ(a.miss_rate, b.miss_rate) << a.stream;
    EXPECT_EQ(a.shed_rate, b.shed_rate) << a.stream;
    EXPECT_EQ(a.throughput_rps, b.throughput_rps) << a.stream;
    EXPECT_EQ(a.energy_per_req_j, b.energy_per_req_j) << a.stream;
    EXPECT_EQ(a.mean_device_temp_c, b.mean_device_temp_c) << a.stream;
    EXPECT_EQ(a.peak_device_temp_c, b.peak_device_temp_c) << a.stream;
}

// A new ServingRecord field must get its own line below.
static_assert(sizeof(ServingRecord) == 104,
              "ServingRecord changed: compare the new field in expect_ledgers_identical");

inline void expect_ledgers_identical(const Ledger& a, const Ledger& b,
                                     const std::string& label) {
    ASSERT_EQ(a.size(), b.size()) << label;
    ASSERT_EQ(a.stream_names(), b.stream_names()) << label;
    EXPECT_EQ(a.makespan_s(), b.makespan_s()) << label;
    ASSERT_EQ(a.records().size(), b.records().size()) << label;
    for (std::size_t i = 0; i < a.records().size(); ++i) {
        const auto& x = a.records()[i];
        const auto& y = b.records()[i];
        const auto where = label + " row " + std::to_string(i);
        ASSERT_EQ(x.request_id, y.request_id) << where;
        ASSERT_EQ(x.stream, y.stream) << where;
        ASSERT_EQ(x.device, y.device) << where;
        ASSERT_EQ(x.arrival_s, y.arrival_s) << where;
        ASSERT_EQ(x.start_s, y.start_s) << where;
        ASSERT_EQ(x.queue_wait_s, y.queue_wait_s) << where;
        ASSERT_EQ(x.service_s, y.service_s) << where;
        ASSERT_EQ(x.e2e_s, y.e2e_s) << where;
        ASSERT_EQ(x.slo_s, y.slo_s) << where;
        ASSERT_EQ(x.shed, y.shed) << where;
        ASSERT_EQ(x.missed, y.missed) << where;
        ASSERT_EQ(x.throttled, y.throttled) << where;
        ASSERT_EQ(x.migrated, y.migrated) << where;
        ASSERT_EQ(x.proposals, y.proposals) << where;
        ASSERT_EQ(x.cpu_temp, y.cpu_temp) << where;
        ASSERT_EQ(x.gpu_temp, y.gpu_temp) << where;
        ASSERT_EQ(x.energy_j, y.energy_j) << where;
    }
}

} // namespace lotus::serving
