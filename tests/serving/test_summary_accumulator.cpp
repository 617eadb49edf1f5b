// SummaryAccumulator edge cases: the streaming summariser on the degenerate
// inputs the engine-driven parity tests (test_summary_only.cpp) never hit --
// zero records, all-shed ledgers, and single-sample percentile inputs --
// plus a ledger-scan reference that the live summaries of ServingTrace and
// FleetTrace must match bit for bit in both capture modes.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fleet/trace.hpp"
#include "serving/request.hpp"
#include "serving/trace.hpp"
#include "util/stats.hpp"

#include "ledger_checks.hpp"

namespace lotus::serving {
namespace {

ServingRecord served(std::size_t id, std::size_t stream, double arrival_s,
                     double wait_s, double service_s, double slo_s) {
    ServingRecord r;
    r.request_id = id;
    r.stream = stream;
    r.arrival_s = arrival_s;
    r.start_s = arrival_s + wait_s;
    r.queue_wait_s = wait_s;
    r.service_s = service_s;
    r.e2e_s = wait_s + service_s;
    r.slo_s = slo_s;
    r.missed = !util::meets_limit(r.e2e_s, slo_s);
    r.cpu_temp = 40.0 + static_cast<double>(id);
    r.gpu_temp = 44.0 + static_cast<double>(id);
    r.energy_j = 0.5 + 0.1 * static_cast<double>(id);
    return r;
}

ServingRecord shed(std::size_t id, std::size_t stream, double arrival_s, double wait_s) {
    auto r = served(id, stream, arrival_s, wait_s, 0.0, 0.3);
    r.service_s = 0.0;
    r.e2e_s = wait_s;
    r.shed = true;
    r.missed = true;
    r.energy_j = 0.0;
    return r;
}

TEST(SummaryAccumulator, EmptyStreamSummarisesToZeros) {
    const SummaryAccumulator acc;
    const auto s = acc.summarize("idle_cam", 12.0);
    EXPECT_EQ(s.stream, "idle_cam");
    EXPECT_EQ(s.requests, 0u);
    EXPECT_EQ(s.served, 0u);
    EXPECT_EQ(s.shed, 0u);
    EXPECT_EQ(s.missed, 0u);
    EXPECT_EQ(s.p50_ms, 0.0);
    EXPECT_EQ(s.p99_ms, 0.0);
    EXPECT_EQ(s.miss_rate, 0.0);
    EXPECT_EQ(s.throughput_rps, 0.0);
    EXPECT_EQ(s.energy_per_req_j, 0.0);
    EXPECT_EQ(s.mean_device_temp_c, 0.0);
    EXPECT_EQ(s.peak_device_temp_c, 0.0);
}

TEST(SummaryAccumulator, AllShedLedgerHasNoLatencyButFullMissRate) {
    SummaryAccumulator acc;
    for (std::size_t i = 0; i < 4; ++i) {
        acc.add(shed(i, 0, 0.1 * static_cast<double>(i), 0.2));
    }
    const auto s = acc.summarize("overload", 5.0);
    EXPECT_EQ(s.requests, 4u);
    EXPECT_EQ(s.served, 0u);
    EXPECT_EQ(s.shed, 4u);
    EXPECT_EQ(s.missed, 4u);
    EXPECT_EQ(s.miss_rate, 1.0);
    EXPECT_EQ(s.shed_rate, 1.0);
    // No served sample: percentiles, wait, throughput and energy all stay
    // zero instead of dividing by nothing.
    EXPECT_EQ(s.p50_ms, 0.0);
    EXPECT_EQ(s.p95_ms, 0.0);
    EXPECT_EQ(s.mean_wait_ms, 0.0);
    EXPECT_EQ(s.throughput_rps, 0.0);
    EXPECT_EQ(s.energy_per_req_j, 0.0);
    // Device temperature is still observed at shed time.
    EXPECT_GT(s.mean_device_temp_c, 0.0);
    EXPECT_EQ(s.peak_device_temp_c, 0.5 * ((40.0 + 3) + (44.0 + 3)));
}

TEST(SummaryAccumulator, SingleRequestCollapsesPercentiles) {
    SummaryAccumulator acc;
    acc.add(served(9, 0, 1.0, 0.05, 0.15, 0.9));
    const auto s = acc.summarize("solo", 4.0);
    EXPECT_EQ(s.requests, 1u);
    EXPECT_EQ(s.served, 1u);
    // One sample: every percentile is that sample.
    EXPECT_EQ(s.p50_ms, 200.0);
    EXPECT_EQ(s.p95_ms, 200.0);
    EXPECT_EQ(s.p99_ms, 200.0);
    EXPECT_EQ(s.mean_wait_ms, 50.0);
    EXPECT_EQ(s.miss_rate, 0.0);
    EXPECT_EQ(s.throughput_rps, 0.25);
    EXPECT_EQ(s.energy_per_req_j, 0.5 + 0.9);
}

TEST(SummaryAccumulator, ZeroMakespanYieldsZeroThroughput) {
    SummaryAccumulator acc;
    acc.add(served(1, 0, 0.0, 0.0, 0.1, 0.9));
    EXPECT_EQ(acc.summarize("all", 0.0).throughput_rps, 0.0);
}

// --- Ledger-scan reference ------------------------------------------------
// The read-time path full-ledger traces once ran: filter the stored rows,
// feed them to a fresh accumulator in ledger order, then apply the trace's
// energy and peak-temperature overrides. The traces now summarise live only;
// this keeps the old arithmetic as the oracle they must match.

template <class Keep>
ServingSummary ledger_scan(const std::vector<ServingRecord>& rows, Keep keep,
                           std::string label, double makespan_s) {
    SummaryAccumulator acc;
    for (const auto& r : rows) {
        if (keep(r)) acc.add(r);
    }
    return acc.summarize(std::move(label), makespan_s);
}

void charge_energy(ServingSummary& s, double energy_j) {
    if (s.served > 0 && energy_j > 0.0) {
        s.energy_per_req_j = energy_j / static_cast<double>(s.served);
    }
}

/// Served-count skew over the devices that never failed.
double ledger_load_skew(const std::vector<ServingRecord>& rows,
                        const std::vector<fleet::DeviceStats>& stats) {
    std::vector<std::size_t> served(stats.size(), 0);
    for (const auto& r : rows) {
        if (r.device != kNoDevice && !r.shed) ++served[r.device];
    }
    util::RunningStats skew;
    for (std::size_t d = 0; d < served.size(); ++d) {
        if (!stats[d].failed) skew.add(static_cast<double>(served[d]));
    }
    const double mean = skew.mean();
    return mean > 0.0 ? skew.stddev() / mean : 0.0;
}

TEST(SummaryAccumulator, MatchesLedgerScanOnMixedSyntheticRows) {
    // Serving: out-of-order latencies, a shed, a miss, and a stream (cam2)
    // whose every request is shed.
    const std::vector<std::string> names = {"cam0", "cam1", "cam2"};
    std::vector<ServingRecord> rows;
    rows.push_back(served(0, 0, 0.0, 0.02, 0.30, 0.9));
    rows.push_back(served(1, 1, 0.1, 0.40, 0.70, 0.9)); // e2e 1.1 > slo: miss
    rows.push_back(shed(2, 0, 0.2, 0.25));
    rows.push_back(shed(3, 2, 0.25, 0.1));
    rows.push_back(served(4, 1, 0.3, 0.00, 0.10, 0.9));
    rows.push_back(shed(5, 2, 0.35, 0.3));
    rows.push_back(served(6, 0, 0.4, 0.05, 0.45, 0.9));

    for (const bool capture : {true, false}) {
        SCOPED_TRACE(capture ? "full ledger" : "summary only");
        ServingTrace trace(names, capture);
        for (const auto& r : rows) trace.add(r);
        trace.set_makespan(2.5);
        trace.set_total_energy(7.0);
        EXPECT_EQ(trace.size(), rows.size());
        EXPECT_EQ(trace.records().size(), capture ? rows.size() : 0u);

        auto agg = ledger_scan(rows, [](const ServingRecord&) { return true; }, "all", 2.5);
        charge_energy(agg, 7.0);
        expect_same_summary(trace.aggregate(), agg);
        for (std::size_t s = 0; s < names.size(); ++s) {
            expect_same_summary(
                trace.stream_summary(s),
                ledger_scan(rows, [s](const ServingRecord& r) { return r.stream == s; },
                            names[s], 2.5));
        }
        EXPECT_EQ(trace.stream_summary(2).served, 0u);
    }

    // Fleet: device-level sheds, router-level sheds (kNoDevice), the
    // all-shed stream, and a device (d2) withdrawn mid-run.
    const std::vector<std::string> devices = {"d0", "d1", "d2"};
    const auto on = [](std::size_t device, ServingRecord r) {
        r.device = device;
        return r;
    };
    std::vector<ServingRecord> fleet_rows;
    fleet_rows.push_back(on(0, rows[0]));
    fleet_rows.push_back(on(2, rows[1]));
    fleet_rows.push_back(on(1, rows[2]));
    fleet_rows.push_back(on(kNoDevice, rows[3]));
    fleet_rows.push_back(on(0, rows[4]));
    fleet_rows.push_back(on(kNoDevice, rows[5]));
    fleet_rows.push_back(on(1, rows[6]));
    fleet_rows.push_back(on(0, served(7, 1, 0.5, 0.01, 0.2, 0.9)));
    fleet_rows.back().migrated = true;
    std::vector<fleet::DeviceStats> stats(devices.size());
    for (std::size_t d = 0; d < stats.size(); ++d) {
        stats[d].makespan_s = 2.0 + static_cast<double>(d);
        stats[d].energy_j = 3.0 + static_cast<double>(d);
        stats[d].peak_temp_c = 60.0 + static_cast<double>(d);
    }
    stats[2].failed = true;
    stats[2].migrations_out = 1;

    for (const bool capture : {true, false}) {
        SCOPED_TRACE(capture ? "fleet full ledger" : "fleet summary only");
        fleet::FleetTrace trace(devices, names, capture);
        for (const auto& r : fleet_rows) trace.add(r);
        for (std::size_t d = 0; d < stats.size(); ++d) trace.set_device_stats(d, stats[d]);
        trace.set_makespan(4.0);
        EXPECT_EQ(trace.size(), fleet_rows.size());

        auto agg = ledger_scan(fleet_rows, [](const ServingRecord&) { return true; },
                               "fleet", 4.0);
        charge_energy(agg, trace.total_energy_j());
        agg.peak_device_temp_c = std::max(agg.peak_device_temp_c, trace.peak_temp_c());
        expect_same_summary(trace.aggregate(), agg);
        for (std::size_t d = 0; d < devices.size(); ++d) {
            auto dev = ledger_scan(
                fleet_rows, [d](const ServingRecord& r) { return r.device == d; },
                devices[d], 4.0);
            dev.peak_device_temp_c = std::max(dev.peak_device_temp_c, stats[d].peak_temp_c);
            charge_energy(dev, stats[d].energy_j);
            expect_same_summary(trace.device_summary(d), dev);
        }
        for (std::size_t s = 0; s < names.size(); ++s) {
            expect_same_summary(
                trace.stream_summary(s),
                ledger_scan(fleet_rows,
                            [s](const ServingRecord& r) { return r.stream == s; },
                            names[s], 4.0));
        }
        EXPECT_EQ(trace.load_skew(), ledger_load_skew(fleet_rows, stats));
        EXPECT_GT(trace.load_skew(), 0.0);
    }
}

} // namespace
} // namespace lotus::serving
