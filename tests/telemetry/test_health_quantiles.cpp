// One quantile per metric: health.json's e2e p50/p95/p99 are the episode
// summaries' own numbers. For a serving and a heterogeneous fleet scenario
// recorded with telemetry on, every scoreboard row renders exactly
// telemetry::jnum of the matching serving::ServingSummary: the fleet row
// the aggregate, each device row that device's summary (the aggregate for
// a single-device serving run), each stream row that stream's summary.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>

#include "harness/harness.hpp"
#include "harness/registry.hpp"
#include "telemetry/recorder.hpp"
#include "util/json.hpp"

namespace lotus {
namespace {

const harness::ScenarioRegistry& fast_registry() {
    static const harness::ScenarioRegistry registry = [] {
        ::setenv("LOTUS_BENCH_FAST", "1", 1);
        return harness::ScenarioRegistry();
    }();
    return registry;
}

/// A health.json field as its text in the document (null stays "null").
std::string rendered(const util::JsonValue& row, const char* key) {
    const auto& v = row.at(key);
    return v.is_null() ? "null" : telemetry::jnum(v.as_number());
}

/// Every e2e quantile of `row` equals the summary's; rows with nothing
/// served carry null where the summary carries 0.
void expect_row_matches(const util::JsonValue& row, const serving::ServingSummary& s,
                        const std::string& where) {
    EXPECT_EQ(row.at("requests").as_number(), static_cast<double>(s.requests)) << where;
    EXPECT_EQ(row.at("served").as_number(), static_cast<double>(s.served)) << where;
    const auto want = [&](double v) { return s.served > 0 ? telemetry::jnum(v) : "null"; };
    EXPECT_EQ(rendered(row, "e2e_p50_ms"), want(s.p50_ms)) << where;
    EXPECT_EQ(rendered(row, "e2e_p95_ms"), want(s.p95_ms)) << where;
    EXPECT_EQ(rendered(row, "e2e_p99_ms"), want(s.p99_ms)) << where;
}

/// The summaries a health.json row set is checked against, by row label.
struct Expected {
    serving::ServingSummary fleet;
    std::map<std::string, serving::ServingSummary> devices;
    std::map<std::string, serving::ServingSummary> streams;
};

Expected expected_of(const harness::EpisodeResult& r) {
    Expected e;
    if (r.fleet_trace) {
        const auto& t = *r.fleet_trace;
        e.fleet = t.aggregate();
        for (std::size_t d = 0; d < t.device_names().size(); ++d) {
            e.devices[t.device_names()[d]] = t.device_summary(d);
        }
        for (std::size_t s = 0; s < t.stream_names().size(); ++s) {
            e.streams[t.stream_names()[s]] = t.stream_summary(s);
        }
    } else {
        const auto& t = *r.serving_trace;
        e.fleet = t.aggregate();
        for (std::size_t s = 0; s < t.stream_names().size(); ++s) {
            e.streams[t.stream_names()[s]] = t.stream_summary(s);
        }
    }
    return e;
}

void expect_health_matches_summaries(const std::string& scenario) {
    const auto& sc = fast_registry().at(scenario);
    const auto results = harness::ExperimentHarness({.jobs = 2, .telemetry = true}).run(sc);
    ASSERT_FALSE(results.empty());
    for (const auto& r : results) {
        ASSERT_NE(r.telemetry, nullptr) << r.arm;
        const auto health = util::json_parse(r.telemetry->health_json());
        const auto want = expected_of(r);
        ASSERT_GT(want.fleet.served, 0u) << r.arm;
        expect_row_matches(health.at("fleet"), want.fleet, r.arm + " fleet");

        std::size_t devices_matched = 0;
        for (const auto& row : health.at("devices").items()) {
            const auto label = row.at("device").as_string();
            const auto where = r.arm + " device " + label;
            if (!r.fleet_trace) {
                // A serving run has one device: it served everything.
                expect_row_matches(row, want.fleet, where);
                ++devices_matched;
            } else if (want.devices.count(label) != 0) {
                expect_row_matches(row, want.devices.at(label), where);
                ++devices_matched;
            } else {
                // The router's shed ledger: no device summary, nothing served.
                EXPECT_EQ(row.at("served").as_number(), 0.0) << where;
                EXPECT_EQ(rendered(row, "e2e_p50_ms"), "null") << where;
            }
        }
        EXPECT_EQ(devices_matched, r.fleet_trace ? want.devices.size() : 1u) << r.arm;

        const auto& streams = health.at("streams").items();
        EXPECT_EQ(streams.size(), want.streams.size()) << r.arm;
        for (const auto& row : streams) {
            const auto label = row.at("stream").as_string();
            ASSERT_EQ(want.streams.count(label), 1u) << r.arm << " stream " << label;
            expect_row_matches(row, want.streams.at(label), r.arm + " stream " + label);
        }
    }
}

TEST(HealthQuantiles, ServingScoreboardEqualsEpisodeSummaries) {
    expect_health_matches_summaries("serve_saturation");
}

TEST(HealthQuantiles, FleetScoreboardEqualsEpisodeSummaries) {
    expect_health_matches_summaries("serve_fleet_hetero");
}

} // namespace
} // namespace lotus
