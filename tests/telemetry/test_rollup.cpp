// Rollup contract tests: window assignment and count identities, pro-rata
// span splitting across window boundaries, the exact-quantile identity
// health.json is built on (merged windows == util::percentiles over every
// sample), and the recorder integration (rollup always on).

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "telemetry/recorder.hpp"
#include "telemetry/rollup.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace lotus::telemetry {
namespace {

using Outcome = Rollup::Outcome;

TEST(Rollup, RejectsNonPositiveWindow) {
    EXPECT_THROW(Rollup(0.0), std::invalid_argument);
    EXPECT_THROW(Rollup(-1.0), std::invalid_argument);
}

TEST(Rollup, RequestsLandInTheirCompletionWindow) {
    Rollup r(1.0);
    r.record_request("dev", "cam0", 0.2, Outcome::ok, 50.0, 5.0);
    r.record_request("dev", "cam0", 0.9, Outcome::late, 120.0, 30.0);
    r.record_request("dev", "cam0", 1.1, Outcome::shed, 0.0, 80.0);
    const auto& series = r.streams().at("dev").at("cam0");
    ASSERT_EQ(series.size(), 2u);
    const auto& w0 = series.at(0);
    EXPECT_EQ(w0.ok, 1u);
    EXPECT_EQ(w0.late, 1u);
    EXPECT_EQ(w0.shed, 0u);
    // e2e holds completions only; queue wait holds every outcome.
    EXPECT_EQ(w0.e2e_ms.size(), 2u);
    EXPECT_EQ(w0.queue_wait_ms.size(), 2u);
    const auto& w1 = series.at(1);
    EXPECT_EQ(w1.shed, 1u);
    EXPECT_EQ(w1.e2e_ms.size(), 0u);
    EXPECT_EQ(w1.queue_wait_ms.size(), 1u);
}

TEST(Rollup, SpanSplitsProRataAcrossWindows) {
    Rollup r(1.0);
    // 2.5 s span at level 3, throttled, 10 J: windows get 0.5 / 1.0 / 1.0
    // of the duration and the same fractions of the energy.
    r.record_device_span("dev", 0.5, 3.0, 3, true, 10.0);
    const auto& series = r.devices().at("dev");
    ASSERT_EQ(series.size(), 3u);
    EXPECT_NEAR(series.at(0).opp_residency_s.at(3), 0.5, 1e-12);
    EXPECT_NEAR(series.at(1).opp_residency_s.at(3), 1.0, 1e-12);
    EXPECT_NEAR(series.at(2).opp_residency_s.at(3), 1.0, 1e-12);
    EXPECT_NEAR(series.at(0).throttle_s, 0.5, 1e-12);
    EXPECT_NEAR(series.at(0).energy_j, 10.0 * 0.5 / 2.5, 1e-12);
    EXPECT_NEAR(series.at(1).energy_j, 10.0 * 1.0 / 2.5, 1e-12);
    double total_energy = 0.0;
    for (const auto& [id, win] : series) total_energy += win.energy_j;
    EXPECT_NEAR(total_energy, 10.0, 1e-12);
}

TEST(Rollup, EmptySpanIsANoOp) {
    Rollup r(1.0);
    r.record_device_span("dev", 2.0, 2.0, 0, false, 5.0);
    EXPECT_TRUE(r.devices().empty());
}

TEST(Rollup, TempSamplesTrackHeadroomMinimum) {
    Rollup r(0.5);
    r.record_temp_sample("dev", 0.1, 45.0, 30.0);
    r.record_temp_sample("dev", 0.2, 55.0, 20.0);
    r.record_temp_sample("dev", 0.7, 60.0, 15.0);
    const auto& series = r.devices().at("dev");
    ASSERT_EQ(series.size(), 2u);
    EXPECT_EQ(series.at(0).temp_c.size(), 2u);
    EXPECT_EQ(series.at(0).headroom_min_c, 20.0);
    EXPECT_EQ(series.at(1).headroom_min_c, 15.0);
    EXPECT_EQ(*std::max_element(series.at(0).temp_c.begin(), series.at(0).temp_c.end()),
              55.0);
}

// The identity health.json relies on: the scoreboard quantiles over the
// merged windows are exactly util::percentiles over every sample of the
// run, whatever window the samples landed in.
TEST(Rollup, MergedWindowQuantilesEqualWholeRunPercentiles) {
    Rollup r(0.25);
    std::vector<double> whole;
    double t = 0.0;
    for (int i = 0; i < 500; ++i) {
        t += 0.01 + 0.001 * (i % 7);
        const double e2e = 20.0 + 17.0 * ((i * i) % 13) + 0.001 * i;
        const bool late = (i % 11) == 0;
        r.record_request("dev", "cam", t, late ? Outcome::late : Outcome::ok, e2e,
                         1.0 + (i % 5));
        whole.push_back(e2e);
    }
    ASSERT_GT(r.streams().at("dev").at("cam").size(), 1u);
    const auto want = util::percentiles(whole, {50.0, 95.0, 99.0});
    const char* keys[] = {"e2e_p50_ms", "e2e_p95_ms", "e2e_p99_ms"};
    const auto health = util::json_parse(r.health_json({}));
    for (const auto* row : {&health.at("fleet"), &health.at("devices").items().at(0),
                            &health.at("streams").items().at(0)}) {
        for (std::size_t k = 0; k < 3; ++k) {
            // Both sides rendered through jnum: the strings health.json holds.
            EXPECT_EQ(jnum(row->at(keys[k]).as_number()), jnum(want[k])) << keys[k];
        }
    }
}

TEST(Rollup, HealthJsonAggregatesMatchWindowTotals) {
    Rollup r(1.0);
    r.record_request("a", "cam0", 0.5, Outcome::ok, 40.0, 2.0);
    r.record_request("a", "cam0", 1.5, Outcome::shed, 0.0, 90.0);
    r.record_request("b", "cam1", 0.7, Outcome::late, 200.0, 60.0);
    const std::string health = r.health_json({{"a", 1}, {"b", 2}});
    // Fleet row: 3 requests, 2 served, 1 shed, 2 missed, 3 breaches.
    EXPECT_NE(health.find("\"requests\":3"), std::string::npos) << health;
    EXPECT_NE(health.find("\"served\":2"), std::string::npos) << health;
    EXPECT_NE(health.find("\"shed\":1"), std::string::npos) << health;
    EXPECT_NE(health.find("\"missed\":2"), std::string::npos) << health;
    EXPECT_NE(health.find("\"breaches\":3"), std::string::npos) << health;
}

TEST(Rollup, UnmatchedBreachProcessesCountTowardFleet) {
    Rollup r(1.0);
    r.record_request("a", "cam0", 0.5, Outcome::ok, 40.0, 2.0);
    // "router" has no rollup rows; its breaches must still reach the fleet
    // row rather than vanish.
    const std::string health = r.health_json({{"router", 4}});
    EXPECT_NE(health.find("\"breaches\":4"), std::string::npos) << health;
}

// --- recorder integration ---------------------------------------------------

TEST(Recorder, RollupAlwaysOn) {
    Recorder rec;
    EXPECT_EQ(rec.rollup().window_s(), kRollupWindowS);
    // Exports are well-formed even with nothing recorded.
    EXPECT_NE(rec.rollup_json().find("\"schema_version\""), std::string::npos);
    EXPECT_NE(rec.health_json().find("\"fleet\""), std::string::npos);
}

} // namespace
} // namespace lotus::telemetry
