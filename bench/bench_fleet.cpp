// Fleet routing comparison: does thermally-informed placement beat blind
// placement at the pool level?
//
// "Play It Cool" argues that shifting work between compute resources
// prevents throttling before it happens; LOTUS provides the per-device
// control. This bench runs the `serve_fleet_saturation` registry scenario
// -- 4 Orin Nanos in a hot aisle with an airflow gradient, offered ~30%
// more Poisson load than the pool sustains -- and compares the routing
// policies under per-device LOTUS governors and under the Linux
// `performance` governor.
//
// The bench FAILS (non-zero exit; it runs as a CTest smoke) unless:
//
//  * at least one of `thermal_aware` / `lotus_fleet` beats `round_robin`
//    on fleet deadline-miss rate at an equal-or-lower fleet peak
//    temperature (both under LOTUS governors), and
//  * a fleet run is byte-identical at --jobs 1 and --jobs 4 (checked on
//    the pretrain-free governor arms so the check stays cheap; the
//    FleetEngine paths exercised are identical).

#include <cstdio>
#include <string>

#include "common.hpp"

using namespace lotus;

namespace {

/// Aggregate metrics of one fleet episode.
struct FleetPoint {
    double miss_rate = 0.0;
    double peak_temp_c = 0.0;
    bool found = false;
};

FleetPoint point_of(const std::vector<bench::EpisodeResult>& results,
                    const std::string& arm) {
    for (const auto& r : results) {
        if (r.arm != arm || !r.fleet_trace) continue;
        return {r.fleet_trace->aggregate().miss_rate, r.fleet_trace->peak_temp_c(), true};
    }
    return {};
}

/// --jobs byte-identity on the fleet engine: a two-arm, pretrain-free copy
/// of the scenario (kernel-governor arms only) rendered to JSON under
/// serial and parallel harnesses must match byte for byte.
bool jobs_identity_check(const bench::Scenario& sc) {
    harness::Scenario subset(sc.config);
    subset.name = sc.name;
    subset.title = sc.title + " (jobs identity subset)";
    subset.fleet = sc.fleet;
    subset.arms.push_back(harness::fleet_arm(harness::performance_arm(), "round_robin"));
    subset.arms.push_back(
        harness::fleet_arm(harness::default_arm(), "lotus_fleet"));

    const harness::ExperimentHarness serial({.jobs = 1, .seed = 42});
    const harness::ExperimentHarness parallel({.jobs = 4, .seed = 42});
    const auto a = harness::scenario_json(subset, serial.run(subset));
    const auto b = harness::scenario_json(subset, parallel.run(subset));
    if (a != b) {
        std::printf("FAIL: fleet run is not byte-identical across --jobs counts\n");
        return false;
    }
    std::printf("jobs identity: --jobs 1 == --jobs 4 (%zu bytes of JSON)\n\n", a.size());
    return true;
}

} // namespace

int main() {
    const auto& sc = bench::scenario("serve_fleet_saturation");
    std::printf("Fleet routing under saturation -- %zu devices, %zu streams, router "
                "shoot-out\n",
                sc.fleet->devices.size(), sc.fleet->streams.size());
    std::printf("(%zu requests/stream; per-device LOTUS agents pre-trained for %zu "
                "frames each)\n\n",
                sc.fleet->streams.front().requests, sc.fleet->pretrain_iterations);

    if (!jobs_identity_check(sc)) return 1;

    const auto results = bench::run(sc);
    harness::print_fleet_table(sc.title, results);
    bench::maybe_dump_csv(sc.name, results);

    const auto rr = point_of(results, "Lotus+round_robin");
    const auto ta = point_of(results, "Lotus+thermal_aware");
    const auto lf = point_of(results, "Lotus+lotus_fleet");
    if (!rr.found || !ta.found || !lf.found) {
        std::printf("FAIL: expected router arms missing from the scenario\n");
        return 1;
    }

    std::printf("\nGate: thermal_aware or lotus_fleet must beat round_robin on miss "
                "rate at an\nequal-or-lower fleet peak temperature (all under "
                "per-device LOTUS governors).\n");
    std::printf("  round_robin:   miss %.1f%%, peak %.1f C\n", rr.miss_rate * 100.0,
                rr.peak_temp_c);
    std::printf("  thermal_aware: miss %.1f%%, peak %.1f C\n", ta.miss_rate * 100.0,
                ta.peak_temp_c);
    std::printf("  lotus_fleet:   miss %.1f%%, peak %.1f C\n", lf.miss_rate * 100.0,
                lf.peak_temp_c);

    const auto wins = [&](const FleetPoint& p) {
        return p.miss_rate < rr.miss_rate && p.peak_temp_c <= rr.peak_temp_c + 1e-9;
    };
    if (!wins(ta) && !wins(lf)) {
        std::printf("FAIL: neither thermally-informed router beat round_robin\n");
        return 1;
    }
    std::printf("PASS: %s wins on both axes\n", wins(lf) ? "lotus_fleet" : "thermal_aware");

    std::printf("\nShape targets (absolute numbers differ; the substrate is a "
                "simulator):\n"
                "  placement beats blind rotation once the pool is thermally\n"
                "  asymmetric: the hot corner trips under round-robin load it\n"
                "  cannot dissipate, while headroom-aware routing gives it only\n"
                "  the load it can. Per-device LOTUS keeps every die cooler than\n"
                "  the `performance` governor at a fraction of the misses a\n"
                "  throttle-oscillating pool would suffer.\n");
    return 0;
}
