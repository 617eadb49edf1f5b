// Byte-identity pin for the serving queue. An overloaded 8-stream run under
// every scheduler, and the fleet burst-migration scenario (sheds plus
// migration drains and re-pushes), must render exactly the scenario JSON the
// linear-scan queue rendered. Each document is pinned by its FNV-1a digest,
// taken with the build-id field blanked so the pins survive new commits.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "harness/harness.hpp"
#include "harness/registry.hpp"
#include "harness/sinks.hpp"
#include "platform/presets.hpp"

namespace lotus {
namespace {

std::string fnv1a_hex(const std::string& bytes) {
    std::uint64_t h = 14695981039346656037ULL;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
    return buf;
}

std::string without_build_id(std::string json) {
    const std::string field = "\"build\":\"";
    for (auto pos = json.find(field); pos != std::string::npos;
         pos = json.find(field, pos + field.size())) {
        const auto value = pos + field.size();
        json.erase(value, json.find('"', value) - value);
    }
    return json;
}

std::string scenario_digest(const harness::Scenario& sc) {
    harness::HarnessConfig cfg;
    cfg.jobs = 2;
    cfg.summary_only = true; // same JSON, no per-request ledger
    const harness::ExperimentHarness h(cfg);
    return fnv1a_hex(without_build_id(harness::scenario_json(sc, h.run(sc))));
}

/// 8 Poisson KITTI streams at 0.3 Hz each with a 900 ms SLO under the
/// performance governor: ~30% past the device's capacity, so the queue
/// grows for the whole run.
harness::Scenario overload_scenario(const std::string& scheduler) {
    const auto spec = platform::orin_nano_spec();
    harness::Scenario s(runtime::static_experiment(
        spec, detector::DetectorKind::faster_rcnn, "KITTI", 1, 0));
    s.name = "queue_overload_" + scheduler;
    s.title = s.name;
    serving::ServingConfig cfg(spec);
    cfg.scheduler = scheduler;
    for (int i = 0; i < 8; ++i) {
        serving::StreamSpec stream;
        stream.name = "stream" + std::to_string(i);
        stream.slo_s = 0.9;
        stream.requests = 400;
        stream.arrival.kind = serving::ArrivalKind::poisson;
        stream.arrival.rate_hz = 0.3;
        stream.arrival.phase_s = i / 2.4;
        cfg.streams.push_back(std::move(stream));
    }
    s.serving = std::move(cfg);
    s.arms.push_back(harness::performance_arm());
    return s;
}

TEST(QueueByteIdentity, OverloadedServingRunsMatchPinnedDigests) {
    const std::pair<const char*, const char*> pinned[] = {
        {"fifo", "29d79d29a61544fc"},
        {"edf", "0af7b33c3326e029"},
        {"edf_admit", "12416bda41d98bed"},
    };
    for (const auto& [scheduler, digest] : pinned) {
        EXPECT_EQ(scenario_digest(overload_scenario(scheduler)), digest) << scheduler;
    }
}

TEST(QueueByteIdentity, FleetBurstMigrationMatchesPinnedDigest) {
    ::setenv("LOTUS_BENCH_FAST", "1", 1); // the pinned, fast-mode sizes
    const harness::ScenarioRegistry registry;
    EXPECT_EQ(scenario_digest(registry.at("serve_fleet_burst_migration")),
              "8e2caab7eb7766c1");
}

} // namespace
} // namespace lotus
