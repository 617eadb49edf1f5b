// Golden digests: checked-in FNV-1a digests of rendered outputs, so a
// refactor cannot drift silently and an intended change shows up in the
// diff. Each scenario JSON is hashed with the build-id field blanked so the
// pins survive new commits.
//
//  * Serving queue: an overloaded 8-stream run under every scheduler and the
//    fleet burst-migration scenario (sheds plus migration drains and
//    re-pushes), in summary-only mode.
//  * Request lifecycle: every serving scenario, the heterogeneous fleet
//    (per-device pretrain constraints), the fleet failure drain and a paper
//    table cell (runner pretrain), in full-ledger mode, plus the per-request
//    CSV ledgers, the `_summary.csv`, the printed summary table and the
//    telemetry artifacts (health.json, trace.json, breaches.jsonl,
//    rollup.json, manifest.json) of one serving and one fleet scenario.
//    Those two run with telemetry on, and again summary-only with telemetry
//    off: neither the recorder nor the row capture may move their scenario
//    JSON.
//  * Arm overrides: one scenario per kind of per-arm variation (detector,
//    pinned proposal count, rescaled constraint), in full-ledger mode.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/harness.hpp"
#include "harness/registry.hpp"
#include "harness/sinks.hpp"
#include "platform/presets.hpp"
#include "util/digest.hpp"

namespace lotus {
namespace {

std::string without_build_id(std::string json) {
    const std::string field = "\"build\":\"";
    for (auto pos = json.find(field); pos != std::string::npos;
         pos = json.find(field, pos + field.size())) {
        const auto value = pos + field.size();
        json.erase(value, json.find('"', value) - value);
    }
    return json;
}

std::vector<harness::EpisodeResult> run_scenario(const harness::Scenario& sc,
                                                 bool summary_only, bool telemetry = false) {
    harness::HarnessConfig cfg;
    cfg.jobs = 2;
    cfg.summary_only = summary_only;
    cfg.telemetry = telemetry;
    const harness::ExperimentHarness h(cfg);
    return h.run(sc);
}

std::string json_digest(const harness::Scenario& sc,
                        const std::vector<harness::EpisodeResult>& results) {
    return util::fnv1a_hex(without_build_id(harness::scenario_json(sc, results)));
}

/// Summary-only: the same JSON, no per-request ledger.
std::string scenario_digest(const harness::Scenario& sc) {
    return json_digest(sc, run_scenario(sc, true));
}

std::string read_file(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/// Digest of every episode's write_csv ledger, concatenated in arm order.
std::string ledger_digest(const std::vector<harness::EpisodeResult>& results) {
    const auto path = std::filesystem::temp_directory_path() /
                      ("lotus_golden_ledger_" + std::to_string(::getpid()) + ".csv");
    std::string bytes;
    for (const auto& r : results) {
        if (r.is_fleet()) {
            r.fleet_trace->write_csv(path.string());
        } else {
            r.serving_trace->write_csv(path.string());
        }
        bytes += read_file(path);
    }
    std::filesystem::remove(path);
    return util::fnv1a_hex(bytes);
}

/// Digest of the `<stem>_summary.csv` that write_csv_traces emits.
std::string summary_csv_digest(const std::string& stem,
                               const std::vector<harness::EpisodeResult>& results) {
    const auto dir = std::filesystem::temp_directory_path() /
                     ("lotus_golden_summary_" + std::to_string(::getpid()));
    harness::write_csv_traces(dir.string(), stem, results, /*announce=*/false);
    const auto bytes = read_file(dir / (stem + "_summary.csv"));
    std::filesystem::remove_all(dir);
    return util::fnv1a_hex(bytes);
}

/// Digest of one telemetry artifact of every episode, concatenated in arm
/// order, with the build id blanked.
std::string telemetry_digest(const std::vector<harness::EpisodeResult>& results,
                             std::string (telemetry::Recorder::*artifact)() const) {
    std::string bytes;
    for (const auto& r : results) bytes += without_build_id(((*r.telemetry).*artifact)());
    return util::fnv1a_hex(bytes);
}

/// Digest of the serving or fleet summary table as printed to stdout.
std::string table_digest(const harness::Scenario& sc,
                         const std::vector<harness::EpisodeResult>& results) {
    ::testing::internal::CaptureStdout();
    if (sc.is_fleet()) {
        harness::print_fleet_table(sc.title, results);
    } else {
        harness::print_serving_table(sc.title, results);
    }
    return util::fnv1a_hex(::testing::internal::GetCapturedStdout());
}

const harness::ScenarioRegistry& fast_registry() {
    static const harness::ScenarioRegistry registry = [] {
        ::setenv("LOTUS_BENCH_FAST", "1", 1); // the pinned, fast-mode sizes
        return harness::ScenarioRegistry();
    }();
    return registry;
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
    EXPECT_EQ(scenario_digest(fast_registry().at("serve_fleet_burst_migration")),
              "8e2caab7eb7766c1");
}

TEST(LifecycleGoldenDigests, FullLedgerRunsMatchPinnedDigests) {
    struct Pin {
        const char* scenario;
        const char* json;
        const char* ledger; // "" = CSV ledger, summary CSV, table, telemetry not pinned
        const char* summary_csv = "";
        const char* table = "";
        const char* health = "";
        const char* trace = "";
        const char* breaches = "";
        const char* rollup = "";
        const char* manifest = "";
    };
    const Pin pinned[] = {
        {"serve_light", "a4e31a9203d8cad8", ""},
        {"serve_saturation", "c3495244850f506e", "293a137bf0addaee", "18833f4f62250656",
         "1183d7cb393f244b", "03eb3404041c81d3", "f276b6ab7ae7c11e", "23a83b558f9f28f7",
         "a5373232d45dec3a", "c08cd1f79514451b"},
        {"serve_burst_storm", "7fd4cb743dd8ef6c", ""},
        {"serve_mixed_slo", "7f203dd72fb574ea", ""},
        {"serve_diurnal", "79c2f7ea77315435", ""},
        {"serve_latency_attack", "3ea010a9369624b7", ""},
        {"serve_fleet_hetero", "80213b67f3eb2697", "852c5f70c98febf1", "7aaf01102b181ae9",
         "40dd8ac94985dc2b", "08f4ae8a9e922161", "b391c32d55129092", "4b13995c5c7c10e0",
         "336d9abde4eeae7f", "e7254c83df0ed25d"},
        {"serve_fleet_diurnal_holdout", "30a3035157548b10", ""},
        {"table1_frcnn_kitti", "1208fa59c5fa4e13", ""},
    };
    for (const auto& pin : pinned) {
        const auto& sc = fast_registry().at(pin.scenario);
        const bool pinned_telemetry = *pin.health != '\0';
        const auto results = run_scenario(sc, false, pinned_telemetry);
        EXPECT_EQ(json_digest(sc, results), pin.json) << pin.scenario;
        if (*pin.ledger != '\0') {
            EXPECT_EQ(ledger_digest(results), pin.ledger) << pin.scenario;
            EXPECT_EQ(summary_csv_digest(pin.scenario, results), pin.summary_csv)
                << pin.scenario;
            EXPECT_EQ(table_digest(sc, results), pin.table) << pin.scenario;
        }
        if (pinned_telemetry) {
            // The LOTUS arm neither reads the recorder nor needs the rows:
            // summary-only with telemetry off renders the same JSON.
            EXPECT_EQ(json_digest(sc, run_scenario(sc, true)), pin.json) << pin.scenario;
            using telemetry::Recorder;
            EXPECT_EQ(telemetry_digest(results, &Recorder::health_json), pin.health)
                << pin.scenario;
            EXPECT_EQ(telemetry_digest(results, &Recorder::chrome_trace_json), pin.trace)
                << pin.scenario;
            EXPECT_EQ(telemetry_digest(results, &Recorder::breaches_jsonl), pin.breaches)
                << pin.scenario;
            EXPECT_EQ(telemetry_digest(results, &Recorder::rollup_json), pin.rollup)
                << pin.scenario;
            EXPECT_EQ(telemetry_digest(results, &Recorder::manifest_json), pin.manifest)
                << pin.scenario;
        }
    }
}

TEST(ArmVariationGoldenDigests, DetectorProbeAndConstraintArmsMatchPinnedDigests) {
    // Fig. 1 varies the detector per arm, Fig. 2 pins the proposal count
    // and the constraint sweep rescales L: one pin per kind of variation.
    const std::pair<const char*, const char*> pinned[] = {
        {"fig1_kitti", "826ac1888fe1a8cd"},
        {"fig2_frcnn_sweep", "178234bee9fe1173"},
        {"stress_constraint_sweep", "ba5e69003624b049"},
    };
    for (const auto& [scenario, digest] : pinned) {
        const auto& sc = fast_registry().at(scenario);
        EXPECT_EQ(json_digest(sc, run_scenario(sc, false)), digest) << scenario;
    }
}

} // namespace
} // namespace lotus
