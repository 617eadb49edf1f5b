// Record -> replay byte-identity at the harness level: replaying a
// recorded episode must reproduce the generating run's scenario JSON and
// telemetry artifacts byte-for-byte, for both a serving and a fleet
// scenario, at any --jobs count (the jobs-invariance family extended to
// replayed episodes); capturing a replay writes the recorded traces back
// byte for byte.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "harness/harness.hpp"
#include "harness/registry.hpp"
#include "harness/sinks.hpp"
#include "trace/format.hpp"

namespace lotus::harness {
namespace {

namespace fs = std::filesystem;

// The registry sizes its scenarios from LOTUS_BENCH_FAST at construction;
// set it before anything touches the shared instance so these tests run at
// smoke budgets.
const int kFastMode = []() { return ::setenv("LOTUS_BENCH_FAST", "1", 1); }();

class TempDir {
public:
    explicit TempDir(const std::string& tag)
        : path_(fs::temp_directory_path() /
                ("lotus_replay_test_" + tag + "_" + std::to_string(::getpid()))) {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    [[nodiscard]] std::string str() const { return path_.string(); }
    [[nodiscard]] std::string sub(const std::string& name) const {
        return (path_ / name).string();
    }

private:
    fs::path path_;
};

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Relative path -> content for every regular file under `root`.
std::map<std::string, std::string> dir_contents(const std::string& root) {
    std::map<std::string, std::string> out;
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
        if (!entry.is_regular_file()) continue;
        out[fs::relative(entry.path(), root).string()] = read_file(entry.path().string());
    }
    return out;
}

HarnessConfig base_config(std::size_t jobs) {
    HarnessConfig cfg;
    cfg.jobs = jobs;
    cfg.summary_only = true;
    cfg.telemetry = true;
    return cfg;
}

std::string run_and_render(const Scenario& scenario, const HarnessConfig& cfg,
                           const std::string& telemetry_dir) {
    const ExperimentHarness harness(cfg);
    auto results = harness.run(scenario);
    TelemetrySink sink(telemetry_dir, /*announce=*/false);
    sink.consume(scenario, results);
    return scenario_json(scenario, results);
}

void expect_replay_identity(const std::string& scenario_name) {
    ASSERT_EQ(kFastMode, 0);
    const auto& scenario = ScenarioRegistry::instance().at(scenario_name);
    const TempDir dir("replay_" + scenario.arms.front().name);

    auto record_cfg = base_config(2);
    record_cfg.trace_dir = dir.sub("traces");
    const auto generated =
        run_and_render(scenario, record_cfg, dir.sub("telemetry_gen"));

    // Every episode left a readable trace behind.
    for (std::size_t arm = 0; arm < scenario.arms.size(); ++arm) {
        const auto path = episode_trace_path(dir.sub("traces"), scenario.name, arm,
                                             scenario.arms[arm].name);
        const trace::Reader reader(path);
        EXPECT_GT(reader.info().record_count, 0u) << path;
    }

    auto replay_cfg = base_config(2);
    replay_cfg.replay_dir = dir.sub("traces");
    const auto replayed =
        run_and_render(scenario, replay_cfg, dir.sub("telemetry_rep"));

    // The whole rendered surface is byte-identical: scenario JSON and the
    // telemetry artifact tree (rollup.json, health.json, ...).
    EXPECT_EQ(generated, replayed);
    const auto gen_files = dir_contents(dir.sub("telemetry_gen"));
    const auto rep_files = dir_contents(dir.sub("telemetry_rep"));
    ASSERT_FALSE(gen_files.empty());
    EXPECT_EQ(gen_files, rep_files);

    // Jobs invariance extends to replay: serial and parallel replays of the
    // same traces render identically. Both also capture what they serve, and
    // re-recording a replay reproduces the recorded traces byte for byte at
    // any --jobs count: record(replay(t)) == t.
    auto serial_cfg = base_config(1);
    serial_cfg.replay_dir = dir.sub("traces");
    serial_cfg.trace_dir = dir.sub("traces_serial");
    const auto serial = run_and_render(scenario, serial_cfg, dir.sub("telemetry_serial"));
    auto wide_cfg = base_config(4);
    wide_cfg.replay_dir = dir.sub("traces");
    wide_cfg.trace_dir = dir.sub("traces_wide");
    const auto wide = run_and_render(scenario, wide_cfg, dir.sub("telemetry_wide"));
    EXPECT_EQ(serial, wide);
    EXPECT_EQ(serial, replayed);
    const auto traces = dir_contents(dir.sub("traces"));
    EXPECT_EQ(dir_contents(dir.sub("traces_serial")), traces);
    EXPECT_EQ(dir_contents(dir.sub("traces_wide")), traces);
}

TEST(TraceReplay, ServingScenarioIsByteIdentical) {
    expect_replay_identity("serve_saturation");
}

TEST(TraceReplay, FleetScenarioIsByteIdentical) {
    expect_replay_identity("serve_fleet_saturation");
}

TEST(TraceReplay, ReplayFromMissingDirectoryFails) {
    ASSERT_EQ(kFastMode, 0);
    const auto& scenario = ScenarioRegistry::instance().at("serve_saturation");
    const TempDir dir("missing");
    auto cfg = base_config(1);
    cfg.replay_dir = dir.sub("nonexistent");
    const ExperimentHarness harness(cfg);
    EXPECT_THROW((void)harness.run(scenario), std::runtime_error);
}

} // namespace
} // namespace lotus::harness
