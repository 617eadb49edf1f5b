// Tests for the result renderers: the JSON document writer (escaping,
// structure, serving vs experiment shapes) and the CSV writer's
// quoting/collision behaviour for scenario and arm names containing commas
// and quotes.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "harness/harness.hpp"
#include "harness/sinks.hpp"
#include "platform/presets.hpp"

namespace lotus::harness {
namespace {

namespace fs = std::filesystem;

/// Minimal RFC 4180 reader: parses one CSV file into rows of fields,
/// honouring quoted fields with embedded commas, quotes and newlines.
std::vector<std::vector<std::string>> parse_csv(const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();

    std::vector<std::vector<std::string>> rows;
    std::vector<std::string> row;
    std::string field;
    bool quoted = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (quoted) {
            if (c == '"') {
                if (i + 1 < text.size() && text[i + 1] == '"') {
                    field.push_back('"');
                    ++i;
                } else {
                    quoted = false;
                }
            } else {
                field.push_back(c);
            }
        } else if (c == '"') {
            quoted = true;
        } else if (c == ',') {
            row.push_back(std::move(field));
            field.clear();
        } else if (c == '\n') {
            row.push_back(std::move(field));
            field.clear();
            rows.push_back(std::move(row));
            row.clear();
        } else {
            field.push_back(c);
        }
    }
    if (!field.empty() || !row.empty()) {
        row.push_back(std::move(field));
        rows.push_back(std::move(row));
    }
    return rows;
}

/// A tiny experiment scenario whose names abuse CSV metacharacters.
Scenario nasty_scenario() {
    const auto spec = platform::orin_nano_spec();
    Scenario s(runtime::static_experiment(spec, detector::DetectorKind::faster_rcnn,
                                          "KITTI", 4, 0));
    s.name = "weird, \"scenario\"";
    s.title = "Weird, “quoted” scenario";
    auto a = fixed_arm(5, 3);
    a.name = "arm,one \"x\"";
    auto b = fixed_arm(5, 3);
    b.name = "arm.one 'x'"; // sanitizes to the same file stem as arm a
    s.arms.push_back(std::move(a));
    s.arms.push_back(std::move(b));
    return s;
}

TEST(WriteCsvTraces, QuotesScenarioAndArmNamesInSummary) {
    const auto scenario = nasty_scenario();
    const auto results = ExperimentHarness({.jobs = 1, .seed = 3}).run(scenario);

    const auto dir = fs::temp_directory_path() / "lotus_sink_quoting_test";
    fs::remove_all(dir);
    write_csv_traces(dir.string(), scenario.name, results, /*announce=*/false);

    // The summary CSV must round-trip the metacharacter-laden names exactly.
    const auto rows = parse_csv((dir / "weird___scenario__summary.csv").string());
    ASSERT_EQ(rows.size(), 3u); // header + 2 episodes
    ASSERT_GE(rows[0].size(), 3u);
    EXPECT_EQ(rows[0][0], "scenario");
    EXPECT_EQ(rows[1][0], "weird, \"scenario\"");
    EXPECT_EQ(rows[1][1], "arm,one \"x\"");
    EXPECT_EQ(rows[2][1], "arm.one 'x'");
    // Every row parses back to the header's arity: no field bled into its
    // neighbour through an unquoted comma.
    for (const auto& row : rows) EXPECT_EQ(row.size(), rows[0].size());
    fs::remove_all(dir);
}

TEST(WriteCsvTraces, CollidingSanitizedArmNamesGetDistinctFiles) {
    const auto scenario = nasty_scenario();
    const auto results = ExperimentHarness({.jobs = 1, .seed = 3}).run(scenario);

    const auto dir = fs::temp_directory_path() / "lotus_sink_collision_test";
    fs::remove_all(dir);
    write_csv_traces(dir.string(), scenario.name, results, /*announce=*/false);

    std::size_t trace_files = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
        const auto name = entry.path().filename().string();
        if (name.find("_summary") == std::string::npos) ++trace_files;
    }
    // Both arms sanitize to the same stem; the writer must still emit two
    // distinct per-episode trace files.
    EXPECT_EQ(trace_files, 2u);
    fs::remove_all(dir);
}

TEST(ScenarioJson, ExperimentDocumentStructureAndEscaping) {
    const auto scenario = nasty_scenario();
    const auto results = ExperimentHarness({.jobs = 1, .seed = 3}).run(scenario);
    const auto doc = scenario_json(scenario, results);

    // Structure: the metacharacters arrive escaped, the metrics are present.
    EXPECT_NE(doc.find("\"scenario\":\"weird, \\\"scenario\\\"\""), std::string::npos)
        << doc;
    EXPECT_NE(doc.find("\"arm\":\"arm,one \\\"x\\\"\""), std::string::npos);
    EXPECT_NE(doc.find("\"mode\":\"experiment\""), std::string::npos);
    EXPECT_NE(doc.find("\"mean_latency_ms\":"), std::string::npos);
    EXPECT_NE(doc.find("\"satisfaction_rate\":"), std::string::npos);

    // Balance check: braces and brackets pair up outside string literals.
    int depth = 0;
    bool in_string = false;
    for (std::size_t i = 0; i < doc.size(); ++i) {
        const char c = doc[i];
        if (in_string) {
            if (c == '\\') {
                ++i;
            } else if (c == '"') {
                in_string = false;
            }
        } else if (c == '"') {
            in_string = true;
        } else if (c == '{' || c == '[') {
            ++depth;
        } else if (c == '}' || c == ']') {
            --depth;
            EXPECT_GE(depth, 0);
        }
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(in_string);
}

TEST(ScenarioJson, ServingDocumentCarriesPerStreamSummaries) {
    const auto spec = platform::orin_nano_spec();
    Scenario s(runtime::static_experiment(spec, detector::DetectorKind::faster_rcnn,
                                          "KITTI", 1, 0));
    s.name = "json_serving";
    s.title = "JSON serving test";
    serving::ServingConfig cfg(spec);
    for (int i = 0; i < 2; ++i) {
        serving::StreamSpec stream;
        stream.name = "cam" + std::to_string(i);
        stream.slo_s = 1.5;
        stream.requests = 3;
        stream.arrival.kind = serving::ArrivalKind::periodic;
        stream.arrival.rate_hz = 0.5;
        stream.arrival.phase_s = 0.5 * i;
        cfg.streams.push_back(std::move(stream));
    }
    cfg.scheduler = "edf_admit";
    s.serving = std::move(cfg);
    s.arms.push_back(fixed_arm(5, 3));

    const auto results = ExperimentHarness({.jobs = 1, .seed = 4}).run(s);
    ASSERT_TRUE(results[0].is_serving());
    const auto doc = scenario_json(s, results);
    EXPECT_NE(doc.find("\"mode\":\"serving\""), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"scheduler\":\"edf_admit\""), std::string::npos);
    EXPECT_NE(doc.find("\"aggregate\":"), std::string::npos);
    EXPECT_NE(doc.find("\"stream\":\"cam0\""), std::string::npos);
    EXPECT_NE(doc.find("\"stream\":\"cam1\""), std::string::npos);
    EXPECT_NE(doc.find("\"p99_ms\":"), std::string::npos);
    EXPECT_NE(doc.find("\"miss_rate\":"), std::string::npos);
    EXPECT_NE(doc.find("\"shed_rate\":"), std::string::npos);
}

} // namespace
} // namespace lotus::harness
