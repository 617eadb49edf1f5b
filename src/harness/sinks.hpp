#pragma once
// Renderers for harness episodes.
//
// Each function takes the ordered EpisodeResults of one scenario and
// renders them somewhere: the paper-style summary table, the paper-style
// ASCII figure (temperature + latency traces with the throttling bound /
// latency constraint reference lines), raw per-episode CSV files,
// machine-readable JSON (one document per scenario), the profiler report or
// the telemetry artifacts. Every renderer understands every episode kind --
// classic experiment traces, serving and fleet ledgers -- so front ends
// pick renderers without caring which registry half a scenario came from.

#include <string>
#include <vector>

#include "harness/harness.hpp"

namespace lotus::harness {

/// Paper-style quantitative table: l-bar / sigma_l / R_L / T_dev / P /
/// throttled%, with the paper's reference numbers when the arm has them.
void print_summary_table(const std::string& heading,
                         const std::vector<EpisodeResult>& results);

/// Serving-style quantitative table: per arm, an aggregate row plus one row
/// per stream -- served/shed counts, p50/p95/p99 end-to-end latency,
/// deadline-miss and shed rates, throughput, energy/request, peak temp.
void print_serving_table(const std::string& heading,
                         const std::vector<EpisodeResult>& results);

/// Fleet-style quantitative table: per arm, a fleet row, one row per device
/// and one per stream, plus the fleet-only columns (migrations,
/// load-balance skew).
void print_fleet_table(const std::string& heading,
                       const std::vector<EpisodeResult>& results);

/// Paper-style figure: device-temperature chart (with the throttling bound)
/// stacked above a latency chart (with the constraint / max SLO), one series
/// per episode. Serving episodes chart end-to-end latency per request.
void print_figure(const std::string& title, const std::vector<EpisodeResult>& results);

/// The filesystem-safe form of a scenario/arm name used by every artifact
/// writer (CSV traces, telemetry directories, recorded .ltrc traces):
/// alphanumerics, '-' and '_' pass through, everything else becomes '_'.
/// Mirrored by tools/check_trace_json.py.
[[nodiscard]] std::string artifact_name(std::string s);

/// Write one CSV per episode -- <dir>/<stem>_<arm>.csv (collision-proofed
/// when two arms sanitize to the same file name) -- plus a
/// <dir>/<stem>_summary.csv with one row per episode. All fields pass
/// through RFC 4180 quoting, so scenario/arm names containing commas or
/// quotes survive a round trip.
void write_csv_traces(const std::string& dir, const std::string& stem,
                      const std::vector<EpisodeResult>& results, bool announce = true);

/// One JSON document for the scenario: episode summaries (experiment or
/// serving metrics, paper reference rows when present), compact single-line
/// form suitable for JSONL processing.
[[nodiscard]] std::string scenario_json(const Scenario& scenario,
                                        const std::vector<EpisodeResult>& results);

/// Print the internal profiler's report (hierarchical region timings +
/// counters, see src/prof/) to stderr under a "[profile] <heading>" line
/// (the front ends name the run's scenarios), then reset the profiler so
/// successive reports do not blend. stderr keeps stdout byte-identical for
/// table/JSON consumers. Thread-safe: the report+reset pair is serialized,
/// so concurrent callers cannot interleave their reports on stderr.
void print_profile_report(const std::string& heading);

/// Writes each episode's captured sim-time telemetry (see src/telemetry/)
/// under <dir>/<scenario>/<arm>/: trace.json (Perfetto / chrome://tracing),
/// breaches.jsonl, manifest.json, rollup.json and health.json. Arm names
/// that sanitize to the same directory are suffixed in declaration order
/// (same rule as write_csv_traces). Episodes carrying no recorder --
/// HarnessConfig::telemetry off -- are skipped silently.
class TelemetrySink {
public:
    explicit TelemetrySink(std::string dir, bool announce = true)
        : dir_(std::move(dir)), announce_(announce) {}

    void consume(const Scenario& scenario, const std::vector<EpisodeResult>& results);

private:
    std::string dir_;
    bool announce_;
};

} // namespace lotus::harness
