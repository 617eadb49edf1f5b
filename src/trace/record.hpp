#pragma once
// Trace capture and replay glue between .ltrc files and the serving layer.
//
// Both directions run through serving::RequestSource. Capture: the harness
// calls write_trace() with the load an episode's engine is about to serve,
// at the path HarnessConfig::trace_dir names; it drains a fresh source of
// that load to disk. Replay: ServingConfig/FleetConfig carry a
// `replay_trace` path, and the source reads that trace (after
// require_streams) instead of the analytic arrival processes, so scenario
// JSON, ledgers and telemetry are byte-identical to the generating run's
// and capturing a replay writes its input back byte for byte. Memory is
// O(streams) whatever the request count.

#include <cstdint>
#include <string>
#include <vector>

#include "serving/request.hpp"
#include "trace/format.hpp"

namespace lotus::trace {

/// Stream-table entries for a set of serving streams.
[[nodiscard]] std::vector<StreamInfo> stream_table(
    const std::vector<serving::StreamSpec>& streams);

[[nodiscard]] TraceRecord to_record(const serving::Request& req);
[[nodiscard]] serving::Request to_request(const TraceRecord& rec);

/// Write the timeline `load` serves -- a fresh serving::RequestSource of
/// it, drained -- as a trace file (parent directories created).
void write_trace(const std::string& path, const serving::LoadConfig& load);

/// Check a trace's stream table against the configured streams (name,
/// dataset, SLO, request count); throws std::runtime_error naming `path`
/// and the first mismatch otherwise.
void require_streams(const std::string& path, const TraceInfo& info,
                     const std::vector<serving::StreamSpec>& streams);

/// StreamSpecs reconstructed from a trace's stream table (arrival process
/// left at its default -- meaningful only for replay).
[[nodiscard]] std::vector<serving::StreamSpec> stream_specs(const TraceInfo& info);

} // namespace lotus::trace
