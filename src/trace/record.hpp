#pragma once
// Trace capture and replay glue between .ltrc files and the serving layer.
//
// Both directions are explicit. Capture: the harness calls write_trace()
// with the timeline an episode's engine is about to serve
// (engine.build_requests()), at the path HarnessConfig::trace_dir names.
// Replay: ServingConfig/FleetConfig carry a `replay_trace` path, and the
// engines build their timeline from TraceArrivalSource instead of the
// analytic arrival processes. A replayed episode consumes the exact
// recorded timeline, so its scenario JSON, ledgers and telemetry are
// byte-identical to the generating run's, and capturing a replay writes
// the input trace back byte for byte.

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

/// Write a complete timeline as a trace file (parent directories created).
void write_trace(const std::string& path, const std::vector<serving::StreamSpec>& streams,
                 const std::vector<serving::Request>& requests);

/// A recorded trace acting as a drop-in for the analytic arrival
/// processes: validates the trace against the configured streams and
/// materialises the exact recorded timeline.
class TraceArrivalSource {
public:
    explicit TraceArrivalSource(std::string path);

    [[nodiscard]] const TraceInfo& info() const noexcept { return info_; }

    /// Materialise the timeline, first checking that `streams` matches the
    /// recorded stream table (name, dataset, SLO, request count); throws
    /// std::runtime_error naming the first mismatch otherwise.
    [[nodiscard]] std::vector<serving::Request> requests(
        const std::vector<serving::StreamSpec>& streams) const;

    /// StreamSpecs reconstructed from the stream table (arrival process
    /// left at its default -- meaningful only for replay).
    [[nodiscard]] std::vector<serving::StreamSpec> stream_specs() const;

private:
    std::string path_;
    TraceInfo info_;
};

/// Synthesise the exact timeline `build_request_timeline(streams, seed)`
/// would produce, streamed straight to disk from serving::RequestTimeline:
/// a million-request trace costs O(streams) memory and never materialises
/// the request vector.
void synth_trace(const std::string& path, const std::vector<serving::StreamSpec>& streams,
                 std::uint64_t seed);

} // namespace lotus::trace
