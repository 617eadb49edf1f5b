#pragma once
// Trace capture and replay glue between .ltrc files and the serving layer.
//
// Capture is an ambient, thread-local concern: the harness binds a
// CaptureScope with the episode's trace path around the engine run, and
// serving::build_request_timeline calls maybe_record() on the timeline it
// just assembled. One hook covers both the serving and the fleet engine
// (the fleet delegates its timeline to the same function), and episodes on
// other worker threads are unaffected.
//
// Replay is explicit: ServingConfig/FleetConfig carry a `replay_trace`
// path, and the engines build their timeline from TraceArrivalSource
// instead of the analytic arrival processes. A replayed episode consumes
// the exact recorded timeline, so its scenario JSON, ledgers and telemetry
// are byte-identical to the generating run's.

#include <cstdint>
#include <string>
#include <vector>

#include "serving/request.hpp"
#include "trace/format.hpp"

namespace lotus::trace {

/// RAII thread-local capture target. An empty path binds nothing (so call
/// sites can pass through an unconditional scope). Scopes nest; the
/// innermost non-empty path wins.
class CaptureScope {
public:
    explicit CaptureScope(std::string path);
    ~CaptureScope();
    CaptureScope(const CaptureScope&) = delete;
    CaptureScope& operator=(const CaptureScope&) = delete;

private:
    const std::string* prev_ = nullptr;
    std::string path_;
    bool bound_ = false;
};

/// The capture path bound on this thread, or nullptr when capture is off.
[[nodiscard]] const std::string* capture_path() noexcept;

/// Stream-table entries for a set of serving streams.
[[nodiscard]] std::vector<StreamInfo> stream_table(
    const std::vector<serving::StreamSpec>& streams);

[[nodiscard]] TraceRecord to_record(const serving::Request& req);
[[nodiscard]] serving::Request to_request(const TraceRecord& rec);

/// Write a complete timeline as a trace file (parent directories created).
void write_trace(const std::string& path, const std::vector<serving::StreamSpec>& streams,
                 const std::vector<serving::Request>& requests);

/// Capture hook: when this thread has a CaptureScope bound, dump the
/// timeline to its path. No-op otherwise. Called by
/// serving::build_request_timeline and by replay, so recording a replayed
/// episode reproduces the input trace.
void maybe_record(const std::vector<serving::StreamSpec>& streams,
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

/// Replay entry point used by the engines: materialise `path` against the
/// configured streams, then re-run the capture hook so replay under a
/// CaptureScope round-trips the file.
[[nodiscard]] std::vector<serving::Request> load_requests(
    const std::string& path, const std::vector<serving::StreamSpec>& streams);

/// Synthesise the exact timeline `build_request_timeline(streams, seed)`
/// would produce, streamed straight to disk from serving::RequestTimeline:
/// a million-request trace costs O(streams) memory and never materialises
/// the request vector.
void synth_trace(const std::string& path, const std::vector<serving::StreamSpec>& streams,
                 std::uint64_t seed);

} // namespace lotus::trace
