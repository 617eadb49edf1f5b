#pragma once
// Sim-time telemetry: a deterministic event/metrics recorder on the
// *simulated* clock.
//
// src/prof observes the simulator (wall-clock of the host process); this
// layer observes the simulated system -- thermal trajectories, OPP changes,
// throttle trips, governor decisions, request lifecycles, routing -- on the
// simulated timeline, so a shed request or an SLO miss can be traced back
// to the exact sequence of events that caused it.
//
// Model: a Recorder holds a flat event log over named *tracks*. A track is
// a (process, thread) pair following the Chrome trace-event convention:
// every simulated device is a process (threads: "platform", "engine",
// "governor", "rl", "queue"), request streams live under a shared "streams"
// process (one thread per stream), and the fleet dispatcher under "fleet".
// Events are durations (begin/end, strictly nested per track), async spans
// (begin/end matched by id -- request lifecycles overlap freely), instants,
// and counters. An SLO-breach flight recorder keeps the log positions of
// the last-N events of every process in a ring; breach() snapshots that
// ring into a compact report with the causal context of the miss.
//
// Determinism: one Recorder is bound per episode via BindScope, and an
// episode runs entirely on one worker thread, so the Recorder needs no
// locks and its byte output is a pure function of the episode -- `--jobs 1`
// and `--jobs N` write identical files. Instrumentation sites read the
// thread-local current() pointer and skip everything when it is null, so
// recording disabled costs one TLS load per site and perturbs nothing (the
// same stdout-byte-identity contract the profiler honors).
//
// Storage: the log is a flat vector of fixed-size Events holding no string.
// An event's name is an id into the recorder's name table, which keeps
// each distinct name JSON-escaped once, when it is first interned; its
// args are an (offset, length) slice of one args arena, a single string
// every event's fragment is appended to. Instrumentation sites build
// those fragments with Args (below), in a reused per-thread buffer, so
// recording an event allocates nothing once the log, the arena and the
// name table have grown to size.
//
// Exporters (write(dir)): trace.json (Chrome trace-event JSON, loadable in
// Perfetto / chrome://tracing -- the one copy of the event log),
// breaches.jsonl (flight recorder), manifest.json, plus the rollup's
// rollup.json and health.json (rollup.hpp). All timestamps are simulated
// seconds; the event log is exported in (time, append order) order so the
// trace is monotonic even when an event is recorded late (e.g. an arrival
// noticed after the clock passed it). Each exporter appends every field
// straight into its output through the append_* helpers below, with
// numbers written by util::append_fixed: locale-free and digit-for-digit
// the "C" locale's printf, with no stream and no temporary string per
// field. trace.json, by far the largest file, is rendered in chunks of
// about kTraceChunkBytes and streamed to the file one chunk at a time, so
// the whole document is never held in memory; chrome_trace_json()
// concatenates the same chunks.

#include <array>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "telemetry/rollup.hpp"

namespace lotus::telemetry {

/// Cadence of the periodic device samples (temperatures, frequencies,
/// power) [simulated seconds].
inline constexpr double kSamplePeriodS = 0.25;
/// Rollup window length [simulated seconds].
inline constexpr double kRollupWindowS = 1.0;

/// Flight-recorder depth: events per process kept for breach snapshots.
inline constexpr std::size_t kRingCapacity = 32;

/// trace.json is rendered and written in pieces of about this many bytes.
inline constexpr std::size_t kTraceChunkBytes = std::size_t{256} << 10;

/// A piece of the recorder's args arena: an event's pre-rendered JSON
/// object fragment ("k":v,... without braces); empty when the event
/// carries no arguments.
struct ArgsSlice {
    std::uint64_t offset = 0;
    std::uint32_t size = 0;
};

/// One recorded event. `phase` follows the Chrome trace-event letters:
/// 'B'/'E' duration, 'b'/'e' async (matched by id), 'i' instant,
/// 'C' counter.
struct Event {
    double t_s = 0.0;
    double value = 0.0;    // counter value
    std::uint64_t id = 0;  // async span id (request id)
    ArgsSlice args;
    std::uint32_t name = 0; // index into the recorder's name table
    int track = -1;
    char phase = 'i';
};

class Recorder {
public:
    Recorder() = default;
    // Not copyable: the context cache points into its own process map.
    Recorder(const Recorder&) = delete;
    Recorder& operator=(const Recorder&) = delete;

    // --- tracks -------------------------------------------------------------
    /// Id of the (process, thread) track, creating it on first use.
    /// Processes and threads are numbered in first-seen order, so ids are a
    /// pure function of the episode's event sequence.
    int track(std::string_view process, std::string_view thread);

    /// Set the ambient process ("which device is executing"): nested
    /// emitters (the RL agent, the governor) attribute their events without
    /// plumbing a device handle through every layer.
    void set_context(std::string_view process);
    /// Track under the current context process.
    int context_track(std::string_view thread);

    // --- recording ----------------------------------------------------------
    // Names and args are copied in; the views need not outlive the call.
    void begin(int track, std::string_view name, double t_s, std::string_view args = {});
    /// Close the innermost open begin() on `track` (throws std::logic_error
    /// when nothing is open -- unbalanced instrumentation is a bug).
    void end(int track, double t_s);
    void instant(int track, std::string_view name, double t_s, std::string_view args = {});
    void counter(int track, std::string_view name, double t_s, double value);
    void async_begin(int track, std::string_view name, std::uint64_t id, double t_s,
                     std::string_view args = {});
    void async_end(int track, std::string_view name, std::uint64_t id, double t_s,
                   std::string_view args = {});

    /// Flight recorder: report an SLO breach (miss/shed) on `track`'s
    /// process, snapshotting the last kRingCapacity events of that process
    /// as causal context.
    void breach(int track, std::string_view reason, std::uint64_t request_id, double t_s,
                std::string_view args = {});

    [[nodiscard]] std::size_t event_count() const noexcept { return log_.size(); }
    [[nodiscard]] std::size_t breach_count() const noexcept { return breaches_.size(); }

    /// The streaming rollup accumulator (kRollupWindowS windows), fed
    /// directly by the instrumentation sites.
    [[nodiscard]] Rollup& rollup() noexcept { return rollup_; }
    [[nodiscard]] const Rollup& rollup() const noexcept { return rollup_; }

    // --- exporters ----------------------------------------------------------
    /// Chrome trace-event JSON (object form with traceEvents + metadata);
    /// timestamps in microseconds, devices as processes, streams/governor
    /// as threads.
    [[nodiscard]] std::string chrome_trace_json() const;
    /// One breach report per line, each with its event-ring snapshot.
    [[nodiscard]] std::string breaches_jsonl() const;
    [[nodiscard]] std::string manifest_json() const;
    /// Windowed rollup time series.
    [[nodiscard]] std::string rollup_json() const;
    /// Fleet health scoreboard, joining the rollup aggregates with the
    /// flight recorder's per-process breach counts.
    [[nodiscard]] std::string health_json() const;

    /// Write all artifacts into `dir` (created if missing): trace.json,
    /// breaches.jsonl, manifest.json, rollup.json and health.json. Throws
    /// std::runtime_error naming the file when one cannot be written.
    void write(const std::string& dir) const;

private:
    struct TrackInfo {
        std::string process;
        std::string thread;
        int pid = 0;
        int tid = 0;
        /// `,"pid":P,"tid":T`, as every trace.json event of the track carries it.
        std::string ids;
        std::vector<std::uint32_t> open; // name ids of open begin() spans
    };
    /// One process: its pid and its threads' track ids.
    struct Process {
        int pid = 0;
        std::map<std::string, int, std::less<>> tracks;
    };
    using ProcessMap = std::map<std::string, Process, std::less<>>;
    struct Breach {
        double t_s = 0.0;
        int track = 0;
        std::uint32_t reason = 0; // name id
        std::uint64_t request_id = 0;
        ArgsSlice args;
        std::vector<std::size_t> context; // ring snapshot (log_ indices), oldest first
    };
    /// Transparent string hash, so interning looks names up by view.
    struct NameHash {
        using is_transparent = void;
        std::size_t operator()(std::string_view s) const noexcept {
            return std::hash<std::string_view>{}(s);
        }
    };
    /// One process's flight recorder: the log_ indices of its last
    /// kRingCapacity events, as a circular buffer.
    struct Ring {
        std::array<std::size_t, kRingCapacity> index{};
        std::size_t size = 0; // events held, at most kRingCapacity
        std::size_t next = 0; // slot the next event overwrites
    };

    ProcessMap::value_type& process(std::string_view name);
    int thread_track(ProcessMap::value_type& process, std::string_view thread);
    /// Id of `name` in names_, adding it (JSON-escaped) on first use.
    std::uint32_t intern(std::string_view name);
    ArgsSlice store_args(std::string_view args);
    [[nodiscard]] std::string_view args_of(ArgsSlice slice) const noexcept {
        return std::string_view(args_).substr(slice.offset, slice.size);
    }
    /// Log one event named `name` on `track` (checked).
    void emit(int track, char phase, double t_s, std::string_view name, std::string_view args,
              std::uint64_t id = 0, double value = 0.0);
    /// Store `args` as e's args and log e (its name already set).
    void append(Event e, std::string_view args);
    /// Render trace.json, handing it to `sink` in order, in chunks of about
    /// kTraceChunkBytes.
    void stream_chrome_trace(const std::function<void(std::string_view)>& sink) const;

    Rollup rollup_{kRollupWindowS};
    std::vector<Event> log_;
    std::string args_; // the args arena: every event's fragment, back to back
    std::vector<std::string> names_; // JSON-escaped names, quotes included
    std::unordered_map<std::string, std::uint32_t, NameHash, std::equal_to<>> name_ids_;
    std::vector<TrackInfo> tracks_;
    ProcessMap processes_;
    std::vector<Ring> rings_; // flight recorder of pid p at rings_[p - 1]
    std::vector<Breach> breaches_;
    std::string context_ = "sim";
    ProcessMap::value_type* context_process_ = nullptr; // context_'s entry, once looked up
};

/// Log indices of `log` in (t_s, index) order: time-sorted, append order
/// breaking ties, so the export is deterministic and monotonic. One pass
/// splits the log into its in-order run and the events recorded late;
/// only the late ones are sorted, then merged back into the run.
[[nodiscard]] std::vector<std::size_t> time_order(const std::vector<Event>& log);

// --- thread-local binding ----------------------------------------------------

/// The recorder bound to this thread, or nullptr when recording is off.
/// Instrumentation sites branch on this and pay nothing further when null.
[[nodiscard]] Recorder* current() noexcept;

/// Bind a recorder to the current thread for the scope's lifetime (the
/// harness wraps each episode in one). Binding nullptr records nothing.
class BindScope {
public:
    explicit BindScope(Recorder* recorder) noexcept;
    ~BindScope();
    BindScope(const BindScope&) = delete;
    BindScope& operator=(const BindScope&) = delete;

private:
    Recorder* previous_;
};

/// Temporarily hide the bound recorder. Pre-training phases advance the
/// device clock and then reset it to zero; recording them would break the
/// monotonic-timestamp guarantee of the exports.
class SuspendScope {
public:
    SuspendScope() noexcept;
    ~SuspendScope();
    SuspendScope(const SuspendScope&) = delete;
    SuspendScope& operator=(const SuspendScope&) = delete;

private:
    Recorder* previous_;
};

// --- JSON fragment helpers ---------------------------------------------------
// Instrumentation sites build `args` fragments by hand (the repo takes no
// JSON dependency); these keep escaping and number formatting uniform.

/// `v` as a JSON number; non-finite values degrade to null.
[[nodiscard]] std::string jnum(double v);
/// `s` as a JSON string with RFC 8259 escaping.
[[nodiscard]] std::string jstr(const std::string& s);

// The exporters' forms: append to `out` instead of returning a temporary.
// jnum/jstr are these applied to an empty string -- one formatting path.

/// jnum(v) appended to `out`.
void append_jnum(std::string& out, double v);
/// jstr(s) appended to `out`.
void append_jstr(std::string& out, std::string_view s);
/// `v` in decimal appended to `out` (std::to_string's digits).
template <class Int>
void append_int(std::string& out, Int v) {
    char buf[24]; // 20 digits of UINT64_MAX, or a sign and 19
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// An event's args fragment ("k":v,... without braces), built in place:
///
///     tel->instant(track, "dispatch", t,
///                  Args().integer("request_id", id).num("queue_wait_ms", w));
///
/// Values render as jnum / jstr / append_int would; keys are written
/// verbatim and must need no escaping. Each live builder owns a buffer
/// taken from a per-thread pool and returned on destruction, so two
/// builders never share one, and a warm pool makes building allocation-free.
/// Use it as a temporary in the recording call: the view it converts to
/// dies with it.
class Args {
public:
    Args();
    ~Args();
    Args(const Args&) = delete;
    Args& operator=(const Args&) = delete;

    Args& num(std::string_view key, double v);
    Args& str(std::string_view key, std::string_view v);
    template <class Int>
    Args& integer(std::string_view key, Int v) {
        append_int(field(key), v);
        return *this;
    }
    Args& boolean(std::string_view key, bool v);
    Args& null(std::string_view key);

    operator std::string_view() const noexcept { return *buf_; }

private:
    /// `buf_` after appending the separator and `"key":`.
    std::string& field(std::string_view key);

    std::unique_ptr<std::string> buf_;
};

} // namespace lotus::telemetry
