#include "telemetry/recorder.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "util/build_info.hpp"
#include "util/csv.hpp"

namespace lotus::telemetry {

namespace {

thread_local Recorder* t_current = nullptr;

/// Simulated seconds with nanosecond resolution; fixed width keeps the
/// output a pure function of the value (locale-free, no precision drift).
void append_time(std::string& out, double t_s) { util::append_fixed(out, t_s, 9); }

/// Chrome trace timestamps are microseconds.
void append_ts_us(std::string& out, double t_s) { util::append_fixed(out, t_s * 1e6, 3); }

} // namespace

void append_jnum(std::string& out, double v) {
    if (std::isfinite(v)) {
        util::append_double(out, v, 6);
    } else {
        out += "null";
    }
}

std::string jnum(double v) {
    std::string out;
    append_jnum(out, v);
    return out;
}

void append_jstr(std::string& out, std::string_view s) {
    out += '"';
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out.push_back(c);
                }
        }
    }
    out += '"';
}

std::string jstr(const std::string& s) {
    std::string out;
    out.reserve(s.size() + 2);
    append_jstr(out, s);
    return out;
}

// --- thread-local binding ----------------------------------------------------

Recorder* current() noexcept { return t_current; }

BindScope::BindScope(Recorder* recorder) noexcept : previous_(t_current) {
    t_current = recorder;
}
BindScope::~BindScope() { t_current = previous_; }

SuspendScope::SuspendScope() noexcept : previous_(t_current) { t_current = nullptr; }
SuspendScope::~SuspendScope() { t_current = previous_; }

// --- Args --------------------------------------------------------------------

namespace {

/// Buffers of the builders not alive on this thread; a builder takes one
/// (or makes one) and gives it back, so live builders never share.
thread_local std::vector<std::unique_ptr<std::string>> t_free_args;

} // namespace

Args::Args() {
    if (t_free_args.empty()) {
        buf_ = std::make_unique<std::string>();
    } else {
        buf_ = std::move(t_free_args.back());
        t_free_args.pop_back();
        buf_->clear();
    }
}

Args::~Args() { t_free_args.push_back(std::move(buf_)); }

std::string& Args::field(std::string_view key) {
    if (!buf_->empty()) *buf_ += ',';
    *buf_ += '"';
    *buf_ += key;
    *buf_ += "\":";
    return *buf_;
}

Args& Args::num(std::string_view key, double v) {
    append_jnum(field(key), v);
    return *this;
}

Args& Args::str(std::string_view key, std::string_view v) {
    append_jstr(field(key), v);
    return *this;
}

Args& Args::boolean(std::string_view key, bool v) {
    field(key) += v ? "true" : "false";
    return *this;
}

Args& Args::null(std::string_view key) {
    field(key) += "null";
    return *this;
}

// --- Recorder ----------------------------------------------------------------

Recorder::ProcessMap::value_type& Recorder::process(std::string_view name) {
    auto it = processes_.find(name);
    if (it == processes_.end()) {
        const int pid = static_cast<int>(processes_.size()) + 1;
        it = processes_.emplace(std::string(name), Process{pid, {}}).first;
        rings_.emplace_back();
    }
    return *it;
}

int Recorder::thread_track(ProcessMap::value_type& process, std::string_view thread) {
    auto& tracks = process.second.tracks;
    const auto it = tracks.find(thread);
    if (it != tracks.end()) return it->second;

    TrackInfo info;
    info.process = process.first;
    info.thread = thread;
    info.pid = process.second.pid;
    info.tid = static_cast<int>(tracks_.size()) + 1;
    info.ids = ",\"pid\":";
    append_int(info.ids, info.pid);
    info.ids += ",\"tid\":";
    append_int(info.ids, info.tid);
    const int id = static_cast<int>(tracks_.size());
    tracks_.push_back(std::move(info));
    tracks.emplace(std::string(thread), id);
    return id;
}

int Recorder::track(std::string_view process_name, std::string_view thread) {
    return thread_track(process(process_name), thread);
}

void Recorder::set_context(std::string_view process_name) {
    if (process_name == context_) return;
    context_.assign(process_name);
    context_process_ = nullptr;
}

int Recorder::context_track(std::string_view thread) {
    if (context_process_ == nullptr) context_process_ = &process(context_);
    return thread_track(*context_process_, thread);
}

std::uint32_t Recorder::intern(std::string_view name) {
    const auto it = name_ids_.find(name);
    if (it != name_ids_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(names_.size());
    std::string escaped;
    append_jstr(escaped, name);
    names_.push_back(std::move(escaped));
    name_ids_.emplace(std::string(name), id);
    return id;
}

ArgsSlice Recorder::store_args(std::string_view args) {
    const ArgsSlice slice{args_.size(), static_cast<std::uint32_t>(args.size())};
    args_ += args;
    return slice;
}

void Recorder::emit(int track, char phase, double t_s, std::string_view name,
                    std::string_view args, std::uint64_t id, double value) {
    if (track < 0 || static_cast<std::size_t>(track) >= tracks_.size()) {
        throw std::out_of_range("Recorder: event on unknown track");
    }
    Event e;
    e.t_s = t_s;
    e.value = value;
    e.id = id;
    e.name = intern(name);
    e.track = track;
    e.phase = phase;
    append(e, args);
}

void Recorder::append(Event e, std::string_view args) {
    e.args = store_args(args);
    const int pid = tracks_[static_cast<std::size_t>(e.track)].pid;
    auto& ring = rings_[static_cast<std::size_t>(pid - 1)];
    ring.index[ring.next] = log_.size();
    ring.next = (ring.next + 1) % kRingCapacity;
    ring.size = std::min(ring.size + 1, kRingCapacity);
    log_.push_back(e);
}

void Recorder::begin(int track, std::string_view name, double t_s, std::string_view args) {
    auto& open = tracks_.at(static_cast<std::size_t>(track)).open;
    emit(track, 'B', t_s, name, args);
    open.push_back(log_.back().name);
}

void Recorder::end(int track, double t_s) {
    auto& open = tracks_.at(static_cast<std::size_t>(track)).open;
    if (open.empty()) {
        throw std::logic_error("Recorder::end: no open span on track '" +
                               tracks_[static_cast<std::size_t>(track)].process + "/" +
                               tracks_[static_cast<std::size_t>(track)].thread + "'");
    }
    Event e;
    e.t_s = t_s;
    e.phase = 'E';
    e.track = track;
    e.name = open.back();
    open.pop_back();
    append(e, {});
}

void Recorder::instant(int track, std::string_view name, double t_s, std::string_view args) {
    emit(track, 'i', t_s, name, args);
}

void Recorder::counter(int track, std::string_view name, double t_s, double value) {
    emit(track, 'C', t_s, name, {}, 0, value);
}

void Recorder::async_begin(int track, std::string_view name, std::uint64_t id, double t_s,
                           std::string_view args) {
    emit(track, 'b', t_s, name, args, id);
}

void Recorder::async_end(int track, std::string_view name, std::uint64_t id, double t_s,
                         std::string_view args) {
    emit(track, 'e', t_s, name, args, id);
}

void Recorder::breach(int track, std::string_view reason, std::uint64_t request_id,
                      double t_s, std::string_view args) {
    const int pid = tracks_.at(static_cast<std::size_t>(track)).pid;
    Breach b;
    b.t_s = t_s;
    b.track = track;
    b.reason = intern(reason);
    b.request_id = request_id;
    b.args = store_args(args);
    const auto& ring = rings_[static_cast<std::size_t>(pid - 1)];
    const std::size_t oldest = ring.next + kRingCapacity - ring.size;
    b.context.reserve(ring.size);
    for (std::size_t i = 0; i < ring.size; ++i) {
        b.context.push_back(ring.index[(oldest + i) % kRingCapacity]);
    }
    breaches_.push_back(std::move(b));
}

std::vector<std::size_t> time_order(const std::vector<Event>& log) {
    // Ties keep append order, so the export is deterministic AND monotonic
    // even for events recorded after the clock passed them (arrivals
    // noticed at the next dispatch instant). The log is nearly sorted: the
    // events that keep time order form one run, already in (time, index)
    // order, and only the few recorded late need sorting.
    std::vector<std::size_t> run;
    std::vector<std::pair<double, std::size_t>> late;
    run.reserve(log.size());
    for (std::size_t i = 0; i < log.size(); ++i) {
        if (run.empty() || log[i].t_s >= log[run.back()].t_s) {
            run.push_back(i);
        } else {
            late.emplace_back(log[i].t_s, i);
        }
    }
    if (late.empty()) return run;
    std::sort(late.begin(), late.end());
    std::vector<std::size_t> order;
    order.reserve(log.size());
    auto r = run.begin();
    for (const auto& [t, i] : late) {
        // Run events before the late one: earlier in time, or tied and
        // appended first.
        while (r != run.end() && (log[*r].t_s < t || (log[*r].t_s == t && *r < i))) {
            order.push_back(*r++);
        }
        order.push_back(i);
    }
    order.insert(order.end(), r, run.end());
    return order;
}

// --- exporters ---------------------------------------------------------------

namespace {

/// One breach-context event as a JSON object.
void append_event_jsonl(std::string& o, const Event& e, std::string_view name,
                        std::string_view args, const std::string& process,
                        const std::string& thread) {
    o += "{\"t_s\":";
    append_time(o, e.t_s);
    o += ",\"ph\":\"";
    o += e.phase;
    o += "\",\"process\":";
    append_jstr(o, process);
    o += ",\"thread\":";
    append_jstr(o, thread);
    o += ",\"name\":";
    o += name;
    if (e.phase == 'b' || e.phase == 'e') {
        o += ",\"id\":";
        append_int(o, e.id);
    }
    if (e.phase == 'C') {
        o += ",\"value\":";
        append_jnum(o, e.value);
    }
    if (!args.empty()) {
        o += ",\"args\":{";
        o += args;
        o += '}';
    }
    o += '}';
}

} // namespace

void Recorder::stream_chrome_trace(
    const std::function<void(std::string_view)>& sink) const {
    std::string o;
    // A chunk ends with the event that crosses kTraceChunkBytes; the slack
    // covers that event unless its args are unusually long.
    o.reserve(kTraceChunkBytes + 4096);
    const auto flush_full = [&] {
        if (o.size() >= kTraceChunkBytes) {
            sink(o);
            o.clear();
        }
    };
    o += "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
    o += util::build_info_json_fields();
    o += "},\"traceEvents\":[";
    bool first = true;
    const auto next_item = [&] {
        if (!first) o += ',';
        first = false;
    };

    // Metadata: name every process and thread so Perfetto renders devices
    // and streams by name instead of by pid/tid number. A process is named
    // at its first track (pids number from 1 in first-seen order).
    std::vector<bool> named(processes_.size() + 1, false);
    for (const auto& t : tracks_) {
        if (!named[static_cast<std::size_t>(t.pid)]) {
            named[static_cast<std::size_t>(t.pid)] = true;
            next_item();
            o += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":";
            append_int(o, t.pid);
            o += ",\"tid\":0,\"args\":{\"name\":";
            append_jstr(o, t.process);
            o += "}}";
        }
        next_item();
        o += "{\"ph\":\"M\",\"name\":\"thread_name\"";
        o += t.ids;
        o += ",\"args\":{\"name\":";
        append_jstr(o, t.thread);
        o += "}}";
        flush_full();
    }

    for (const auto idx : time_order(log_)) {
        const auto& e = log_[idx];
        next_item();
        o += "{\"name\":";
        o += names_[e.name];
        o += ",\"ph\":\"";
        o += e.phase;
        o += "\",\"ts\":";
        append_ts_us(o, e.t_s);
        o += tracks_[static_cast<std::size_t>(e.track)].ids;
        switch (e.phase) {
            case 'B':
            case 'E': o += ",\"cat\":\"sim\""; break;
            case 'i': o += ",\"cat\":\"sim\",\"s\":\"t\""; break;
            case 'b':
            case 'e':
                o += ",\"cat\":\"request\",\"id\":";
                append_int(o, e.id);
                break;
            default: break;
        }
        if (e.phase == 'C') {
            o += ",\"args\":{\"value\":";
            append_jnum(o, e.value);
            o += '}';
        } else if (e.args.size != 0) {
            o += ",\"args\":{";
            o += args_of(e.args);
            o += '}';
        }
        o += '}';
        flush_full();
    }
    o += "]}";
    sink(o);
}

std::string Recorder::chrome_trace_json() const {
    std::string o;
    stream_chrome_trace([&](std::string_view chunk) { o += chunk; });
    return o;
}

std::string Recorder::breaches_jsonl() const {
    std::string o;
    for (const auto& b : breaches_) {
        o += "{\"t_s\":";
        append_time(o, b.t_s);
        o += ",\"process\":";
        append_jstr(o, tracks_[static_cast<std::size_t>(b.track)].process);
        o += ",\"reason\":";
        o += names_[b.reason];
        o += ",\"request\":";
        append_int(o, b.request_id);
        if (b.args.size != 0) {
            o += ",\"args\":{";
            o += args_of(b.args);
            o += '}';
        }
        o += ",\"events\":[";
        for (std::size_t i = 0; i < b.context.size(); ++i) {
            const auto& e = log_[b.context[i]];
            const auto& t = tracks_[static_cast<std::size_t>(e.track)];
            if (i != 0) o += ',';
            append_event_jsonl(o, e, names_[e.name], args_of(e.args), t.process, t.thread);
        }
        o += "]}\n";
    }
    return o;
}

std::string Recorder::manifest_json() const {
    std::string o = "{";
    o += util::build_info_json_fields();
    o += ",\"events\":" + std::to_string(log_.size());
    o += ",\"breaches\":" + std::to_string(breaches_.size());
    o += ",\"sample_period_s\":" + jnum(kSamplePeriodS);
    o += ",\"ring_capacity\":" + std::to_string(kRingCapacity);
    o += ",\"rollup_window_s\":" + jnum(kRollupWindowS);
    o += ",\"tracks\":[";
    for (std::size_t i = 0; i < tracks_.size(); ++i) {
        if (i != 0) o += ",";
        o += "{\"process\":" + jstr(tracks_[i].process) +
             ",\"thread\":" + jstr(tracks_[i].thread) +
             ",\"pid\":" + std::to_string(tracks_[i].pid) +
             ",\"tid\":" + std::to_string(tracks_[i].tid) + "}";
    }
    o += "]}";
    return o;
}

std::string Recorder::rollup_json() const { return rollup_.rollup_json(); }

std::string Recorder::health_json() const {
    std::map<std::string, std::uint64_t> breaches_by_process;
    for (const auto& b : breaches_) {
        ++breaches_by_process[tracks_[static_cast<std::size_t>(b.track)].process];
    }
    return rollup_.health_json(breaches_by_process);
}

void Recorder::write(const std::string& dir) const {
    std::filesystem::create_directories(dir);
    const auto stream = [&](const std::string& name,
                            const std::function<void(std::ofstream&)>& render) {
        const auto path = dir + "/" + name;
        std::ofstream out(path, std::ios::binary);
        if (!out) throw std::runtime_error("Recorder::write: cannot open " + path);
        render(out);
        util::close_checked(out, path);
    };
    const auto dump = [&](const std::string& name, const std::string& content) {
        stream(name, [&](std::ofstream& out) { out << content; });
    };
    stream("trace.json", [&](std::ofstream& out) {
        stream_chrome_trace([&](std::string_view chunk) {
            out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
        });
    });
    dump("breaches.jsonl", breaches_jsonl());
    dump("manifest.json", manifest_json());
    dump("rollup.json", rollup_json());
    dump("health.json", health_json());
}

} // namespace lotus::telemetry
