#include "telemetry/recorder.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

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

// --- Recorder ----------------------------------------------------------------

int Recorder::track(const std::string& process, const std::string& thread) {
    const auto key = std::make_pair(process, thread);
    const auto it = track_ids_.find(key);
    if (it != track_ids_.end()) return it->second;

    const auto [pit, inserted] =
        pids_.emplace(process, static_cast<int>(pids_.size()) + 1);
    if (inserted) rings_.emplace_back();
    TrackInfo info;
    info.process = process;
    info.thread = thread;
    info.pid = pit->second;
    info.tid = static_cast<int>(tracks_.size()) + 1;
    const int id = static_cast<int>(tracks_.size());
    tracks_.push_back(std::move(info));
    track_ids_.emplace(key, id);
    return id;
}

void Recorder::emit(Event e) {
    if (e.track < 0 || static_cast<std::size_t>(e.track) >= tracks_.size()) {
        throw std::out_of_range("Recorder: event on unknown track");
    }
    const int pid = tracks_[static_cast<std::size_t>(e.track)].pid;
    auto& ring = rings_[static_cast<std::size_t>(pid - 1)];
    ring.index[ring.next] = log_.size();
    ring.next = (ring.next + 1) % kRingCapacity;
    ring.size = std::min(ring.size + 1, kRingCapacity);
    log_.push_back(std::move(e));
}

void Recorder::begin(int track, std::string name, double t_s, std::string args) {
    tracks_.at(static_cast<std::size_t>(track)).open.push_back(name);
    Event e;
    e.t_s = t_s;
    e.phase = 'B';
    e.track = track;
    e.name = std::move(name);
    e.args = std::move(args);
    emit(std::move(e));
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
    e.name = std::move(open.back());
    open.pop_back();
    emit(std::move(e));
}

void Recorder::instant(int track, std::string name, double t_s, std::string args) {
    Event e;
    e.t_s = t_s;
    e.phase = 'i';
    e.track = track;
    e.name = std::move(name);
    e.args = std::move(args);
    emit(std::move(e));
}

void Recorder::counter(int track, std::string name, double t_s, double value) {
    Event e;
    e.t_s = t_s;
    e.phase = 'C';
    e.track = track;
    e.name = std::move(name);
    e.value = value;
    emit(std::move(e));
}

void Recorder::async_begin(int track, std::string name, std::uint64_t id, double t_s,
                           std::string args) {
    Event e;
    e.t_s = t_s;
    e.phase = 'b';
    e.track = track;
    e.id = id;
    e.name = std::move(name);
    e.args = std::move(args);
    emit(std::move(e));
}

void Recorder::async_end(int track, std::string name, std::uint64_t id, double t_s,
                         std::string args) {
    Event e;
    e.t_s = t_s;
    e.phase = 'e';
    e.track = track;
    e.id = id;
    e.name = std::move(name);
    e.args = std::move(args);
    emit(std::move(e));
}

void Recorder::breach(int track, std::string reason, std::uint64_t request_id, double t_s,
                      std::string args) {
    const auto& info = tracks_.at(static_cast<std::size_t>(track));
    Breach b;
    b.t_s = t_s;
    b.pid = info.pid;
    b.process = info.process;
    b.reason = std::move(reason);
    b.request_id = request_id;
    b.args = std::move(args);
    const auto& ring = rings_[static_cast<std::size_t>(info.pid - 1)];
    const std::size_t oldest = ring.next + kRingCapacity - ring.size;
    for (std::size_t i = 0; i < ring.size; ++i) {
        b.context.push_back(ring.index[(oldest + i) % kRingCapacity]);
    }
    breaches_.push_back(std::move(b));
}

std::vector<std::size_t> Recorder::time_order() const {
    // Ties keep append order, so the export is deterministic AND monotonic
    // even for events recorded after the clock passed them (arrivals
    // noticed at the next dispatch instant). Sorting (time, index) pairs is
    // that stable order, with the keys held next to each other.
    std::vector<std::pair<double, std::size_t>> keyed(log_.size());
    for (std::size_t i = 0; i < log_.size(); ++i) keyed[i] = {log_[i].t_s, i};
    std::sort(keyed.begin(), keyed.end());
    std::vector<std::size_t> order(log_.size());
    for (std::size_t i = 0; i < keyed.size(); ++i) order[i] = keyed[i].second;
    return order;
}

// --- exporters ---------------------------------------------------------------

namespace {

/// One breach-context event as a JSON object.
void append_event_jsonl(std::string& o, const Event& e, const std::string& process,
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
    append_jstr(o, e.name);
    if (e.phase == 'b' || e.phase == 'e') {
        o += ",\"id\":";
        append_int(o, e.id);
    }
    if (e.phase == 'C') {
        o += ",\"value\":";
        append_jnum(o, e.value);
    }
    if (!e.args.empty()) {
        o += ",\"args\":{";
        o += e.args;
        o += '}';
    }
    o += '}';
}

} // namespace

std::string Recorder::chrome_trace_json() const {
    // One event's fixed fields (keys, timestamp, pid/tid, category) take
    // under 128 bytes; its name and args come on top.
    std::size_t bytes = 256 + 128 * tracks_.size();
    for (const auto& e : log_) bytes += 128 + e.name.size() + e.args.size();
    std::string o;
    o.reserve(bytes);
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
    std::vector<bool> named(pids_.size() + 1, false);
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
        o += "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":";
        append_int(o, t.pid);
        o += ",\"tid\":";
        append_int(o, t.tid);
        o += ",\"args\":{\"name\":";
        append_jstr(o, t.thread);
        o += "}}";
    }

    for (const auto idx : time_order()) {
        const auto& e = log_[idx];
        const auto& t = tracks_[static_cast<std::size_t>(e.track)];
        next_item();
        o += "{\"name\":";
        append_jstr(o, e.name);
        o += ",\"ph\":\"";
        o += e.phase;
        o += "\",\"ts\":";
        append_ts_us(o, e.t_s);
        o += ",\"pid\":";
        append_int(o, t.pid);
        o += ",\"tid\":";
        append_int(o, t.tid);
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
        } else if (!e.args.empty()) {
            o += ",\"args\":{";
            o += e.args;
            o += '}';
        }
        o += '}';
    }
    o += "]}";
    return o;
}

std::string Recorder::breaches_jsonl() const {
    std::string o;
    for (const auto& b : breaches_) {
        o += "{\"t_s\":";
        append_time(o, b.t_s);
        o += ",\"process\":";
        append_jstr(o, b.process);
        o += ",\"reason\":";
        append_jstr(o, b.reason);
        o += ",\"request\":";
        append_int(o, b.request_id);
        if (!b.args.empty()) {
            o += ",\"args\":{";
            o += b.args;
            o += '}';
        }
        o += ",\"events\":[";
        for (std::size_t i = 0; i < b.context.size(); ++i) {
            const auto& e = log_[b.context[i]];
            const auto& t = tracks_[static_cast<std::size_t>(e.track)];
            if (i != 0) o += ',';
            append_event_jsonl(o, e, t.process, t.thread);
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
    for (const auto& b : breaches_) ++breaches_by_process[b.process];
    return rollup_.health_json(breaches_by_process);
}

void Recorder::write(const std::string& dir) const {
    std::filesystem::create_directories(dir);
    const auto dump = [&](const std::string& name, const std::string& content) {
        const auto path = dir + "/" + name;
        std::ofstream out(path, std::ios::binary);
        if (!out) throw std::runtime_error("Recorder::write: cannot open " + path);
        out << content;
        util::close_checked(out, path);
    };
    dump("trace.json", chrome_trace_json());
    dump("breaches.jsonl", breaches_jsonl());
    dump("manifest.json", manifest_json());
    dump("rollup.json", rollup_json());
    dump("health.json", health_json());
}

} // namespace lotus::telemetry
