#include "telemetry/recorder.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "util/build_info.hpp"
#include "util/csv.hpp"

namespace lotus::telemetry {

namespace {

thread_local Recorder* t_current = nullptr;

/// Simulated seconds with nanosecond resolution; fixed width keeps the
/// output a pure function of the value (locale-free, no precision drift).
std::string fmt_time(double t_s) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.9f", t_s);
    return buf;
}

/// Chrome trace timestamps are microseconds.
std::string fmt_ts_us(double t_s) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.3f", t_s * 1e6);
    return buf;
}

} // namespace

std::string jnum(double v) {
    const auto s = util::format_double(v, 6);
    if (s == "nan" || s == "inf" || s == "-inf") return "null";
    return s;
}

std::string jstr(const std::string& s) {
    std::string out = "\"";
    out.reserve(s.size() + 2);
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
    out += "\"";
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

    auto [pit, inserted] = pids_.emplace(process, static_cast<int>(pids_.size()) + 1);
    (void)inserted;
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
    auto& ring = rings_[tracks_[static_cast<std::size_t>(e.track)].pid];
    ring.push_back(e);
    if (ring.size() > kRingCapacity) ring.pop_front();
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
    const auto rit = rings_.find(info.pid);
    if (rit != rings_.end()) {
        b.context.assign(rit->second.begin(), rit->second.end());
    }
    breaches_.push_back(std::move(b));
}

std::vector<std::size_t> Recorder::time_order() const {
    std::vector<std::size_t> order(log_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    // Stable: ties keep append order, so the export is deterministic AND
    // monotonic even for events recorded after the clock passed them
    // (arrivals noticed at the next dispatch instant).
    std::stable_sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
        return log_[a].t_s < log_[b].t_s;
    });
    return order;
}

// --- exporters ---------------------------------------------------------------

namespace {

/// One breach-context event as a JSON object.
std::string event_jsonl_object(const Event& e, const std::string& process,
                               const std::string& thread) {
    std::string o = "{\"t_s\":" + fmt_time(e.t_s);
    o += ",\"ph\":\"" + std::string(1, e.phase) + "\"";
    o += ",\"process\":" + jstr(process);
    o += ",\"thread\":" + jstr(thread);
    o += ",\"name\":" + jstr(e.name);
    if (e.phase == 'b' || e.phase == 'e') o += ",\"id\":" + std::to_string(e.id);
    if (e.phase == 'C') o += ",\"value\":" + jnum(e.value);
    if (!e.args.empty()) o += ",\"args\":{" + e.args + "}";
    o += "}";
    return o;
}

} // namespace

std::string Recorder::chrome_trace_json() const {
    std::string o = "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
    o += util::build_info_json_fields();
    o += "},\"traceEvents\":[";
    bool first = true;
    const auto append = [&](const std::string& item) {
        if (!first) o += ",";
        first = false;
        o += item;
    };

    // Metadata: name every process and thread so Perfetto renders devices
    // and streams by name instead of by pid/tid number. A process is named
    // at its first track (pids number from 1 in first-seen order).
    std::vector<bool> named(pids_.size() + 1, false);
    for (const auto& t : tracks_) {
        if (!named[static_cast<std::size_t>(t.pid)]) {
            named[static_cast<std::size_t>(t.pid)] = true;
            append("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" +
                   std::to_string(t.pid) + ",\"tid\":0,\"args\":{\"name\":" +
                   jstr(t.process) + "}}");
        }
        append("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" + std::to_string(t.pid) +
               ",\"tid\":" + std::to_string(t.tid) + ",\"args\":{\"name\":" +
               jstr(t.thread) + "}}");
    }

    for (const auto idx : time_order()) {
        const auto& e = log_[idx];
        const auto& t = tracks_[static_cast<std::size_t>(e.track)];
        std::string ev = "{\"name\":" + jstr(e.name);
        ev += ",\"ph\":\"" + std::string(1, e.phase) + "\"";
        ev += ",\"ts\":" + fmt_ts_us(e.t_s);
        ev += ",\"pid\":" + std::to_string(t.pid);
        ev += ",\"tid\":" + std::to_string(t.tid);
        switch (e.phase) {
            case 'B':
            case 'E': ev += ",\"cat\":\"sim\""; break;
            case 'i': ev += ",\"cat\":\"sim\",\"s\":\"t\""; break;
            case 'b':
            case 'e':
                ev += ",\"cat\":\"request\",\"id\":" + std::to_string(e.id);
                break;
            default: break;
        }
        if (e.phase == 'C') {
            ev += ",\"args\":{\"value\":" + jnum(e.value) + "}";
        } else if (!e.args.empty()) {
            ev += ",\"args\":{" + e.args + "}";
        }
        ev += "}";
        append(ev);
    }
    o += "]}";
    return o;
}

std::string Recorder::breaches_jsonl() const {
    std::string o;
    for (const auto& b : breaches_) {
        std::string line = "{\"t_s\":" + fmt_time(b.t_s);
        line += ",\"process\":" + jstr(b.process);
        line += ",\"reason\":" + jstr(b.reason);
        line += ",\"request\":" + std::to_string(b.request_id);
        if (!b.args.empty()) line += ",\"args\":{" + b.args + "}";
        line += ",\"events\":[";
        for (std::size_t i = 0; i < b.context.size(); ++i) {
            const auto& e = b.context[i];
            const auto& t = tracks_[static_cast<std::size_t>(e.track)];
            if (i != 0) line += ",";
            line += event_jsonl_object(e, t.process, t.thread);
        }
        line += "]}";
        o += line + "\n";
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
