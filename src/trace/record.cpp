#include "trace/record.hpp"

#include <filesystem>
#include <stdexcept>

#include "serving/engine.hpp"

namespace lotus::trace {

namespace {

void create_parent_dirs(const std::string& path) {
    const auto parent = std::filesystem::path(path).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent);
}

[[noreturn]] void replay_mismatch(const std::string& path, const std::string& what) {
    throw std::runtime_error("trace '" + path + "': recorded stream table does not " +
                             "match the configured streams (" + what +
                             "); a trace replays only against the stream set that "
                             "recorded it");
}

} // namespace

std::vector<StreamInfo> stream_table(const std::vector<serving::StreamSpec>& streams) {
    std::vector<StreamInfo> table;
    table.reserve(streams.size());
    for (const auto& s : streams) {
        table.push_back(StreamInfo{s.name, s.dataset, s.slo_s, s.requests});
    }
    return table;
}

TraceRecord to_record(const serving::Request& req) {
    TraceRecord rec;
    rec.id = req.id;
    rec.stream = static_cast<std::uint32_t>(req.stream);
    rec.proposals = req.frame.proposals;
    rec.arrival_s = req.arrival_s;
    rec.slo_s = req.slo_s;
    rec.resolution_scale = req.frame.resolution_scale;
    rec.complexity = req.frame.complexity;
    rec.jitter = req.frame.jitter;
    rec.frame_index = req.frame.index;
    return rec;
}

serving::Request to_request(const TraceRecord& rec) {
    serving::Request req;
    req.id = rec.id;
    req.stream = rec.stream;
    req.arrival_s = rec.arrival_s;
    req.slo_s = rec.slo_s;
    req.frame.index = rec.frame_index;
    req.frame.resolution_scale = rec.resolution_scale;
    req.frame.complexity = rec.complexity;
    req.frame.proposals = rec.proposals;
    req.frame.jitter = rec.jitter;
    return req;
}

void write_trace(const std::string& path, const std::vector<serving::StreamSpec>& streams,
                 const std::vector<serving::Request>& requests) {
    create_parent_dirs(path);
    Writer out(path, stream_table(streams));
    for (const auto& req : requests) out.add(to_record(req));
    out.close();
}

TraceArrivalSource::TraceArrivalSource(std::string path) : path_(std::move(path)) {
    Reader reader(path_);
    info_ = reader.info();
}

std::vector<serving::Request> TraceArrivalSource::requests(
    const std::vector<serving::StreamSpec>& streams) const {
    if (!same_streams(info_.streams, stream_table(streams))) {
        if (info_.streams.size() != streams.size()) {
            replay_mismatch(path_, "trace has " + std::to_string(info_.streams.size()) +
                                       " streams, config has " +
                                       std::to_string(streams.size()));
        }
        for (std::size_t i = 0; i < streams.size(); ++i) {
            const auto& rec = info_.streams[i];
            const auto& cfg = streams[i];
            if (rec.name != cfg.name || rec.dataset != cfg.dataset ||
                rec.slo_s != cfg.slo_s || rec.requests != cfg.requests) {
                replay_mismatch(path_, "stream " + std::to_string(i) + ": trace has '" +
                                           rec.name + "'/" + rec.dataset +
                                           ", config has '" + cfg.name + "'/" +
                                           cfg.dataset);
            }
        }
        replay_mismatch(path_, "SLO bit pattern differs");
    }
    Reader reader(path_);
    std::vector<serving::Request> out;
    out.reserve(info_.record_count);
    TraceRecord rec;
    while (reader.next(rec)) out.push_back(to_request(rec));
    return out;
}

std::vector<serving::StreamSpec> TraceArrivalSource::stream_specs() const {
    std::vector<serving::StreamSpec> specs;
    specs.reserve(info_.streams.size());
    for (const auto& s : info_.streams) {
        serving::StreamSpec spec;
        spec.name = s.name;
        spec.dataset = s.dataset;
        spec.slo_s = s.slo_s;
        spec.requests = s.requests;
        specs.push_back(std::move(spec));
    }
    return specs;
}

void synth_trace(const std::string& path, const std::vector<serving::StreamSpec>& streams,
                 std::uint64_t seed) {
    if (streams.empty()) {
        throw std::invalid_argument("synth_trace: no streams configured");
    }
    serving::RequestTimeline timeline(streams, seed);
    create_parent_dirs(path);
    Writer out(path, stream_table(streams));
    serving::Request req;
    while (timeline.next(req)) out.add(to_record(req));
    out.close();
}

} // namespace lotus::trace
