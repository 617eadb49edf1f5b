#include "trace/record.hpp"

#include <filesystem>
#include <stdexcept>

#include "serving/engine.hpp"

namespace lotus::trace {

namespace {

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

void write_trace(const std::string& path, const serving::LoadConfig& load) {
    serving::RequestSource source(load);
    const auto parent = std::filesystem::path(path).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent);
    // Written aside, then renamed over `path`: the source may be reading it.
    const auto partial = path + ".partial";
    Writer out(partial, stream_table(load.streams));
    serving::Request req;
    while (source.next(req)) out.add(to_record(req));
    out.close();
    std::filesystem::rename(partial, path);
}

void require_streams(const std::string& path, const TraceInfo& info,
                     const std::vector<serving::StreamSpec>& streams) {
    if (same_streams(info.streams, stream_table(streams))) return;
    if (info.streams.size() != streams.size()) {
        replay_mismatch(path, "trace has " + std::to_string(info.streams.size()) +
                                  " streams, config has " + std::to_string(streams.size()));
    }
    for (std::size_t i = 0; i < streams.size(); ++i) {
        const auto& rec = info.streams[i];
        const auto& cfg = streams[i];
        if (rec.name != cfg.name || rec.dataset != cfg.dataset || rec.slo_s != cfg.slo_s ||
            rec.requests != cfg.requests) {
            replay_mismatch(path, "stream " + std::to_string(i) + ": trace has '" + rec.name +
                                      "'/" + rec.dataset + ", config has '" + cfg.name +
                                      "'/" + cfg.dataset);
        }
    }
    replay_mismatch(path, "SLO bit pattern differs");
}

std::vector<serving::StreamSpec> stream_specs(const TraceInfo& info) {
    std::vector<serving::StreamSpec> specs;
    specs.reserve(info.streams.size());
    for (const auto& s : info.streams) {
        specs.push_back(serving::StreamSpec{s.name, s.dataset, s.slo_s, s.requests, {}});
    }
    return specs;
}

} // namespace lotus::trace
