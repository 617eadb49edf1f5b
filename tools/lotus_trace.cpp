// lotus_trace: inspect, transform and synthesise .ltrc request traces.
//
// A .ltrc trace freezes a serving/fleet request timeline on disk (see
// src/trace/format.hpp for the layout). Traces of registry scenarios are
// recorded by the scenario runner itself:
//
//   lotus_serve --scenario NAME --record-trace DIR
//
// writes every episode's timeline to DIR/<scenario>/<NN>_<arm>.ltrc, the
// layout lotus_serve --replay-trace DIR replays from. This tool prints and
// slices traces, merges shards back together and synthesises arbitrarily
// long timelines directly from arrival specs -- without ever running the
// simulator.
//
// Verbs:
//   info FILE
//       Print header, stream table and time span.
//   cat FILE [--limit N]
//       Print records as CSV (id,stream,arrival_s,slo_s,frame_index,
//       resolution_scale,complexity,proposals,jitter).
//   slice IN OUT --ids A:B | --time A:B
//       Copy the id range [A,B) (O(1) seek) or the arrival-time window
//       [A,B) into a sub-trace. Slices keep the full stream table and the
//       original record ids.
//   merge OUT IN1 IN2 [IN3 ...]
//       K-way-merge sorted inputs sharing one stream table; ids renumber
//       in merge order, so merging the slices of a trace reconstructs it
//       byte-for-byte.
//   synth OUT --requests N [--streams K] [--arrival KIND] [--rate HZ]
//             [--burst N] [--slo MS] [--dataset D] [--seed S]
//       Stream the exact timeline a serving run over K phase-staggered
//       streams of N requests each would generate (the streams of
//       lotus_serve's ad-hoc mode; --slo defaults to 500 ms), straight to
//       disk in O(K) memory -- million-request traces in seconds.
//
// --seed applies only where a timeline is generated (synth); the
// file-transforming verbs reject it instead of silently ignoring it.
// Unknown flags/verbs and malformed values exit 2; I/O and format errors
// exit 1 with a message naming the file and the defect.

#include <cstdio>
#include <string>
#include <vector>

#include "cli_common.hpp"
#include "trace/record.hpp"

using namespace lotus;

namespace {

const std::string kTool = "lotus_trace";

struct Args {
    std::string verb;
    std::vector<std::string> positional;
    cli::SeedFlag seed;
    std::string ids_range;
    std::string time_range;
    std::uint64_t limit = 0; // 0 = unlimited
    cli::StreamFlags load;
};

Args parse(int argc, char** argv) {
    Args a;
    if (argc < 2) cli::usage_error(kTool, "missing verb (info|cat|slice|merge|synth)");
    a.verb = argv[1];
    if (a.verb != "info" && a.verb != "cat" && a.verb != "slice" && a.verb != "merge" &&
        a.verb != "synth") {
        cli::usage_error(kTool, "unknown verb '" + a.verb + "' (info|cat|slice|merge|synth)");
    }
    cli::ArgWalk args(kTool, argc, argv, 2);
    while (args.next()) {
        if (a.seed.parse_flag(args) || a.load.parse_flag(args)) continue;
        const auto& flag = args.flag();
        if (flag == "--ids") {
            a.ids_range = args.value();
        } else if (flag == "--time") {
            a.time_range = args.value();
        } else if (flag == "--limit") {
            a.limit = cli::parse_u64(kTool, flag, args.value());
        } else if (!flag.empty() && flag[0] == '-') {
            args.error("unknown flag " + flag);
        } else {
            a.positional.push_back(flag);
        }
    }
    // Seed-conflict rule: verbs that only transform existing files have no
    // randomness for a seed to steer.
    if (a.seed.set && a.verb != "synth") {
        cli::usage_error(kTool, "--seed only applies to the generating verb "
                                "(synth); '" + a.verb +
                                "' is fully determined by its input trace");
    }
    return a;
}

/// Parse "A:B" into two numbers via the supplied element parser.
template <typename T, typename Parse>
std::pair<T, T> parse_range(const std::string& flag, const std::string& raw, Parse parse) {
    const auto colon = raw.find(':');
    if (colon == std::string::npos) {
        cli::usage_error(kTool, flag + " wants A:B, got '" + raw + "'");
    }
    return {parse(raw.substr(0, colon)), parse(raw.substr(colon + 1))};
}

int cmd_info(const Args& a) {
    if (a.positional.size() != 1) cli::usage_error(kTool, "info wants exactly one FILE");
    trace::Reader reader(a.positional[0]);
    const auto& info = reader.info();
    std::printf("trace:          %s\n", a.positional[0].c_str());
    std::printf("format_version: %u\n", info.format_version);
    std::printf("schema_version: %u\n", info.schema_version);
    std::printf("build:          %s\n", info.build.c_str());
    std::printf("records:        %llu\n",
                static_cast<unsigned long long>(info.record_count));
    std::printf("streams:        %zu\n", info.streams.size());
    for (std::size_t s = 0; s < info.streams.size(); ++s) {
        const auto& si = info.streams[s];
        std::printf("  [%zu] %s dataset=%s slo_s=%.6g requests=%llu\n", s,
                    si.name.c_str(), si.dataset.c_str(), si.slo_s,
                    static_cast<unsigned long long>(si.requests));
    }
    if (info.record_count > 0) {
        // First and last record: two O(1) seeks, independent of trace size.
        trace::TraceRecord first, last;
        reader.seek(0);
        reader.next(first);
        reader.seek(info.record_count - 1);
        reader.next(last);
        std::printf("span_s:         [%.6f, %.6f]\n", first.arrival_s, last.arrival_s);
    }
    return 0;
}

int cmd_cat(const Args& a) {
    if (a.positional.size() != 1) cli::usage_error(kTool, "cat wants exactly one FILE");
    trace::Reader reader(a.positional[0]);
    std::printf(
        "id,stream,arrival_s,slo_s,frame_index,resolution_scale,complexity,"
        "proposals,jitter\n");
    trace::TraceRecord rec;
    std::uint64_t printed = 0;
    while (reader.next(rec)) {
        std::printf("%llu,%u,%.17g,%.17g,%llu,%.17g,%.17g,%d,%.17g\n",
                    static_cast<unsigned long long>(rec.id), rec.stream, rec.arrival_s,
                    rec.slo_s, static_cast<unsigned long long>(rec.frame_index),
                    rec.resolution_scale, rec.complexity, rec.proposals, rec.jitter);
        if (a.limit > 0 && ++printed >= a.limit) break;
    }
    return 0;
}

int cmd_slice(const Args& a) {
    if (a.positional.size() != 2) cli::usage_error(kTool, "slice wants IN OUT");
    if (a.ids_range.empty() == a.time_range.empty()) {
        cli::usage_error(kTool, "slice wants exactly one of --ids A:B / --time A:B");
    }
    trace::Reader in(a.positional[0]);
    if (!a.ids_range.empty()) {
        const auto [b, e] = parse_range<std::uint64_t>("--ids", a.ids_range,
                                                       [](const std::string& v) {
                                                           return cli::parse_u64(
                                                               kTool, "--ids", v);
                                                       });
        trace::slice_records(in, a.positional[1], b, e);
    } else {
        const auto [t0, t1] = parse_range<double>("--time", a.time_range,
                                                  [](const std::string& v) {
                                                      return cli::parse_positive_double(
                                                          kTool, "--time", v);
                                                  });
        trace::slice_time(in, a.positional[1], t0, t1);
    }
    const trace::Reader out(a.positional[1]);
    std::printf("%s: %llu records\n", a.positional[1].c_str(),
                static_cast<unsigned long long>(out.info().record_count));
    return 0;
}

int cmd_merge(const Args& a) {
    if (a.positional.size() < 3) cli::usage_error(kTool, "merge wants OUT IN1 IN2 [IN3 ...]");
    const std::vector<std::string> inputs(a.positional.begin() + 1, a.positional.end());
    trace::merge_traces(inputs, a.positional[0]);
    const trace::Reader out(a.positional[0]);
    std::printf("%s: %llu records from %zu inputs\n", a.positional[0].c_str(),
                static_cast<unsigned long long>(out.info().record_count), inputs.size());
    return 0;
}

int cmd_synth(const Args& a) {
    if (a.positional.size() != 1) cli::usage_error(kTool, "synth wants exactly one OUT file");
    if (a.load.requests == 0) cli::usage_error(kTool, "synth wants --requests N");
    auto load = a.load;
    if (load.slo_s == 0.0) load.slo_s = 0.5;
    serving::LoadConfig timeline;
    timeline.streams = cli::identical_streams(load);
    timeline.seed = a.seed.value;
    trace::write_trace(a.positional[0], timeline);
    const trace::Reader out(a.positional[0]);
    std::printf("%s: %llu records (%zu streams x %zu requests)\n", a.positional[0].c_str(),
                static_cast<unsigned long long>(out.info().record_count), load.streams,
                load.requests);
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    const auto args = parse(argc, argv);
    try {
        if (args.verb == "info") return cmd_info(args);
        if (args.verb == "cat") return cmd_cat(args);
        if (args.verb == "slice") return cmd_slice(args);
        if (args.verb == "merge") return cmd_merge(args);
        return cmd_synth(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s\n", kTool.c_str(), e.what());
        return 1;
    }
}
