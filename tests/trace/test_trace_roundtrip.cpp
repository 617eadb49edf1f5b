// Contract tests for the .ltrc trace format: Writer -> Reader is lossless
// at the bit level, malformed files fail with clear errors instead of
// crashing, slices reassemble byte-for-byte, write_trace streams the exact
// timeline build_request_timeline materialises, and serving::RequestSource
// replays what it wrote, slices included.

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "fleet/engine.hpp"
#include "governors/linux_governors.hpp"
#include "platform/presets.hpp"
#include "serving/engine.hpp"
#include "trace/format.hpp"
#include "trace/record.hpp"
#include "util/rng.hpp"

namespace lotus::trace {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test; removed on destruction.
class TempDir {
public:
    explicit TempDir(const std::string& tag)
        : path_(fs::temp_directory_path() /
                ("lotus_trace_test_" + tag + "_" + std::to_string(::getpid()))) {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    [[nodiscard]] std::string file(const std::string& name) const {
        return (path_ / name).string();
    }

private:
    fs::path path_;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

bool same_record(const TraceRecord& a, const TraceRecord& b) {
    return a.id == b.id && a.stream == b.stream && a.proposals == b.proposals &&
           bits(a.arrival_s) == bits(b.arrival_s) && bits(a.slo_s) == bits(b.slo_s) &&
           bits(a.resolution_scale) == bits(b.resolution_scale) &&
           bits(a.complexity) == bits(b.complexity) &&
           bits(a.jitter) == bits(b.jitter) && a.frame_index == b.frame_index;
}

std::vector<StreamInfo> two_streams() {
    return {{"alpha", "KITTI", 0.5, 64}, {"beta", "VisDrone2019", 0.25, 32}};
}

std::vector<serving::StreamSpec> serving_streams(std::size_t requests) {
    std::vector<serving::StreamSpec> streams;
    for (std::size_t i = 0; i < 3; ++i) {
        serving::StreamSpec s;
        s.name = "stream" + std::to_string(i);
        s.dataset = i == 1 ? "VisDrone2019" : "KITTI";
        s.slo_s = 0.5 + 0.1 * static_cast<double>(i);
        s.requests = requests;
        s.arrival.kind = i == 0 ? serving::ArrivalKind::poisson
                                : serving::ArrivalKind::bursty;
        s.arrival.rate_hz = 1.0 + static_cast<double>(i);
        streams.push_back(std::move(s));
    }
    return streams;
}

/// The load that generates `streams` under `seed`.
serving::LoadConfig load_of(const std::vector<serving::StreamSpec>& streams,
                            std::uint64_t seed) {
    serving::LoadConfig load;
    load.streams = streams;
    load.seed = seed;
    return load;
}

std::vector<char> read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(TraceFormat, WriterReaderRoundTripIsBitExact) {
    const TempDir dir("roundtrip");
    const auto path = dir.file("t.ltrc");

    // Randomised records, including awkward doubles (denormals, negatives
    // from jitter arithmetic, exact integers).
    util::Rng rng(7);
    std::vector<TraceRecord> records;
    double t = 0.0;
    for (std::uint64_t i = 0; i < 500; ++i) {
        TraceRecord r;
        r.id = i;
        r.stream = static_cast<std::uint32_t>(rng.uniform_int(0, 1));
        r.proposals = static_cast<std::int32_t>(rng.uniform_int(0, 4000));
        t += rng.uniform();
        r.arrival_s = t;
        r.slo_s = r.stream == 0 ? 0.5 : 0.25;
        r.resolution_scale = 1.0 / (1.0 + rng.uniform());
        r.complexity = rng.uniform() * 1e-300; // subnormal territory
        r.jitter = 0.75 + 0.5 * rng.uniform();
        r.frame_index = i / 2;
        records.push_back(r);
    }

    {
        Writer writer(path, two_streams());
        for (const auto& r : records) writer.add(r);
        EXPECT_EQ(writer.records_written(), records.size());
        writer.close();
        writer.close(); // idempotent
    }

    Reader reader(path);
    EXPECT_EQ(reader.info().format_version, kFormatVersion);
    EXPECT_EQ(reader.info().record_count, records.size());
    ASSERT_EQ(reader.info().streams.size(), 2u);
    EXPECT_TRUE(same_streams(reader.info().streams, two_streams()));

    TraceRecord rec;
    for (const auto& expected : records) {
        ASSERT_TRUE(reader.next(rec));
        EXPECT_TRUE(same_record(rec, expected)) << "record " << expected.id;
    }
    EXPECT_FALSE(reader.next(rec));

    // O(1) seek lands on the right record.
    reader.seek(250);
    ASSERT_TRUE(reader.next(rec));
    EXPECT_TRUE(same_record(rec, records[250]));
}

TEST(TraceFormat, RequestConversionRoundTrips) {
    const auto streams = serving_streams(16);
    const auto requests = serving::build_request_timeline(streams, 42);
    for (const auto& req : requests) {
        const auto rec = to_record(req);
        const auto back = to_request(rec);
        EXPECT_EQ(back.id, req.id);
        EXPECT_EQ(back.stream, req.stream);
        EXPECT_EQ(bits(back.arrival_s), bits(req.arrival_s));
        EXPECT_EQ(bits(back.slo_s), bits(req.slo_s));
        EXPECT_EQ(back.frame.index, req.frame.index);
        EXPECT_EQ(bits(back.frame.resolution_scale), bits(req.frame.resolution_scale));
        EXPECT_EQ(bits(back.frame.complexity), bits(req.frame.complexity));
        EXPECT_EQ(back.frame.proposals, req.frame.proposals);
        EXPECT_EQ(bits(back.frame.jitter), bits(req.frame.jitter));
    }
}

TEST(TraceFormat, WriteTraceReplayIsLossless) {
    const TempDir dir("timeline");
    const auto path = dir.file("t.ltrc");
    const auto streams = serving_streams(32);
    auto load = load_of(streams, 11);
    write_trace(path, load);

    const auto requests = serving::build_request_timeline(streams, 11);
    load.replay_trace = path;
    const auto loaded = serving::RequestSource(load).drain();
    ASSERT_EQ(loaded.size(), requests.size());
    for (std::size_t i = 0; i < loaded.size(); ++i) {
        EXPECT_TRUE(same_record(to_record(loaded[i]), to_record(requests[i])))
            << "request " << i;
    }
}

TEST(TraceFormat, WriteTraceStreamsTheMaterialisedTimelineByteForByte) {
    const TempDir dir("synth");
    // Over 8 KiB of records, so a reader cannot hold the whole file in its
    // buffer when the trace is re-recorded in place below.
    const auto streams = serving_streams(400);
    const auto materialised = dir.file("materialised.ltrc");
    const auto streamed = dir.file("streamed.ltrc");
    const auto rerecorded = dir.file("rerecorded.ltrc");
    {
        Writer out(materialised, stream_table(streams));
        for (const auto& req : serving::build_request_timeline(streams, 123)) {
            out.add(to_record(req));
        }
    }
    auto load = load_of(streams, 123);
    write_trace(streamed, load);
    EXPECT_EQ(read_file(materialised), read_file(streamed));

    // Recording a replay writes its input back: record(replay(t)) == t,
    // also over the very file it replays.
    load.replay_trace = streamed;
    write_trace(rerecorded, load);
    EXPECT_EQ(read_file(streamed), read_file(rerecorded));
    write_trace(streamed, load);
    EXPECT_EQ(read_file(materialised), read_file(streamed));
}

TEST(TraceFormat, ServingEngineServesTheDrainOfItsSource) {
    const TempDir dir("engines");
    const auto path = dir.file("t.ltrc");
    serving::ServingConfig serving_cfg(platform::orin_nano_spec());
    static_cast<serving::LoadConfig&>(serving_cfg) = load_of(serving_streams(12), 8);
    write_trace(path, serving_cfg);

    const auto same = [](const std::vector<serving::Request>& got,
                         const serving::LoadConfig& load, const char* label) {
        serving::RequestSource source(load);
        EXPECT_EQ(got.size(), source.size()) << label;
        serving::Request want;
        for (const auto& req : got) {
            ASSERT_TRUE(source.next(want)) << label;
            EXPECT_TRUE(same_record(to_record(req), to_record(want))) << label;
        }
        EXPECT_FALSE(source.next(want)) << label;
    };
    for (const bool replayed : {false, true}) {
        serving_cfg.replay_trace = replayed ? path : "";
        const char* label = replayed ? "replayed" : "generated";
        same(serving::ServingEngine(serving_cfg).build_requests(), serving_cfg, label);
    }
}

TEST(TraceFormat, ReplayedSliceOnAFleetKeepsItsIdsAndMigratesNothing) {
    // A slice keeps its parent's ids, so ids run past the slice's own
    // request count. A round-robin fleet without failures or throttle
    // migration re-routes nothing; no ledger row may read migrated.
    const TempDir dir("fleetslice");
    const auto full = dir.file("full.ltrc");
    const auto window = dir.file("window.ltrc");
    fleet::FleetConfig cfg;
    static_cast<serving::LoadConfig&>(cfg) = load_of(serving_streams(40), 4);
    cfg.devices = fleet::device_pool(platform::orin_nano_spec(), "d", 2);
    cfg.router = "round_robin";
    write_trace(full, cfg);
    Reader in(full);
    ASSERT_GE(in.info().record_count, 70u);
    slice_records(in, window, 60, 70);

    cfg.replay_trace = window;
    const auto trace = fleet::FleetEngine(cfg).run(
        [](const platform::DeviceSpec&, std::uint64_t) -> std::unique_ptr<governors::Governor> {
            return std::make_unique<governors::PerformanceGovernor>();
        },
        1);
    ASSERT_EQ(trace.records().size(), 10u);
    EXPECT_EQ(trace.migrations(), 0u);
    for (const auto& row : trace.records()) {
        EXPECT_FALSE(row.migrated) << "request " << row.request_id;
        EXPECT_GE(row.request_id, 60u);
        EXPECT_LT(row.request_id, 70u);
    }
}

TEST(TraceFormat, SliceAndMergeReconstructByteForByte) {
    const TempDir dir("slices");
    const auto full = dir.file("full.ltrc");
    const auto streams = serving_streams(30);
    write_trace(full, load_of(streams, 5));

    Reader in(full);
    const auto n = in.info().record_count;
    ASSERT_GT(n, 10u);
    const auto a = dir.file("a.ltrc");
    const auto b = dir.file("b.ltrc");
    const auto c = dir.file("c.ltrc");
    slice_records(in, a, 0, n / 3);
    slice_records(in, b, n / 3, 2 * n / 3);
    slice_records(in, c, 2 * n / 3, n);

    const auto merged = dir.file("merged.ltrc");
    merge_traces({a, b, c}, merged);
    EXPECT_EQ(read_file(full), read_file(merged));
}

TEST(TraceFormat, ParitySplitOfATieHeavyTraceMergesBackByteForByte) {
    // Periodic phase-0 streams at one rate tie across streams at every
    // arrival; zero-spread bursty volleys tie within a stream. Splitting by
    // id parity interleaves both kinds of tie across the two inputs, so the
    // merge reproduces the trace only if it breaks ties exactly as the
    // timeline that generated it (trace::arrives_before).
    std::vector<serving::StreamSpec> streams;
    for (std::size_t i = 0; i < 4; ++i) {
        serving::StreamSpec s;
        s.name = "tie" + std::to_string(i);
        s.requests = 48;
        s.arrival.kind = i < 2 ? serving::ArrivalKind::periodic : serving::ArrivalKind::bursty;
        s.arrival.rate_hz = 2.0;
        s.arrival.burst = 4;
        s.arrival.burst_spread_s = 0.0;
        streams.push_back(std::move(s));
    }
    const TempDir dir("parity");
    const auto full = dir.file("full.ltrc");
    write_trace(full, load_of(streams, 21));

    Reader in(full);
    const auto even = dir.file("even.ltrc");
    const auto odd = dir.file("odd.ltrc");
    std::size_t cross_stream_ties = 0;
    std::size_t within_stream_ties = 0;
    {
        Writer even_out(even, in.info().streams);
        Writer odd_out(odd, in.info().streams);
        TraceRecord prev;
        TraceRecord rec;
        for (bool first = true; in.next(rec); first = false) {
            if (!first && rec.arrival_s == prev.arrival_s) {
                ++(rec.stream == prev.stream ? within_stream_ties : cross_stream_ties);
            }
            (rec.id % 2 == 0 ? even_out : odd_out).add(rec);
            prev = rec;
        }
    }
    EXPECT_GT(cross_stream_ties, 10u);
    EXPECT_GT(within_stream_ties, 10u);

    const auto merged = dir.file("merged.ltrc");
    merge_traces({odd, even}, merged);
    EXPECT_EQ(read_file(full), read_file(merged));
}

TEST(TraceFormat, SliceTimeSelectsTheArrivalWindow) {
    const TempDir dir("slicetime");
    const auto full = dir.file("full.ltrc");
    write_trace(full, load_of(serving_streams(20), 9));

    Reader in(full);
    TraceRecord first;
    in.seek(0);
    ASSERT_TRUE(in.next(first));
    in.seek(in.info().record_count - 1);
    TraceRecord last;
    ASSERT_TRUE(in.next(last));

    const auto mid = (first.arrival_s + last.arrival_s) / 2.0;
    const auto out = dir.file("window.ltrc");
    slice_time(in, out, first.arrival_s, mid);

    Reader window(out);
    EXPECT_GT(window.info().record_count, 0u);
    EXPECT_LT(window.info().record_count, in.info().record_count);
    TraceRecord rec;
    while (window.next(rec)) {
        EXPECT_GE(rec.arrival_s, first.arrival_s);
        EXPECT_LT(rec.arrival_s, mid);
    }
}

TEST(TraceFormat, SliceRejectsEmptyOrOutOfRangeWindows) {
    const TempDir dir("slicebad");
    const auto full = dir.file("full.ltrc");
    write_trace(full, load_of(serving_streams(5), 3));
    Reader in(full);
    const auto n = in.info().record_count;
    EXPECT_THROW(slice_records(in, dir.file("x.ltrc"), 3, 3), std::invalid_argument);
    EXPECT_THROW(slice_records(in, dir.file("x.ltrc"), 0, n + 1), std::invalid_argument);
    EXPECT_THROW(slice_records(in, dir.file("x.ltrc"), 5, 2), std::invalid_argument);
}

TEST(TraceFormat, MergeRejectsMismatchedStreamTables) {
    const TempDir dir("mergebad");
    const auto a = dir.file("a.ltrc");
    const auto b = dir.file("b.ltrc");
    auto streams = serving_streams(5);
    write_trace(a, load_of(streams, 3));
    streams[0].slo_s += 0.125; // bit-level table difference
    write_trace(b, load_of(streams, 3));
    EXPECT_THROW(merge_traces({a, b}, dir.file("out.ltrc")), std::runtime_error);
}

TEST(TraceFormat, ReaderRejectsMissingFile) {
    const TempDir dir("missing");
    EXPECT_THROW(Reader reader(dir.file("nope.ltrc")), std::runtime_error);
}

TEST(TraceFormat, ReaderRejectsBadMagic) {
    const TempDir dir("badmagic");
    const auto path = dir.file("t.ltrc");
    write_trace(path, load_of(serving_streams(4), 1));
    {
        std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(0);
        f.write("NOTATRCE", 8);
    }
    try {
        Reader reader(path);
        FAIL() << "bad magic accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos) << e.what();
    }
}

TEST(TraceFormat, ReaderRejectsUnknownFormatVersion) {
    const TempDir dir("badversion");
    const auto path = dir.file("t.ltrc");
    write_trace(path, load_of(serving_streams(4), 1));
    {
        std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(8);
        const char bumped[4] = {99, 0, 0, 0};
        f.write(bumped, 4);
    }
    try {
        Reader reader(path);
        FAIL() << "unknown format version accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
    }
}

TEST(TraceFormat, ReaderRejectsTruncatedFile) {
    const TempDir dir("truncated");
    const auto path = dir.file("t.ltrc");
    write_trace(path, load_of(serving_streams(10), 1));
    fs::resize_file(path, fs::file_size(path) - kRecordBytes / 2);
    try {
        Reader reader(path);
        FAIL() << "truncated trace accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos) << e.what();
    }
}

TEST(TraceFormat, ReaderRejectsAbandonedWriter) {
    const TempDir dir("abandoned");
    const auto path = dir.file("t.ltrc");
    {
        // Write records but "crash" before close(): the header still says 0.
        Writer writer(path, two_streams());
        TraceRecord rec;
        rec.slo_s = 0.5;
        writer.add(rec);
        // Swallow the destructor's close by truncating the count back to 0
        // afterwards; simpler: close properly, then zero the count field.
    }
    {
        std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(56);
        const char zeros[8] = {0, 0, 0, 0, 0, 0, 0, 0};
        f.write(zeros, 8);
    }
    EXPECT_THROW(Reader reader(path), std::runtime_error);
}

TEST(TraceFormat, ReaderRejectsGarbageStreamTable) {
    const TempDir dir("badtable");
    const auto path = dir.file("t.ltrc");
    write_trace(path, load_of(serving_streams(4), 1));
    {
        // Stream table starts right after the fixed header; blow up the
        // first name length.
        std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(static_cast<std::streamoff>(kHeaderBytes));
        const unsigned char huge[4] = {0xff, 0xff, 0xff, 0x7f};
        f.write(reinterpret_cast<const char*>(huge), 4);
    }
    EXPECT_THROW(Reader reader(path), std::runtime_error);
}

/// Overwrite `n` little-endian bytes of `path` at `offset` with `value`.
void patch_le(const std::string& path, std::streamoff offset, std::uint64_t value, int n) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(offset);
    for (int i = 0; i < n; ++i) f.put(static_cast<char>((value >> (8 * i)) & 0xff));
}

/// Reading `path` must throw a std::runtime_error whose message names the
/// file and contains `what`.
void expect_reader_error(const std::string& path, const std::string& what) {
    try {
        Reader reader(path);
        FAIL() << "corrupt trace accepted: " << reader.info().record_count << " records";
    } catch (const std::runtime_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(path), std::string::npos) << msg;
        EXPECT_NE(msg.find(what), std::string::npos) << msg;
    }
}

TEST(TraceFormat, ReaderRejectsOverflowingRecordCount) {
    // count + 2^58 records of 64 bytes wraps back to the true byte count in
    // u64 arithmetic, so a size check that multiplies passes it.
    const TempDir dir("countwrap");
    const auto path = dir.file("t.ltrc");
    write_trace(path, load_of(serving_streams(4), 1));
    const std::uint64_t count = Reader(path).info().record_count;
    ASSERT_GT(count, 0u);
    patch_le(path, 56, count + (std::uint64_t{1} << 58), 8);
    expect_reader_error(path, "records");
}

TEST(TraceFormat, ReaderRejectsStreamCountBeyondFile) {
    // Every stream-table entry takes at least 24 bytes, so a count the file
    // cannot hold is rejected before anything is allocated for it.
    const TempDir dir("streamcount");
    const auto path = dir.file("t.ltrc");
    write_trace(path, load_of(serving_streams(4), 1));
    patch_le(path, 64, 0xFFFFFFF0u, 4);
    expect_reader_error(path, "corrupt stream table");
}

TEST(TraceFormat, WriterRejectsOutOfRangeStreamId) {
    const TempDir dir("badstream");
    Writer writer(dir.file("t.ltrc"), two_streams());
    TraceRecord rec;
    rec.stream = 2;
    EXPECT_THROW(writer.add(rec), std::invalid_argument);
}

TEST(TraceFormat, RequestSourceRejectsMismatchedStreamsWhenItOpens) {
    const TempDir dir("replaymismatch");
    const auto path = dir.file("t.ltrc");
    auto load = load_of(serving_streams(8), 2);
    write_trace(path, load);
    load.streams[1].requests += 1;
    load.replay_trace = path;
    try {
        const serving::RequestSource source(load);
        FAIL() << "mismatched stream table accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("stream table"), std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace lotus::trace
