#pragma once
// Compact binary request-trace format (.ltrc).
//
// A trace is a serving/fleet request timeline frozen on disk: the merged,
// arrival-sorted output of serving::RequestTimeline, one fixed-width record
// per request. Replaying a trace through serving::RequestSource (see
// trace/record.hpp) reproduces the generating episode byte-for-byte, so
// timelines of millions of requests can be recorded once and diffed,
// sliced, sharded and replayed without re-deriving them.
//
// Layout (all integers little-endian, doubles as IEEE-754 bit patterns):
//
//   header (72 bytes, fixed):
//     offset  size  field
//          0     8  magic "LOTUSTRC"
//          8     4  u32 format_version   (kFormatVersion)
//         12     4  u32 schema_version   (util::kSchemaVersion of the writer)
//         16    40  build id, NUL-padded (provenance only, never compared)
//         56     8  u64 record_count     (patched on Writer close)
//         64     4  u32 stream_count
//         68     4  u32 reserved (0)
//   stream table (variable): per stream, in stream-id order:
//     u32 name_len, name bytes, u32 dataset_len, dataset bytes,
//     f64 slo_s, u64 requests
//   records (kRecordBytes each, arrival-sorted):
//     u64 id, u32 stream, i32 proposals, f64 arrival_s, f64 slo_s,
//     f64 resolution_scale, f64 complexity, f64 jitter, u64 frame_index
//
// Fixed-width records make id-range slicing an O(1) seek; Writer and Reader
// both stream, so memory stays O(streams) regardless of record count.

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace lotus::trace {

inline constexpr char kMagic[8] = {'L', 'O', 'T', 'U', 'S', 'T', 'R', 'C'};
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::size_t kBuildIdBytes = 40;
inline constexpr std::size_t kHeaderBytes = 72;
inline constexpr std::size_t kRecordBytes = 64;

/// One stream-table entry: enough to rebuild the serving::StreamSpec side
/// of the timeline (the arrival process itself is not needed for replay).
struct StreamInfo {
    std::string name;
    std::string dataset;
    double slo_s = 0.0;
    std::uint64_t requests = 0;
};

/// One on-disk request record; field-for-field the serving::Request payload.
struct TraceRecord {
    std::uint64_t id = 0;
    std::uint32_t stream = 0;
    std::int32_t proposals = 0;
    double arrival_s = 0.0;
    double slo_s = 0.0;
    double resolution_scale = 1.0;
    double complexity = 0.0;
    double jitter = 0.0;
    std::uint64_t frame_index = 0;
};

/// The position of one request in a timeline's arrival order.
struct ArrivalKey {
    double arrival_s = 0.0;
    std::uint64_t stream = 0;
    std::uint64_t frame_index = 0;
};

/// The one arrival order of every request timeline: earlier arrival first,
/// ties to the lower stream index, then to the earlier frame of that stream.
/// serving::RequestTimeline emits requests in this order and merge_traces
/// interleaves its sorted inputs by it.
[[nodiscard]] constexpr bool arrives_before(const ArrivalKey& a, const ArrivalKey& b) noexcept {
    if (a.arrival_s != b.arrival_s) return a.arrival_s < b.arrival_s;
    if (a.stream != b.stream) return a.stream < b.stream;
    return a.frame_index < b.frame_index;
}

/// Parsed header + stream table of a trace file.
struct TraceInfo {
    std::uint32_t format_version = kFormatVersion;
    std::uint32_t schema_version = 0;
    std::string build;
    std::uint64_t record_count = 0;
    std::vector<StreamInfo> streams;
};

/// Streaming writer. Records are appended one at a time; the header's
/// record count is back-patched on close(), so arbitrarily long traces
/// never buffer. close() (or the destructor) finalizes the file; a Writer
/// abandoned before any close() leaves a record_count of zero behind,
/// which the Reader then rejects as truncated.
class Writer {
public:
    Writer(const std::string& path, std::vector<StreamInfo> streams);
    ~Writer();
    Writer(const Writer&) = delete;
    Writer& operator=(const Writer&) = delete;

    /// Append one record. Throws std::runtime_error on I/O failure and
    /// std::invalid_argument when rec.stream is out of table range.
    void add(const TraceRecord& rec);

    /// Patch the record count and flush. Throws on I/O failure; idempotent.
    void close();

    [[nodiscard]] std::uint64_t records_written() const noexcept { return written_; }

private:
    std::ofstream out_;
    std::string path_;
    std::uint64_t written_ = 0;
    std::uint32_t stream_count_ = 0;
    bool closed_ = false;
};

/// Streaming reader. The constructor validates magic, format version and
/// the declared record count against the file size, throwing
/// std::runtime_error with a message naming the file and the defect for
/// anything short of a well-formed trace.
class Reader {
public:
    explicit Reader(const std::string& path);

    [[nodiscard]] const TraceInfo& info() const noexcept { return info_; }

    /// Read the next record into `out`; false at end-of-trace. Throws on
    /// I/O failure or a record referencing an unknown stream id.
    bool next(TraceRecord& out);

    /// O(1) reposition to the given record index (<= record_count).
    void seek(std::uint64_t record_index);

    /// Index of the record the next next() call returns.
    [[nodiscard]] std::uint64_t position() const noexcept { return pos_; }

private:
    std::ifstream in_;
    std::string path_;
    TraceInfo info_;
    std::uint64_t data_offset_ = 0;
    std::uint64_t pos_ = 0;
};

/// True when the two stream tables match field-for-field (slo_s compared
/// bit-exactly; build ids are irrelevant).
[[nodiscard]] bool same_streams(const std::vector<StreamInfo>& a,
                                const std::vector<StreamInfo>& b);

/// Copy records [begin, end) of `in` into a new trace at `out_path`,
/// keeping the full stream table and the original record ids (so slices
/// remember their position in the parent timeline). Record order is
/// preserved. Throws std::invalid_argument for an empty or out-of-range
/// id window.
void slice_records(Reader& in, const std::string& out_path, std::uint64_t begin,
                   std::uint64_t end);

/// Copy the records of `in` whose arrival_s lies in [t0, t1) into a new
/// trace at `out_path` (ids kept). Streams the whole trace once.
void slice_time(Reader& in, const std::string& out_path, double t0, double t1);

/// K-way-merge the (arrival-sorted) inputs into `out_path`, renumbering
/// ids 0..n-1 in merge order. All inputs must share one stream table;
/// ordering ties break on (stream, frame_index), which is a strict total
/// order for timelines produced by serving::RequestTimeline, so merging the
/// slices of a trace reconstructs it byte-for-byte.
void merge_traces(const std::vector<std::string>& inputs, const std::string& out_path);

} // namespace lotus::trace
