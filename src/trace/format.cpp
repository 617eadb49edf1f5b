#include "trace/format.hpp"

#include <bit>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "util/build_info.hpp"

namespace lotus::trace {

namespace {

/// Corrupt-file guard: no stream name/dataset in a sane trace approaches
/// this, so a larger length means the table bytes are garbage.
constexpr std::uint32_t kMaxTableString = 1u << 16;

/// Smallest stream-table entry: two u32 lengths plus slo_s and requests.
constexpr std::uint64_t kMinStreamEntryBytes = 24;

void put_u32(std::string& buf, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& buf, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_f64(std::string& buf, double v) { put_u64(buf, std::bit_cast<std::uint64_t>(v)); }

std::uint32_t get_u32(const unsigned char* p) {
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
    return v;
}

std::uint64_t get_u64(const unsigned char* p) {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
    return v;
}

double get_f64(const unsigned char* p) { return std::bit_cast<double>(get_u64(p)); }

[[noreturn]] void fail(const std::string& path, const std::string& what) {
    throw std::runtime_error("trace '" + path + "': " + what);
}

void read_exact(std::ifstream& in, const std::string& path, char* buf, std::size_t n,
                const char* what) {
    in.read(buf, static_cast<std::streamsize>(n));
    if (in.gcount() != static_cast<std::streamsize>(n)) {
        fail(path, std::string("truncated ") + what);
    }
}

std::string encode_record(const TraceRecord& rec) {
    std::string buf;
    buf.reserve(kRecordBytes);
    put_u64(buf, rec.id);
    put_u32(buf, rec.stream);
    put_u32(buf, static_cast<std::uint32_t>(rec.proposals));
    put_f64(buf, rec.arrival_s);
    put_f64(buf, rec.slo_s);
    put_f64(buf, rec.resolution_scale);
    put_f64(buf, rec.complexity);
    put_f64(buf, rec.jitter);
    put_u64(buf, rec.frame_index);
    return buf;
}

TraceRecord decode_record(const unsigned char* p) {
    TraceRecord rec;
    rec.id = get_u64(p);
    rec.stream = get_u32(p + 8);
    rec.proposals = static_cast<std::int32_t>(get_u32(p + 12));
    rec.arrival_s = get_f64(p + 16);
    rec.slo_s = get_f64(p + 24);
    rec.resolution_scale = get_f64(p + 32);
    rec.complexity = get_f64(p + 40);
    rec.jitter = get_f64(p + 48);
    rec.frame_index = get_u64(p + 56);
    return rec;
}

} // namespace

Writer::Writer(const std::string& path, std::vector<StreamInfo> streams)
    : path_(path), stream_count_(static_cast<std::uint32_t>(streams.size())) {
    out_.open(path, std::ios::binary | std::ios::trunc);
    if (!out_) fail(path_, "cannot open for writing");

    std::string buf;
    buf.append(kMagic, sizeof(kMagic));
    put_u32(buf, kFormatVersion);
    put_u32(buf, util::kSchemaVersion);
    std::string build = util::build_id();
    build.resize(kBuildIdBytes, '\0');
    buf.append(build.data(), kBuildIdBytes);
    put_u64(buf, 0); // record_count, patched in close()
    put_u32(buf, stream_count_);
    put_u32(buf, 0); // reserved
    for (const auto& s : streams) {
        put_u32(buf, static_cast<std::uint32_t>(s.name.size()));
        buf.append(s.name);
        put_u32(buf, static_cast<std::uint32_t>(s.dataset.size()));
        buf.append(s.dataset);
        put_f64(buf, s.slo_s);
        put_u64(buf, s.requests);
    }
    out_.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    if (!out_) fail(path_, "write failed (header)");
}

Writer::~Writer() {
    if (!closed_) {
        try {
            close();
        } catch (...) {
            // Destructor must not throw; the on-disk record_count stays 0
            // and the Reader rejects the file as truncated.
        }
    }
}

void Writer::add(const TraceRecord& rec) {
    if (rec.stream >= stream_count_) {
        throw std::invalid_argument("trace '" + path_ + "': record stream " +
                                    std::to_string(rec.stream) +
                                    " out of range (table has " +
                                    std::to_string(stream_count_) + " streams)");
    }
    const auto buf = encode_record(rec);
    out_.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    if (!out_) fail(path_, "write failed (record)");
    ++written_;
}

void Writer::close() {
    if (closed_) return;
    out_.seekp(56);
    std::string buf;
    put_u64(buf, written_);
    out_.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    out_.flush();
    if (!out_) fail(path_, "write failed (record count patch)");
    out_.close();
    closed_ = true;
}

Reader::Reader(const std::string& path) : path_(path) {
    in_.open(path, std::ios::binary);
    if (!in_) fail(path_, "cannot open for reading");

    char header[kHeaderBytes];
    read_exact(in_, path_, header, kHeaderBytes, "header");
    const auto* h = reinterpret_cast<const unsigned char*>(header);
    if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
        fail(path_, "bad magic (not a .ltrc trace)");
    }
    info_.format_version = get_u32(h + 8);
    if (info_.format_version != kFormatVersion) {
        fail(path_, "unsupported format version " + std::to_string(info_.format_version) +
                        " (this build reads version " + std::to_string(kFormatVersion) + ")");
    }
    info_.schema_version = get_u32(h + 12);
    info_.build.assign(header + 16, kBuildIdBytes);
    info_.build.resize(info_.build.find('\0') != std::string::npos
                           ? info_.build.find('\0')
                           : info_.build.size());
    info_.record_count = get_u64(h + 56);
    const std::uint32_t stream_count = get_u32(h + 64);

    std::error_code ec;
    const std::uint64_t size = std::filesystem::file_size(path, ec);
    if (ec) fail(path_, "cannot stat file");
    if (stream_count > (size - kHeaderBytes) / kMinStreamEntryBytes) {
        fail(path_, "corrupt stream table (" + std::to_string(stream_count) +
                        " streams declared, " + std::to_string(size - kHeaderBytes) +
                        " bytes follow the header)");
    }
    info_.streams.reserve(stream_count);
    for (std::uint32_t s = 0; s < stream_count; ++s) {
        StreamInfo si;
        char lenbuf[4];
        read_exact(in_, path_, lenbuf, 4, "stream table");
        auto len = get_u32(reinterpret_cast<const unsigned char*>(lenbuf));
        if (len > kMaxTableString) fail(path_, "corrupt stream table (name length)");
        si.name.resize(len);
        if (len > 0) read_exact(in_, path_, si.name.data(), len, "stream table");
        read_exact(in_, path_, lenbuf, 4, "stream table");
        len = get_u32(reinterpret_cast<const unsigned char*>(lenbuf));
        if (len > kMaxTableString) fail(path_, "corrupt stream table (dataset length)");
        si.dataset.resize(len);
        if (len > 0) read_exact(in_, path_, si.dataset.data(), len, "stream table");
        char tail[16];
        read_exact(in_, path_, tail, 16, "stream table");
        si.slo_s = get_f64(reinterpret_cast<const unsigned char*>(tail));
        si.requests = get_u64(reinterpret_cast<const unsigned char*>(tail) + 8);
        info_.streams.push_back(std::move(si));
    }

    data_offset_ = static_cast<std::uint64_t>(in_.tellg());
    // Divide, never multiply: a corrupt record_count must not wrap in u64.
    const std::uint64_t data_bytes = size - data_offset_;
    if (data_bytes % kRecordBytes != 0 || data_bytes / kRecordBytes != info_.record_count) {
        fail(path_, "truncated or padded: header declares " +
                        std::to_string(info_.record_count) + " records of " +
                        std::to_string(kRecordBytes) + " bytes, file has " +
                        std::to_string(data_bytes) + " bytes after the stream table");
    }
}

bool Reader::next(TraceRecord& out) {
    if (pos_ >= info_.record_count) return false;
    char buf[kRecordBytes];
    read_exact(in_, path_, buf, kRecordBytes, "record");
    out = decode_record(reinterpret_cast<const unsigned char*>(buf));
    if (out.stream >= info_.streams.size()) {
        fail(path_, "record " + std::to_string(pos_) + " references unknown stream " +
                        std::to_string(out.stream));
    }
    ++pos_;
    return true;
}

void Reader::seek(std::uint64_t record_index) {
    if (record_index > info_.record_count) {
        throw std::invalid_argument("trace '" + path_ + "': seek past end (" +
                                    std::to_string(record_index) + " > " +
                                    std::to_string(info_.record_count) + ")");
    }
    in_.clear();
    in_.seekg(static_cast<std::streamoff>(data_offset_ + record_index * kRecordBytes));
    if (!in_) fail(path_, "seek failed");
    pos_ = record_index;
}

bool same_streams(const std::vector<StreamInfo>& a, const std::vector<StreamInfo>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].name != b[i].name || a[i].dataset != b[i].dataset ||
            std::bit_cast<std::uint64_t>(a[i].slo_s) !=
                std::bit_cast<std::uint64_t>(b[i].slo_s) ||
            a[i].requests != b[i].requests) {
            return false;
        }
    }
    return true;
}

void slice_records(Reader& in, const std::string& out_path, std::uint64_t begin,
                   std::uint64_t end) {
    if (begin >= end || end > in.info().record_count) {
        throw std::invalid_argument(
            "trace slice: empty or out-of-range id window [" + std::to_string(begin) +
            ", " + std::to_string(end) + ") of " +
            std::to_string(in.info().record_count) + " records");
    }
    Writer out(out_path, in.info().streams);
    in.seek(begin);
    TraceRecord rec;
    for (std::uint64_t i = begin; i < end; ++i) {
        if (!in.next(rec)) break;
        out.add(rec);
    }
    out.close();
}

void slice_time(Reader& in, const std::string& out_path, double t0, double t1) {
    if (!(t0 < t1)) {
        throw std::invalid_argument("trace slice: empty time window");
    }
    Writer out(out_path, in.info().streams);
    in.seek(0);
    TraceRecord rec;
    while (in.next(rec)) {
        // Records are arrival-sorted, so the window is one contiguous run.
        if (rec.arrival_s >= t1) break;
        if (rec.arrival_s >= t0) out.add(rec);
    }
    out.close();
}

void merge_traces(const std::vector<std::string>& inputs, const std::string& out_path) {
    if (inputs.empty()) {
        throw std::invalid_argument("trace merge: no input traces");
    }
    std::vector<Reader> readers;
    readers.reserve(inputs.size());
    for (const auto& path : inputs) readers.emplace_back(path);
    for (std::size_t i = 1; i < readers.size(); ++i) {
        if (!same_streams(readers[0].info().streams, readers[i].info().streams)) {
            throw std::runtime_error("trace merge: '" + inputs[i] +
                                     "' has a different stream table than '" +
                                     inputs[0] + "' (merge needs slices of one trace)");
        }
    }

    // K-way merge of already-sorted inputs; ids renumber in merge order so
    // merging the slices of a trace reconstructs it byte-for-byte.
    struct Head {
        TraceRecord rec;
        bool live = false;
    };
    std::vector<Head> heads(readers.size());
    const auto key = [](const Head& head) {
        return ArrivalKey{head.rec.arrival_s, head.rec.stream, head.rec.frame_index};
    };
    for (std::size_t i = 0; i < readers.size(); ++i) {
        heads[i].live = readers[i].next(heads[i].rec);
    }

    Writer out(out_path, readers[0].info().streams);
    std::uint64_t next_id = 0;
    for (;;) {
        std::size_t best = heads.size();
        for (std::size_t i = 0; i < heads.size(); ++i) {
            if (!heads[i].live) continue;
            if (best == heads.size() || arrives_before(key(heads[i]), key(heads[best]))) {
                best = i;
            }
        }
        if (best == heads.size()) break;
        TraceRecord rec = heads[best].rec;
        rec.id = next_id++;
        out.add(rec);
        heads[best].live = readers[best].next(heads[best].rec);
    }
    out.close();
}

} // namespace lotus::trace
