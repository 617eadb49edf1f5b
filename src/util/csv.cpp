#include "util/csv.hpp"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace lotus::util {

std::string csv_escape(const std::string& field) {
    const bool needs_quote =
        field.find_first_of(",\"\n\r") != std::string::npos;
    if (!needs_quote) return field;
    std::string out;
    out.reserve(field.size() + 2);
    out.push_back('"');
    for (const char c : field) {
        if (c == '"') out.push_back('"');
        out.push_back(c);
    }
    out.push_back('"');
    return out;
}

namespace {

constexpr int kMaxPrecision = 9;
constexpr std::uint32_t kPow10[kMaxPrecision + 1] = {
    1, 10, 100, 1'000, 10'000, 100'000, 1'000'000, 10'000'000, 100'000'000, 1'000'000'000};

/// append_fixed in integer arithmetic, for the values it is exact on: a
/// normal double is v = m / 2^k with a 53-bit m; |v| < 2^53 makes k >= 0,
/// and k <= 98 keeps f * 10^9 (f < 2^k, m's fraction bits) in 128 bits.
/// The integer part is m >> k, the fraction digits (f * 10^p) >> k, with
/// the remainder rounded half to even -- the correctly rounded digits
/// std::to_chars prints. Returns false, writing nothing, for any other
/// value (zero, subnormal, non-finite, |v| >= 2^53 or |v| < ~2^-46).
bool append_fixed_exact(std::string& out, double v, int precision) {
    constexpr int kMantissaBits = 52;
    constexpr int kMaxFractionBits = 98;
    const auto bits = std::bit_cast<std::uint64_t>(v);
    const auto biased = static_cast<int>((bits >> kMantissaBits) & 0x7ff);
    if (biased == 0 || biased == 0x7ff) return false;
    const int k = 1075 - biased; // 1023 (bias) + 52 (mantissa bits)
    if (k < 0 || k > kMaxFractionBits) return false;
    const std::uint64_t m =
        (bits & ((std::uint64_t{1} << kMantissaBits) - 1)) | (std::uint64_t{1} << kMantissaBits);
    std::uint64_t int_part = 0;
    std::uint64_t frac = m;
    if (k <= kMantissaBits) {
        int_part = m >> k;
        frac = m & ((std::uint64_t{1} << k) - 1);
    }
    const auto scaled = static_cast<unsigned __int128>(frac) * kPow10[precision];
    auto digits = static_cast<std::uint64_t>(scaled >> k);
    if (k > 0) {
        const unsigned __int128 one = 1;
        const unsigned __int128 rem = scaled & ((one << k) - 1);
        const unsigned __int128 half = one << (k - 1);
        // The last printed digit: the fraction's, or the integer's at p = 0.
        const bool odd = ((precision > 0 ? digits : int_part) & 1) != 0;
        if (rem > half || (rem == half && odd)) ++digits;
    }
    if (digits == kPow10[precision]) { // the fraction rounded up to 1
        digits = 0;
        ++int_part;
    }
    // A sign, the 16 digits of 2^53, the point and the fraction digits.
    char buf[1 + 16 + 1 + kMaxPrecision];
    char* p = buf;
    if (std::signbit(v)) *p++ = '-';
    p = std::to_chars(p, buf + sizeof buf, int_part).ptr;
    if (precision > 0) {
        *p++ = '.';
        for (int i = precision - 1; i >= 0; --i) {
            p[i] = static_cast<char>('0' + digits % 10);
            digits /= 10;
        }
        p += precision;
    }
    out.append(buf, p);
    return true;
}

} // namespace

void append_fixed(std::string& out, double v, int precision) {
    if (precision < 0 || precision > kMaxPrecision) {
        throw std::invalid_argument("append_fixed: precision outside 0..9");
    }
    if (append_fixed_exact(out, v, precision)) return;
    // The longest fixed rendering of a finite double: a sign, the 309
    // integer digits of DBL_MAX, the point and the fraction digits.
    char buf[1 + std::numeric_limits<double>::max_exponent10 + 1 + 1 + kMaxPrecision];
    const auto [end, ec] =
        std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, precision);
    if (ec != std::errc{}) throw std::logic_error("append_fixed: buffer too small");
    out.append(buf, end);
}

void append_double(std::string& out, double v, int precision) {
    if (std::isnan(v)) {
        out += "nan";
        return;
    }
    if (std::isinf(v)) {
        out += v > 0 ? "inf" : "-inf";
        return;
    }
    const std::size_t start = out.size();
    append_fixed(out, v, precision);
    if (precision > 0) {
        const std::size_t last = out.find_last_not_of('0');
        out.resize(out[last] == '.' ? last : last + 1);
    }
    if (out.compare(start, std::string::npos, "-0") == 0) out.erase(start, 1);
}

std::string format_double(double v, int precision) {
    std::string s;
    append_double(s, v, precision);
    return s;
}

void close_checked(std::ofstream& out, const std::string& path) {
    out.flush();
    if (out) out.close();
    if (!out) throw std::runtime_error("write failed: " + path);
}

CsvWriter::CsvWriter(const std::string& path, std::vector<std::string> header)
    : path_(path), out_(path), arity_(header.size()) {
    if (!out_) throw std::runtime_error("CsvWriter: cannot open " + path);
    if (arity_ == 0) throw std::invalid_argument("CsvWriter: empty header");
    write_fields(header);
}

void CsvWriter::row(const std::vector<std::string>& fields) {
    if (fields.size() != arity_) {
        throw std::invalid_argument("CsvWriter: row arity mismatch");
    }
    write_fields(fields);
    ++rows_;
}

void CsvWriter::row(const std::vector<double>& fields) {
    std::vector<std::string> text;
    text.reserve(fields.size());
    for (const double v : fields) text.push_back(format_double(v, 6));
    row(text);
}

void CsvWriter::close() { close_checked(out_, path_); }

void CsvWriter::write_fields(const std::vector<std::string>& fields) {
    for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i != 0) out_ << ',';
        out_ << csv_escape(fields[i]);
    }
    out_ << '\n';
}

} // namespace lotus::util
