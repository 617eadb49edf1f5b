#include "util/csv.hpp"

#include <charconv>
#include <cmath>
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

void append_fixed(std::string& out, double v, int precision) {
    constexpr int kMaxPrecision = 9;
    if (precision < 0 || precision > kMaxPrecision) {
        throw std::invalid_argument("append_fixed: precision outside 0..9");
    }
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
