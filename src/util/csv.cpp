#include "util/csv.hpp"

#include <cmath>
#include <sstream>
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

std::string format_double(double v, int precision) {
    if (std::isnan(v)) return "nan";
    if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
    std::ostringstream ss;
    ss.setf(std::ios::fixed);
    ss.precision(precision);
    ss << v;
    std::string s = ss.str();
    if (s.find('.') != std::string::npos) {
        while (!s.empty() && s.back() == '0') s.pop_back();
        if (!s.empty() && s.back() == '.') s.pop_back();
    }
    if (s == "-0") s = "0";
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
