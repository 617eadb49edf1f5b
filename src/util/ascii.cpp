#include "util/ascii.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace lotus::util {

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {
    if (header_.empty()) throw std::invalid_argument("TextTable: empty header");
}

void TextTable::add_row(std::vector<std::string> row) {
    if (row.size() != header_.size()) {
        throw std::invalid_argument("TextTable: row arity mismatch");
    }
    rows_.push_back(std::move(row));
}

std::string TextTable::render(const std::string& title) const {
    std::vector<std::size_t> widths(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
    for (const auto& row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            widths[c] = std::max(widths[c], row[c].size());
        }
    }

    const auto rule = [&] {
        std::string s = "+";
        for (const auto w : widths) {
            s += std::string(w + 2, '-');
            s += "+";
        }
        s += "\n";
        return s;
    }();

    const auto emit_row = [&](const std::vector<std::string>& row) {
        std::string s = "|";
        for (std::size_t c = 0; c < row.size(); ++c) {
            s += " " + row[c] + std::string(widths[c] - row[c].size(), ' ') + " |";
        }
        s += "\n";
        return s;
    };

    std::string out;
    if (!title.empty()) out += title + "\n";
    out += rule;
    out += emit_row(header_);
    out += rule;
    for (const auto& row : rows_) out += emit_row(row);
    out += rule;
    return out;
}

AsciiChart::AsciiChart(int width, int height) : width_(width), height_(height) {
    if (width_ < 16 || height_ < 4) {
        throw std::invalid_argument("AsciiChart: grid too small");
    }
}

void AsciiChart::add_series(Series s) {
    if (!s.values.empty()) series_.push_back(std::move(s));
}

void AsciiChart::add_reference_line(double y, std::string label) {
    refs_.emplace_back(y, std::move(label));
}

std::string AsciiChart::render(const std::string& title, const std::string& y_label) const {
    static constexpr char kGlyphs[] = {'*', 'o', '#', '%', '@', '+'};

    double lo = 1e300;
    double hi = -1e300;
    for (const auto& s : series_) {
        for (const double v : s.values) {
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
    }
    for (const auto& [y, name] : refs_) {
        lo = std::min(lo, y);
        hi = std::max(hi, y);
    }
    if (lo > hi) { lo = 0.0; hi = 1.0; }
    const double pad = (hi - lo) * 0.05 + 1e-9;
    lo -= pad;
    hi += pad;

    std::vector<std::string> grid(static_cast<std::size_t>(height_),
                                  std::string(static_cast<std::size_t>(width_), ' '));

    const auto row_of = [&](double y) -> int {
        const double t = (y - lo) / (hi - lo);
        const int r = static_cast<int>(std::lround((1.0 - t) * (height_ - 1)));
        return std::clamp(r, 0, height_ - 1);
    };

    for (const auto& [y, name] : refs_) {
        const int r = row_of(y);
        auto& line = grid[static_cast<std::size_t>(r)];
        for (int c = 0; c < width_; c += 2) line[static_cast<std::size_t>(c)] = '-';
    }

    for (std::size_t si = 0; si < series_.size(); ++si) {
        const auto& vals = series_[si].values;
        const char glyph = kGlyphs[si % sizeof(kGlyphs)];
        const std::size_t n = vals.size();
        for (int c = 0; c < width_; ++c) {
            const auto idx = static_cast<std::size_t>(
                static_cast<double>(c) / std::max(1, width_ - 1) *
                static_cast<double>(n - 1));
            const int r = row_of(vals[std::min(idx, n - 1)]);
            grid[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] = glyph;
        }
    }

    std::ostringstream out;
    if (!title.empty()) out << title << "\n";
    if (!y_label.empty()) out << "  [" << y_label << "]\n";
    for (int r = 0; r < height_; ++r) {
        const double y = hi - (hi - lo) * static_cast<double>(r) / (height_ - 1);
        std::ostringstream axis;
        axis.setf(std::ios::fixed);
        axis.precision(1);
        axis << y;
        std::string ax = axis.str();
        if (ax.size() < 9) ax = std::string(9 - ax.size(), ' ') + ax;
        out << ax << " |" << grid[static_cast<std::size_t>(r)] << "\n";
    }
    out << std::string(10, ' ') << '+' << std::string(static_cast<std::size_t>(width_), '-') << "\n";
    out << std::string(10, ' ') << " legend:";
    for (std::size_t si = 0; si < series_.size(); ++si) {
        out << "  " << kGlyphs[si % sizeof(kGlyphs)] << "=" << series_[si].name;
    }
    for (const auto& [y, name] : refs_) out << "  -=" << name;
    out << "\n";
    return out.str();
}

std::vector<double> downsample(const std::vector<double>& data, std::size_t buckets) {
    if (buckets == 0) throw std::invalid_argument("downsample: zero buckets");
    if (data.empty()) return {};
    if (data.size() <= buckets) return data;
    std::vector<double> out;
    out.reserve(buckets);
    const double step = static_cast<double>(data.size()) / static_cast<double>(buckets);
    for (std::size_t b = 0; b < buckets; ++b) {
        const auto begin = static_cast<std::size_t>(std::floor(static_cast<double>(b) * step));
        auto end = static_cast<std::size_t>(std::floor(static_cast<double>(b + 1) * step));
        end = std::min(std::max(end, begin + 1), data.size());
        double sum = 0.0;
        for (std::size_t i = begin; i < end; ++i) sum += data[i];
        out.push_back(sum / static_cast<double>(end - begin));
    }
    return out;
}

} // namespace lotus::util
