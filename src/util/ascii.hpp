#pragma once
// Console rendering: aligned tables (for the paper's Tables 1-2) and braille-
// free ASCII line charts (for the paper's figure time series). The benches
// are argument-free binaries whose stdout should read like the paper's
// figures/tables, so this is part of the deliverable rather than debug aid.

#include <string>
#include <vector>

namespace lotus::util {

/// Simple column-aligned table with a header row and optional title.
class TextTable {
public:
    explicit TextTable(std::vector<std::string> header);

    void add_row(std::vector<std::string> row);

    /// Render with box-drawing-free ASCII (pipes and dashes).
    [[nodiscard]] std::string render(const std::string& title = "") const;

    [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/// One named series for an AsciiChart.
struct Series {
    std::string name;
    std::vector<double> values;
};

/// Fixed-grid ASCII line chart. Multiple series are overlaid with distinct
/// glyphs; a horizontal reference line (e.g. a latency constraint or
/// throttling bound) can be drawn with '-'.
class AsciiChart {
public:
    AsciiChart(int width, int height);

    void add_series(Series s);

    /// Optional dashed horizontal reference (the red dashed lines in the
    /// paper's figures).
    void add_reference_line(double y, std::string label);

    [[nodiscard]] std::string render(const std::string& title = "",
                                     const std::string& y_label = "") const;

private:
    int width_;
    int height_;
    std::vector<Series> series_;
    std::vector<std::pair<double, std::string>> refs_;
};

/// Downsample a long trace to `buckets` points by bucket-averaging; keeps the
/// figure-shaped charts readable for 3,000-iteration traces.
[[nodiscard]] std::vector<double> downsample(const std::vector<double>& data,
                                             std::size_t buckets);

} // namespace lotus::util
