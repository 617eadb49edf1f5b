#pragma once
// Minimal CSV emission for bench/experiment traces.
//
// The CSV sink (`--csv DIR` of lotus_run / lotus_serve) dumps raw
// per-iteration and per-request traces with this writer so figures can be
// re-plotted externally; lotus_sweep writes its sweep.csv with it too.

#include <fstream>
#include <string>
#include <vector>

namespace lotus::util {

/// Streaming CSV writer. Quotes fields only when needed (comma, quote,
/// newline). The header is written on construction.
class CsvWriter {
public:
    CsvWriter(const std::string& path, std::vector<std::string> header);

    CsvWriter(const CsvWriter&) = delete;
    CsvWriter& operator=(const CsvWriter&) = delete;

    /// Append one row; must match the header arity.
    void row(const std::vector<std::string>& fields);

    /// Convenience overload for all-numeric rows.
    void row(const std::vector<double>& fields);

    [[nodiscard]] std::size_t rows_written() const noexcept { return rows_; }

    /// Flush and close the file after the last row; throws
    /// std::runtime_error naming it when any write failed.
    void close();

private:
    void write_fields(const std::vector<std::string>& fields);

    std::string path_;
    std::ofstream out_;
    std::size_t arity_;
    std::size_t rows_ = 0;
};

/// Flush and close `out`, throwing std::runtime_error naming `path` when
/// any write to it failed (a full disk must not pass for success).
void close_checked(std::ofstream& out, const std::string& path);

/// Escape a single CSV field per RFC 4180 (quote iff necessary).
[[nodiscard]] std::string csv_escape(const std::string& field);

/// Format a double with fixed precision (0..9 digits, std::invalid_argument
/// otherwise), trimming trailing zeros (and the point when nothing follows
/// it); a value that rounds to zero prints "0", never "-0", and non-finite
/// values print "nan", "inf" or "-inf". Numbers are rendered by
/// std::to_chars: the "C" locale's printf("%.*f") digits, whatever the
/// process locale.
[[nodiscard]] std::string format_double(double v, int precision = 4);

/// format_double(v, precision) appended to `out`.
void append_double(std::string& out, double v, int precision = 4);

/// printf("%.*f", precision, v) in the "C" locale appended to `out`,
/// untrimmed (fixed-width timestamps); precision 0..9 as above. Normal
/// values with |v| < 2^53 and at most 98 fraction bits -- every timestamp
/// and counter the telemetry exports -- take an exact integer path (the
/// fraction bits scaled by 10^precision in 128-bit arithmetic, ties to
/// even); every other value goes through std::to_chars. Both print the
/// same digits.
void append_fixed(std::string& out, double v, int precision);

} // namespace lotus::util
