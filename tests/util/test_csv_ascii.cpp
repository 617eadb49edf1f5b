// Tests for CSV emission and console rendering helpers.

#include <gtest/gtest.h>
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/ascii.hpp"
#include "util/csv.hpp"

namespace lotus::util {
namespace {

std::string slurp(const std::string& path) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

class CsvWriterTest : public ::testing::Test {
protected:
    void TearDown() override {
        if (!path_.empty()) std::filesystem::remove(path_);
    }
    std::string temp_path(const std::string& name) {
        path_ = (std::filesystem::temp_directory_path() /
                 (std::to_string(::getpid()) + "_" + name))
                    .string();
        return path_;
    }
    std::string path_;
};

TEST(CsvEscape, PlainFieldUntouched) {
    EXPECT_EQ(csv_escape("hello"), "hello");
    EXPECT_EQ(csv_escape("123.5"), "123.5");
}

TEST(CsvEscape, QuotesFieldsWithComma) {
    EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
}

TEST(CsvEscape, DoublesEmbeddedQuotes) {
    EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvEscape, QuotesNewlines) {
    EXPECT_EQ(csv_escape("a\nb"), "\"a\nb\"");
}

TEST(FormatDouble, TrimsTrailingZeros) {
    EXPECT_EQ(format_double(1.5), "1.5");
    EXPECT_EQ(format_double(2.0), "2");
    EXPECT_EQ(format_double(0.25, 4), "0.25");
}

TEST(FormatDouble, HandlesSpecials) {
    EXPECT_EQ(format_double(std::nan("")), "nan");
    EXPECT_EQ(format_double(1.0 / 0.0), "inf");
    EXPECT_EQ(format_double(-1.0 / 0.0), "-inf");
}

TEST(FormatDouble, NegativeZeroNormalized) {
    EXPECT_EQ(format_double(-0.0), "0");
}

/// printf("%.*f") in the "C" locale, untrimmed.
std::string printf_fixed(double v, int precision) {
    char buf[400]; // sign + 309 integer digits + point + precision digits
    std::snprintf(buf, sizeof buf, "%.*f", precision, v);
    return buf;
}

/// The reference format_double: printf digits with the same trimming.
std::string printf_format_double(double v, int precision) {
    std::string s = printf_fixed(v, precision);
    if (s.find('.') != std::string::npos) {
        while (s.back() == '0') s.pop_back();
        if (s.back() == '.') s.pop_back();
    }
    return s == "-0" ? "0" : s;
}

TEST(FormatDouble, MatchesPrintfReferenceOnSeededGrid) {
    std::mt19937_64 rng(0x10705);
    const auto from_bits = [](std::uint64_t bits) {
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    };
    std::vector<double> values = {
        0.0, -0.0, 1.0, -1.0, 1e308, -1e308,
        std::numeric_limits<double>::max(), std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::min(), std::numeric_limits<double>::denorm_min(),
        0.125, 2.5, 0.5, -0.5, -0.4, -0.005, -1e-12,
    };
    for (int i = 0; i < 4000; ++i) {
        // Random finite bit patterns: every magnitude up to +-1.8e308.
        const double v = from_bits(rng());
        if (std::isfinite(v)) values.push_back(v);
    }
    for (int i = 0; i < 500; ++i) {
        // Subnormals of either sign.
        values.push_back(from_bits(rng() & 0x800F'FFFF'FFFF'FFFFULL));
    }
    std::uniform_real_distribution<double> everyday(-1e6, 1e6);
    for (int i = 0; i < 2000; ++i) values.push_back(everyday(rng));
    for (int m = 1; m <= 11; ++m) {
        // j / 2^m has m decimals ending in 5: an exact tie at precision m-1.
        const double scale = std::ldexp(1.0, -m);
        for (std::uint64_t j = 1; j < (1ULL << m); j += 2) {
            values.push_back(static_cast<double>(j) * scale);
            values.push_back(-static_cast<double>(j) * scale);
            values.push_back(3.0 + static_cast<double>(j) * scale);
        }
    }
    for (int p = 0; p <= 9; ++p) {
        // Negatives that round to -0 at precision p.
        std::uniform_real_distribution<double> tiny(0.0, 0.5 * std::pow(10.0, -p));
        for (int i = 0; i < 50; ++i) values.push_back(-tiny(rng));
    }

    std::size_t mismatches = 0;
    for (int precision = 0; precision <= 9; ++precision) {
        for (const double v : values) {
            const auto expected = printf_format_double(v, precision);
            const auto got = format_double(v, precision);
            std::string fixed;
            append_fixed(fixed, v, precision);
            if (got != expected || fixed != printf_fixed(v, precision)) {
                if (++mismatches <= 5) {
                    ADD_FAILURE() << "precision " << precision << " value "
                                  << printf_fixed(v, 17) << ": format_double " << got
                                  << " vs printf " << expected;
                }
            }
        }
    }
    EXPECT_EQ(mismatches, 0u) << "of " << values.size() * 10 << " renderings";
}

/// std::to_chars(..., fixed, precision): append_fixed's reference.
std::string to_chars_fixed(double v, int precision) {
    char buf[400]; // sign + 309 integer digits + point + precision digits
    const auto r = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, precision);
    return std::string(buf, r.ptr);
}

/// Count (and report the first few of) the values append_fixed renders
/// differently from std::to_chars at `precision`.
std::size_t fixed_mismatches(const std::vector<double>& values, int precision) {
    std::size_t mismatches = 0;
    std::string got;
    for (const double v : values) {
        got.clear();
        append_fixed(got, v, precision);
        const auto expected = to_chars_fixed(v, precision);
        if (got != expected && ++mismatches <= 5) {
            ADD_FAILURE() << "precision " << precision << " value " << to_chars_fixed(v, 20)
                          << ": append_fixed " << got << " vs to_chars " << expected;
        }
    }
    return mismatches;
}

TEST(AppendFixed, MatchesToCharsOnAMillionSeededValuesPerPrecision) {
    // Log-uniform magnitudes over 1e-15..2^53 (the exact integer path's
    // range and the fallback below it), either sign, a quarter of them cut
    // to few fraction bits so that rounding ties and short fractions come up.
    std::mt19937_64 rng(0xF1AED);
    std::uniform_real_distribution<double> exponent(-15.0, std::log10(0x1p53));
    for (int precision = 0; precision <= 9; ++precision) {
        std::vector<double> values(1'000'000);
        for (auto& v : values) {
            v = std::pow(10.0, exponent(rng));
            if (rng() % 4 == 0) v = std::ldexp(std::round(std::ldexp(v, 12)), -12);
            if (rng() % 2 == 0) v = -v;
        }
        EXPECT_EQ(fixed_mismatches(values, precision), 0u) << "precision " << precision;
    }
}

TEST(AppendFixed, MatchesToCharsOnEdges) {
    std::vector<double> values = {
        // Carries through every printed digit.
        0.9995, 9.5, 99.5, 0.99999999995, 999999.9999999, 0.5, 1.5, 2.5,
        // Negative values and zeros.
        -0.0, 0.0, -0.9995, -9.5, -1e-12, -0.0004, -123.456,
        // Subnormals.
        std::numeric_limits<double>::denorm_min(), -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min() / 3.0,
        // Around 2^53, where the integer path ends.
        0x1p53 - 1.0, 0x1p53, 0x1p53 + 2.0, -(0x1p53 - 1.0), 0x1p53 - 0.5,
        // Around the 98-fraction-bit cutoff: [2^-46, 2^-45) is the last
        // binade the integer path takes.
        0x1p-46, std::nextafter(0x1p-46, 0.0), std::nextafter(0x1p-45, 0.0), 0x1p-45,
        0x1.fffffffffffffp-47, 0x1.8p-46, -0x1p-46,
    };
    for (int m = 0; m <= 40; ++m) {
        // (2j + 1) / 2^(p + 1) has p + 1 decimals ending in 5: an exact tie
        // at precision p, with an integer part of up to 40 bits.
        for (int p = 0; p <= 9; ++p) {
            const double j = std::ldexp(1.0, m) + static_cast<double>(2 * p + 1);
            values.push_back(std::ldexp(2.0 * j + 1.0, -(p + 1)));
            values.push_back(-std::ldexp(2.0 * j + 1.0, -(p + 1)));
        }
    }
    for (int precision = 0; precision <= 9; ++precision) {
        EXPECT_EQ(fixed_mismatches(values, precision), 0u) << "precision " << precision;
    }
    // Pinned ties: half to even, like printf.
    const auto fixed = [](double v, int precision) {
        std::string s;
        append_fixed(s, v, precision);
        return s;
    };
    EXPECT_EQ(fixed(0.125, 2), "0.12");
    EXPECT_EQ(fixed(0.375, 2), "0.38");
    EXPECT_EQ(fixed(2.5, 0), "2");
    EXPECT_EQ(fixed(9.5, 0), "10");
    EXPECT_EQ(fixed(-0.0, 3), "-0.000");
    EXPECT_EQ(fixed(0x1p53, 1), "9007199254740992.0");
}

TEST(FormatDouble, RejectsPrecisionOutsideZeroToNine) {
    EXPECT_THROW((void)format_double(1.0, -1), std::invalid_argument);
    EXPECT_THROW((void)format_double(1.0, 10), std::invalid_argument);
}

TEST(FormatDouble, AppendsToExistingText) {
    std::string s = "x=";
    append_double(s, -0.0001, 2);
    append_double(s, 1.250, 3);
    EXPECT_EQ(s, "x=01.25");
}

TEST_F(CsvWriterTest, WritesHeaderAndRows) {
    const auto path = temp_path("lotus_csv_test1.csv");
    {
        CsvWriter csv(path, {"a", "b"});
        csv.row(std::vector<std::string>{"1", "x"});
        csv.row(std::vector<double>{2.5, 3.0});
        EXPECT_EQ(csv.rows_written(), 2u);
    }
    EXPECT_EQ(slurp(path), "a,b\n1,x\n2.5,3\n");
}

TEST_F(CsvWriterTest, RejectsArityMismatch) {
    const auto path = temp_path("lotus_csv_test2.csv");
    CsvWriter csv(path, {"a", "b"});
    EXPECT_THROW(csv.row(std::vector<std::string>{"only-one"}), std::invalid_argument);
}

TEST_F(CsvWriterTest, RejectsEmptyHeader) {
    const auto path = temp_path("lotus_csv_test3.csv");
    EXPECT_THROW(CsvWriter(path, {}), std::invalid_argument);
}

TEST_F(CsvWriterTest, CloseThrowsNamingTheFileOnAFullDisk) {
    if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
    const auto path = temp_path("lotus_csv_test_full.csv");
    std::filesystem::remove(path);
    std::filesystem::create_symlink("/dev/full", path);
    CsvWriter csv(path, {"a", "b"});
    csv.row(std::vector<std::string>{"1", "x"});
    try {
        csv.close();
        ADD_FAILURE() << "a failed write was reported as success";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
    }
}

TEST(TextTable, RendersAlignedColumns) {
    TextTable t({"name", "value"});
    t.add_row({"x", "1"});
    t.add_row({"longer-name", "22"});
    const auto out = t.render("title");
    EXPECT_NE(out.find("title"), std::string::npos);
    EXPECT_NE(out.find("| name        | value |"), std::string::npos);
    EXPECT_NE(out.find("| longer-name | 22    |"), std::string::npos);
}

TEST(TextTable, RejectsArityMismatch) {
    TextTable t({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TextTable, RowCount) {
    TextTable t({"a"});
    EXPECT_EQ(t.rows(), 0u);
    t.add_row({"1"});
    EXPECT_EQ(t.rows(), 1u);
}

TEST(AsciiChart, RendersSeriesAndLegend) {
    AsciiChart chart(40, 10);
    chart.add_series({"lat", {1, 2, 3, 4, 5, 6, 7, 8}});
    chart.add_reference_line(5.0, "bound");
    const auto out = chart.render("demo", "ms");
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find("[ms]"), std::string::npos);
    EXPECT_NE(out.find("*=lat"), std::string::npos);
    EXPECT_NE(out.find("-=bound"), std::string::npos);
}

TEST(AsciiChart, RejectsTinyGrid) {
    EXPECT_THROW(AsciiChart(4, 2), std::invalid_argument);
}

TEST(AsciiChart, MultipleSeriesDistinctGlyphs) {
    AsciiChart chart(40, 8);
    chart.add_series({"a", {1, 1, 1}});
    chart.add_series({"b", {2, 2, 2}});
    const auto out = chart.render();
    EXPECT_NE(out.find("*=a"), std::string::npos);
    EXPECT_NE(out.find("o=b"), std::string::npos);
}

TEST(Downsample, ShortInputPassthrough) {
    const std::vector<double> v{1, 2, 3};
    EXPECT_EQ(downsample(v, 10), v);
}

TEST(Downsample, AveragesBuckets) {
    std::vector<double> v;
    for (int i = 0; i < 100; ++i) v.push_back(static_cast<double>(i));
    const auto d = downsample(v, 10);
    ASSERT_EQ(d.size(), 10u);
    EXPECT_NEAR(d[0], 4.5, 1e-12);  // mean of 0..9
    EXPECT_NEAR(d[9], 94.5, 1e-12); // mean of 90..99
}

TEST(Downsample, PreservesGlobalMean) {
    std::vector<double> v;
    for (int i = 0; i < 1000; ++i) v.push_back(std::sin(i * 0.01) * 50 + 100);
    const auto d = downsample(v, 40);
    double m1 = 0;
    for (const double x : v) m1 += x;
    m1 /= static_cast<double>(v.size());
    double m2 = 0;
    for (const double x : d) m2 += x;
    m2 /= static_cast<double>(d.size());
    EXPECT_NEAR(m1, m2, 0.5);
}

TEST(Downsample, EmptyInput) {
    EXPECT_TRUE(downsample({}, 5).empty());
}

TEST(Downsample, ZeroBucketsThrows) {
    EXPECT_THROW((void)downsample({1.0}, 0), std::invalid_argument);
}

} // namespace
} // namespace lotus::util
