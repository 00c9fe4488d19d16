// Unit tests for ferro::util — constants, strings, CSV, stats, interp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "mag/bh.hpp"
#include "util/constants.hpp"
#include "util/csv.hpp"
#include "util/stream_writer.hpp"
#include "util/interp.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace fm = ferro::mag;
namespace fu = ferro::util;

TEST(Constants, Mu0MatchesFourPiTimes1e7) {
  EXPECT_NEAR(fu::kMu0, 4.0 * fu::kPi * 1e-7, 1e-21);
}

TEST(Constants, TwoOverPi) {
  EXPECT_NEAR(fu::kTwoOverPi, 2.0 / fu::kPi, 1e-16);
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto fields = fu::split("a,,b", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
}

TEST(Strings, SplitSingleField) {
  const auto fields = fu::split("alone", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "alone");
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(fu::trim("  x y \t"), "x y");
  EXPECT_EQ(fu::trim(""), "");
  EXPECT_EQ(fu::trim(" \t "), "");
}

TEST(Strings, ParseNumberAcceptsWholeTokens) {
  EXPECT_EQ(fu::parse_number<unsigned>("42"), 42u);
  EXPECT_EQ(fu::parse_number<int>("-7"), -7);
  EXPECT_EQ(fu::parse_number<std::size_t>("18446744073709551615"),
            std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(fu::parse_number<double>("2.5e-3"), 2.5e-3);
  EXPECT_EQ(fu::parse_number<double>("-1e300"), -1e300);
}

TEST(Strings, ParseNumberRejectsSigns) {
  // Unsigned counts take no sign at all; no type takes '+'.
  EXPECT_EQ(fu::parse_number<std::size_t>("-1"), std::nullopt);
  EXPECT_EQ(fu::parse_number<unsigned>("-0"), std::nullopt);
  EXPECT_EQ(fu::parse_number<std::uint64_t>("+1"), std::nullopt);
  EXPECT_EQ(fu::parse_number<int>("+1"), std::nullopt);
}

TEST(Strings, ParseNumberRejectsTrailingGarbage) {
  EXPECT_EQ(fu::parse_number<int>("12abc"), std::nullopt);
  EXPECT_EQ(fu::parse_number<int>("1.5"), std::nullopt);
  EXPECT_EQ(fu::parse_number<unsigned>("3 "), std::nullopt);
  EXPECT_EQ(fu::parse_number<unsigned>(" 3"), std::nullopt);
  EXPECT_EQ(fu::parse_number<double>("1.0x"), std::nullopt);
  EXPECT_EQ(fu::parse_number<int>("abc"), std::nullopt);
}

TEST(Strings, ParseNumberRejectsOverflowInsteadOfWrapping) {
  EXPECT_EQ(fu::parse_number<std::uint32_t>("4294967296"), std::nullopt);
  EXPECT_EQ(fu::parse_number<int>("2147483648"), std::nullopt);
  EXPECT_EQ(fu::parse_number<int>("-2147483649"), std::nullopt);
  EXPECT_EQ(fu::parse_number<std::size_t>("18446744073709551616"),
            std::nullopt);
  EXPECT_EQ(fu::parse_number<double>("1e400"), std::nullopt);
}

TEST(Strings, ParseNumberRejectsTheEmptyToken) {
  EXPECT_EQ(fu::parse_number<unsigned>(""), std::nullopt);
  EXPECT_EQ(fu::parse_number<double>(""), std::nullopt);
}

TEST(Strings, ParseNumberRejectsNonFiniteDoubles) {
  for (const char* token : {"nan", "NaN", "-nan", "inf", "-inf", "infinity"}) {
    EXPECT_EQ(fu::parse_number<double>(token), std::nullopt) << token;
  }
}

TEST(Csv, RoundTrip) {
  const std::string path = "test_util_roundtrip.csv";
  {
    fu::CsvWriter writer(path, {"a", "b"});
    writer.row({1.0, 2.0});
    writer.row({3.5, -4.25});
    EXPECT_TRUE(writer.ok());
    EXPECT_EQ(writer.rows_written(), 2u);
  }
  const fu::CsvTable table = fu::read_csv(path);
  ASSERT_EQ(table.columns.size(), 2u);
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.column_index("b"), 1);
  EXPECT_EQ(table.column_index("missing"), -1);
  const auto b = table.column("b");
  ASSERT_EQ(b.size(), 2u);
  EXPECT_DOUBLE_EQ(b[0], 2.0);
  EXPECT_DOUBLE_EQ(b[1], -4.25);
  std::filesystem::remove(path);
}

TEST(Csv, WrongRowWidthMarksNotOk) {
  const std::string path = "test_util_width.csv";
  fu::CsvWriter writer(path, {"a", "b"});
  writer.row({1.0});
  EXPECT_FALSE(writer.ok());
  std::filesystem::remove(path);
}

TEST(Csv, FullDiskFailsBeforeTheWriterAnswers) {
  // /dev/full accepts the open and fails every write with ENOSPC. A few
  // rows fit in the stream's buffer, so they fail only when flushed: a
  // writer that answers before flushing reports a file it never finished.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this platform";
  }
  fu::CsvWriter writer("/dev/full", {"a", "b"});
  writer.row({1.0, 2.0});
  writer.row({3.5, -4.25});
  writer.flush();
  EXPECT_FALSE(writer.ok());

  std::vector<fm::BhPoint> points;
  for (int i = 0; i < 10; ++i) points.push_back({i * 1.0, i * 2.0, i * 3.0});
  EXPECT_FALSE(fm::BhCurve(std::move(points)).write_csv("/dev/full"));
}

TEST(Csv, MissingFileGivesEmptyTable) {
  const fu::CsvTable table = fu::read_csv("definitely_missing_file.csv");
  EXPECT_TRUE(table.columns.empty());
  EXPECT_TRUE(table.rows.empty());
}

TEST(Stats, RunningStatsMeanVariance) {
  fu::RunningStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, RunningStatsEmptyAndReset) {
  fu::RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.add(3.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
}

TEST(Stats, RunningStatsCatastrophicCancellationNeverNansStddev) {
  // Near-identical samples around a huge mean: the squared deviations are
  // ~30 orders of magnitude below mean^2, the regime where a sum-of-squares
  // accumulator cancels catastrophically. The Welford accumulator plus the
  // variance() clamp must keep variance >= 0 and stddev finite (not NaN)
  // for every prefix of the stream.
  fu::RunningStats s;
  const double base = 1e15;
  const double ulp = std::nextafter(base, 2.0 * base) - base;
  const double jitter[] = {0.0, ulp, -ulp, 0.0, 2.0 * ulp, ulp, -2.0 * ulp,
                           0.0, -ulp, ulp};
  for (const double j : jitter) {
    s.add(base + j);
    EXPECT_GE(s.variance(), 0.0);
    EXPECT_FALSE(std::isnan(s.stddev()));
    EXPECT_TRUE(std::isfinite(s.stddev()));
  }
  // All samples within a few ulps of base: stddev must reflect that scale.
  EXPECT_LE(s.stddev(), 4.0 * ulp);
}

TEST(Stats, RunningStatsIdenticalLargeSamplesHaveZeroVariance) {
  fu::RunningStats s;
  for (int i = 0; i < 1000; ++i) s.add(1.0e18 + 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Stats, RmsAndDiffs) {
  const std::vector<double> a = {3.0, 4.0};
  const std::vector<double> b = {0.0, 0.0};
  EXPECT_NEAR(fu::rms(a), std::sqrt(12.5), 1e-12);
  EXPECT_NEAR(fu::rms_diff(a, b), std::sqrt(12.5), 1e-12);
  EXPECT_DOUBLE_EQ(fu::max_abs_diff(a, b), 4.0);
  EXPECT_DOUBLE_EQ(fu::rms({}), 0.0);
}

TEST(Interp, LerpInteriorAndClamp) {
  const std::vector<double> xs = {0.0, 1.0, 2.0};
  const std::vector<double> ys = {0.0, 10.0, 40.0};
  EXPECT_DOUBLE_EQ(fu::lerp_at(xs, ys, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(fu::lerp_at(xs, ys, 1.5), 25.0);
  EXPECT_DOUBLE_EQ(fu::lerp_at(xs, ys, -1.0), 0.0);   // clamp low
  EXPECT_DOUBLE_EQ(fu::lerp_at(xs, ys, 3.0), 40.0);   // clamp high
}

TEST(Interp, Resample) {
  const std::vector<double> xs = {0.0, 2.0};
  const std::vector<double> ys = {0.0, 4.0};
  const std::vector<double> xq = {0.0, 1.0, 2.0};
  const auto out = fu::resample(xs, ys, xq);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[1], 2.0);
}

TEST(Interp, Linspace) {
  const auto g = fu::linspace(-1.0, 1.0, 5);
  ASSERT_EQ(g.size(), 5u);
  EXPECT_DOUBLE_EQ(g.front(), -1.0);
  EXPECT_DOUBLE_EQ(g[2], 0.0);
  EXPECT_DOUBLE_EQ(g.back(), 1.0);
}

TEST(Interp, LinspaceDegenerateCountsAreWellDefined) {
  // Release-mode regression: n == 0 used to underflow n - 1 and call
  // .back() on an empty vector (UB); n == 1 divided the span by zero.
  EXPECT_TRUE(fu::linspace(0.0, 1.0, 0).empty());
  const auto one = fu::linspace(3.5, 9.0, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_DOUBLE_EQ(one.front(), 3.5);
  const auto two = fu::linspace(-2.0, 2.0, 2);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_DOUBLE_EQ(two.front(), -2.0);
  EXPECT_DOUBLE_EQ(two.back(), 2.0);
}

TEST(Interp, LerpPropagatesNanQueries) {
  // A NaN query compares false against every grid point; it used to fall
  // through the clamp branches into upper_bound (unordered predicate, index
  // underflow). It must come back as NaN, not as a silently interpolated
  // value.
  const std::vector<double> xs = {0.0, 1.0, 2.0};
  const std::vector<double> ys = {0.0, 10.0, 40.0};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(fu::lerp_at(xs, ys, nan)));
  const auto out = fu::resample(xs, ys, std::vector<double>{0.5, nan, 1.5});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0], 5.0);
  EXPECT_TRUE(std::isnan(out[1]));
  EXPECT_DOUBLE_EQ(out[2], 25.0);
}

TEST(StreamWriter, CsvRowsAreOnDiskBeforeTheWriterCloses) {
  const std::string path = "test_util_stream.csv";
  fu::CsvStreamWriter writer(path, {"x", "y"}, /*flush_every=*/1);
  writer.row({1.0, 2.0});
  writer.row({3.0, 4.5});
  EXPECT_TRUE(writer.ok());
  EXPECT_EQ(writer.rows_written(), 2u);

  // The writer is still open — a tailing consumer must already see the rows.
  const fu::CsvTable table = fu::read_csv(path);
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(table.rows[1][1], 4.5);
  std::filesystem::remove(path);
}

TEST(StreamWriter, CsvRoundTripsFullDoublePrecision) {
  const std::string path = "test_util_stream_precision.csv";
  const double value = 0.1 + 0.2;  // not representable; shortest-round-trip
  {
    fu::CsvStreamWriter writer(path, {"v"});
    writer.row({value});
  }
  const fu::CsvTable table = fu::read_csv(path);
  ASSERT_EQ(table.rows.size(), 1u);
  EXPECT_EQ(table.rows[0][0], value);  // bitwise, not just near
  std::filesystem::remove(path);
}

TEST(StreamWriter, CsvWrongRowWidthMarksNotOk) {
  const std::string path = "test_util_stream_width.csv";
  fu::CsvStreamWriter writer(path, {"a", "b"});
  writer.row({1.0});
  EXPECT_FALSE(writer.ok());
  std::filesystem::remove(path);
}

TEST(StreamWriter, JsonLinesRecordsAndEscapes) {
  const std::string path = "test_util_stream.jsonl";
  {
    fu::JsonLinesWriter writer(path);
    writer.record({{"name", std::string_view("say \"hi\"\n")},
                   {"value", 2.5},
                   {"ok", true},
                   {"count", std::uint64_t{7}}});
    EXPECT_TRUE(writer.ok());
    EXPECT_EQ(writer.records_written(), 1u);
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line,
            "{\"name\": \"say \\\"hi\\\"\\n\", \"value\": 2.5, "
            "\"ok\": true, \"count\": 7}");
  std::filesystem::remove(path);
}

TEST(StreamWriter, JsonEscapeHandlesControlCharacters) {
  EXPECT_EQ(fu::json_escape("a\tb"), "a\\tb");
  EXPECT_EQ(fu::json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(fu::json_escape(std::string_view("\x01", 1)), "\\u0001");
  EXPECT_EQ(fu::json_escape("plain"), "plain");
}

TEST(StreamWriter, JsonLinesWritesNonFiniteNumbersAsNull) {
  const std::string path = "test_util_stream_nan.jsonl";
  {
    fu::JsonLinesWriter writer(path);
    writer.record({{"bad", std::nan("")},
                   {"worse", std::numeric_limits<double>::infinity()},
                   {"fine", 1.0}});
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "{\"bad\": null, \"worse\": null, \"fine\": 1}");
  std::filesystem::remove(path);
}
