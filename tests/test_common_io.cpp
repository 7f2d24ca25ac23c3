// Tests for CSV, table rendering, ASCII charts, CLI parsing and the
// shared CRC-32.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "common/ascii_chart.hpp"
#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/expects.hpp"
#include "common/table.hpp"
#include "common/wire.hpp"

namespace slacksched {
namespace {

// ---------- CSV ----------

TEST(Csv, WritesHeaderAndRows) {
  std::ostringstream out;
  CsvWriter writer(out, {"a", "b"});
  writer.row({"1", "x"});
  writer.row_numeric({2.5, -3.0});
  EXPECT_EQ(writer.rows_written(), 2u);
  EXPECT_EQ(out.str(), "a,b\n1,x\n2.5,-3\n");
}

TEST(Csv, RejectsWrongArity) {
  std::ostringstream out;
  CsvWriter writer(out, {"a", "b"});
  EXPECT_THROW(writer.row({"only-one"}), PreconditionError);
}

TEST(Csv, FormatRoundTrips) {
  for (double v : {0.1, 1.0 / 3.0, 1e-17, 123456789.123456789, -2.5e300}) {
    EXPECT_EQ(std::stod(CsvWriter::format(v)), v);
  }
}

TEST(Csv, ParseRoundTrip) {
  std::ostringstream out;
  CsvWriter writer(out, {"x", "y", "z"});
  writer.row({"1", "2", "3"});
  writer.row({"a", "b", "c"});
  std::istringstream in(out.str());
  const auto rows = parse_csv(in);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"x", "y", "z"}));
  EXPECT_EQ(rows[2], (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Csv, ParseHandlesCrlfAndBlankLines) {
  std::istringstream in("a,b\r\n\r\n1,2\r\n");
  const auto rows = parse_csv(in);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2"}));
}

// ---------- Table ----------

TEST(Table, AlignsColumns) {
  Table t({"name", "v"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  std::ostringstream out;
  t.print(out);
  const std::string rendered = out.str();
  EXPECT_NE(rendered.find("name"), std::string::npos);
  EXPECT_NE(rendered.find("longer"), std::string::npos);
  EXPECT_NE(rendered.find("----"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), PreconditionError);
}

TEST(Table, NumericFormatting) {
  EXPECT_EQ(Table::format(1.23456, 2), "1.23");
  EXPECT_EQ(Table::format(-0.5, 1), "-0.5");
  EXPECT_EQ(Table::format(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(Table::format(std::numeric_limits<double>::quiet_NaN(), 3), "nan");
}

// ---------- ASCII chart ----------

TEST(AsciiChart, RendersAllSeriesGlyphs) {
  ChartSeries a{"alpha", {1.0, 2.0, 3.0}, {1.0, 4.0, 9.0}, 'a'};
  ChartSeries b{"beta", {1.0, 2.0, 3.0}, {9.0, 4.0, 1.0}, 'b'};
  std::ostringstream out;
  ChartOptions options;
  options.title = "demo";
  render_chart(out, {a, b}, options);
  const std::string rendered = out.str();
  EXPECT_NE(rendered.find("demo"), std::string::npos);
  EXPECT_NE(rendered.find('a'), std::string::npos);
  EXPECT_NE(rendered.find('b'), std::string::npos);
  EXPECT_NE(rendered.find("alpha"), std::string::npos);
  EXPECT_NE(rendered.find("legend"), std::string::npos);
}

TEST(AsciiChart, LogScaleSkipsNonPositive) {
  ChartSeries s{"s", {0.0, 0.1, 1.0}, {1.0, 2.0, 3.0}, '*'};
  std::ostringstream out;
  ChartOptions options;
  options.log_x = true;
  render_chart(out, {s}, options);  // must not throw on the zero x
  EXPECT_NE(out.str().find("log scale"), std::string::npos);
}

TEST(AsciiChart, RejectsTinyCanvas) {
  std::ostringstream out;
  ChartOptions options;
  options.width = 4;
  EXPECT_THROW(render_chart(out, {}, options), PreconditionError);
}

// ---------- CLI ----------

TEST(Cli, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--eps=0.25", "--verbose", "pos1",
                        "--n=42"};
  CliArgs args(5, argv);
  EXPECT_TRUE(args.has("eps"));
  EXPECT_DOUBLE_EQ(args.get_double("eps", 0.0), 0.25);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_EQ(args.get_int("n", 0), 42);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(Cli, FallbacksApply) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 1.5), 1.5);
  EXPECT_EQ(args.get_string("missing", "d"), "d");
  EXPECT_FALSE(args.get_bool("missing", false));
}

TEST(Cli, RejectsMalformedNumbers) {
  const char* argv[] = {"prog", "--eps=abc"};
  CliArgs args(2, argv);
  EXPECT_THROW((void)args.get_double("eps", 0.0), PreconditionError);
  EXPECT_THROW((void)args.get_int("eps", 0), PreconditionError);
}

TEST(Cli, ListsKeys) {
  const char* argv[] = {"prog", "--b=1", "--a=2"};
  CliArgs args(3, argv);
  const auto keys = args.keys();
  EXPECT_EQ(keys.size(), 2u);
}

// ---------- CRC-32C ----------

/// The textbook bit-at-a-time CRC-32C (reflected, poly 0x82F63B78): no
/// tables, so it shares nothing with either implementation under test.
std::uint32_t crc32c_bitwise(const unsigned char* data, std::size_t n) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0x82F63B78u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(wire::crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(wire::crc32c("", 0), 0u);
  EXPECT_EQ(wire::detail::crc32c_portable("123456789", 9), 0xE3069283u);
  EXPECT_EQ(wire::detail::crc32c_portable("", 0), 0u);
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0..300 from each start offset 0..7: every tail length after
  // the 8-byte stride, every load alignment, and multi-stride runs. Both
  // the dispatched function (the hardware path where the CPU has one) and
  // the table path, which such a host never selects.
  std::vector<unsigned char> buffer(8 + 300);
  std::uint32_t x = 0x9E3779B9u;
  for (unsigned char& b : buffer) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(x >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const unsigned char* data = buffer.data() + offset;
      const std::uint32_t expect = crc32c_bitwise(data, len);
      ASSERT_EQ(wire::crc32c(data, len), expect)
          << "offset " << offset << ", length " << len;
      ASSERT_EQ(wire::detail::crc32c_portable(data, len), expect)
          << "table path, offset " << offset << ", length " << len;
    }
  }
}

}  // namespace
}  // namespace slacksched
