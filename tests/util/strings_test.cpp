#include "util/strings.hpp"

#include <gtest/gtest.h>

#include <clocale>
#include <cstdint>
#include <string>

namespace commsched {
namespace {

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t x \n"), "x");
  EXPECT_EQ(trim("nospace"), "nospace");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(SplitTest, KeepsEmptyTokens) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(SplitWsTest, DropsEmptyTokens) {
  EXPECT_EQ(split_ws("  a  b\tc \n"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(split_ws("   ").empty());
  EXPECT_TRUE(split_ws("").empty());
}

TEST(ParseIntTest, ParsesAndRejects) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int(" 42 "), 42);
  EXPECT_EQ(parse_int("-17"), -17);
  EXPECT_FALSE(parse_int("4x").has_value());
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("1.5").has_value());
}

TEST(ParseIntTest, BoundedIntRejectsWhatWouldWrap) {
  EXPECT_EQ(parse_int_at_least(" 5 ", 1), 5);
  EXPECT_EQ(parse_int_at_least("2147483647", 0), 2147483647);
  EXPECT_EQ(parse_int_at_least("-2147483648", -2147483647 - 1),
            -2147483647 - 1);
  EXPECT_FALSE(parse_int_at_least("0", 1).has_value());
  EXPECT_FALSE(parse_int_at_least("2147483648", 0).has_value());
  EXPECT_FALSE(parse_int_at_least("4294967297", 0).has_value());
  EXPECT_FALSE(parse_int_at_least("-2147483649", -2147483647 - 1).has_value());
  EXPECT_FALSE(parse_int_at_least("lots", 0).has_value());
}

TEST(ParseIntTest, Uint64TakesAll64BitsAndNoSign) {
  EXPECT_EQ(parse_uint64("9223372036854775808"), std::uint64_t{1} << 63);
  EXPECT_EQ(parse_uint64(" 18446744073709551615 "), ~std::uint64_t{0});
  EXPECT_FALSE(parse_uint64("18446744073709551616").has_value());
  EXPECT_FALSE(parse_uint64("-1").has_value());
  EXPECT_FALSE(parse_uint64("+1").has_value());
  EXPECT_FALSE(parse_uint64("").has_value());
}

TEST(ParseDoubleTest, ParsesAndRejects) {
  EXPECT_DOUBLE_EQ(*parse_double("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(*parse_double("-1e3"), -1000.0);
  EXPECT_DOUBLE_EQ(*parse_double("7"), 7.0);
  EXPECT_FALSE(parse_double("abc").has_value());
  EXPECT_FALSE(parse_double("").has_value());
}

TEST(HostlistTest, PlainNamePassesThrough) {
  EXPECT_EQ(expand_hostlist("login1"), (std::vector<std::string>{"login1"}));
}

TEST(HostlistTest, ExpandsPaperExample) {
  // The exact notation from the paper's §5.2 topology.conf example.
  EXPECT_EQ(expand_hostlist("n[0-3]"),
            (std::vector<std::string>{"n0", "n1", "n2", "n3"}));
  EXPECT_EQ(expand_hostlist("s[0-1]"),
            (std::vector<std::string>{"s0", "s1"}));
}

TEST(HostlistTest, ExpandsMixedRangesAndSingles) {
  EXPECT_EQ(expand_hostlist("n[0-2,5,7-8]"),
            (std::vector<std::string>{"n0", "n1", "n2", "n5", "n7", "n8"}));
}

TEST(HostlistTest, PreservesZeroPadding) {
  EXPECT_EQ(expand_hostlist("gpu[01-03]"),
            (std::vector<std::string>{"gpu01", "gpu02", "gpu03"}));
  EXPECT_EQ(expand_hostlist("c[098-101]"),
            (std::vector<std::string>{"c098", "c099", "c100", "c101"}));
}

TEST(HostlistTest, ExpandsCommaSeparatedExpressions) {
  EXPECT_EQ(expand_hostlist("a[0-1],b2,c[5]"),
            (std::vector<std::string>{"a0", "a1", "b2", "c5"}));
}

TEST(HostlistTest, RejectsMalformedExpressions) {
  EXPECT_THROW(expand_hostlist("n[0-"), ParseError);
  EXPECT_THROW(expand_hostlist("n0]"), ParseError);
  EXPECT_THROW(expand_hostlist("n[]"), ParseError);
  EXPECT_THROW(expand_hostlist("n[3-1]"), ParseError);
  EXPECT_THROW(expand_hostlist("n[x]"), ParseError);
  EXPECT_THROW(expand_hostlist("n[1]x"), ParseError);
}

TEST(HostlistTest, CompressesConsecutiveRun) {
  EXPECT_EQ(compress_hostlist({"n0", "n1", "n2", "n3"}), "n[0-3]");
}

TEST(HostlistTest, CompressesWithGaps) {
  EXPECT_EQ(compress_hostlist({"n0", "n1", "n5", "n7", "n8"}),
            "n[0-1,5,7-8]");
}

TEST(HostlistTest, CompressesMixedPrefixes) {
  EXPECT_EQ(compress_hostlist({"a0", "a1", "b3"}), "a[0-1],b[3]");
}

TEST(HostlistTest, CompressEmptyAndPlain) {
  EXPECT_EQ(compress_hostlist({}), "");
  EXPECT_EQ(compress_hostlist({"login"}), "login");
}

TEST(HostlistTest, RoundTripLargeRange) {
  std::vector<std::string> hosts;
  for (int i = 0; i < 500; ++i) hosts.push_back("x" + std::to_string(i));
  EXPECT_EQ(expand_hostlist(compress_hostlist(hosts)), hosts);
}

TEST(HostlistTest, RoundTripPaddedNames) {
  const std::vector<std::string> hosts{"c01", "c02", "c03", "c10"};
  EXPECT_EQ(expand_hostlist(compress_hostlist(hosts)), hosts);
}

TEST(StartsWithTest, Basics) {
  EXPECT_TRUE(starts_with("SwitchName=s0", "SwitchName="));
  EXPECT_FALSE(starts_with("Nodes=n0", "SwitchName="));
  EXPECT_TRUE(starts_with("abc", ""));
  EXPECT_FALSE(starts_with("ab", "abc"));
}

TEST(FormatDoubleTest, Precision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(2.0, 0), "2");
  EXPECT_EQ(format_double(-1.005, 1), "-1.0");
}

TEST(FormatDoubleTest, LocaleIndependentDecimalPoint) {
  // A comma-decimal LC_NUMERIC must not leak into the output: the emit
  // layer's golden files pin "3.14", never "3,14" (this is why the
  // implementation uses std::to_chars, not snprintf "%.*f").
  const char* saved = std::setlocale(LC_NUMERIC, nullptr);
  const std::string original = saved != nullptr ? saved : "C";
  bool have_comma_locale = false;
  for (const char* name :
       {"de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8", "fr_FR.utf8"}) {
    if (std::setlocale(LC_NUMERIC, name) != nullptr) {
      have_comma_locale = true;
      break;
    }
  }
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-0.5, 3), "-0.500");
  std::setlocale(LC_NUMERIC, original.c_str());
  if (!have_comma_locale)
    GTEST_SKIP() << "no comma-decimal locale installed; checked under \""
                 << original << "\" only";
}

TEST(FormatDoubleTest, RoundTripsExactlyAtHighPrecision) {
  for (const double v :
       {0.1, 1.0 / 3.0, 2.5e-3, 123456.789, 9.99999999999, -7.25}) {
    const auto parsed = parse_double(format_double(v, 17));
    ASSERT_TRUE(parsed.has_value()) << v;
    EXPECT_EQ(*parsed, v) << v;
  }
}

TEST(FormatDoubleTest, ExtremeValuesAndPrecisionClamp) {
  // Fixed notation of 1e308 spans ~309 digits before the point; the
  // formatter must hold it even at the clamped maximum precision instead
  // of falling back to scientific notation or truncating.
  const std::string big = format_double(1e308, 800);
  EXPECT_EQ(big.find('e'), std::string::npos);
  EXPECT_GT(big.size(), 300u);
  // Out-of-range precisions clamp instead of overflowing the buffer.
  EXPECT_EQ(format_double(2.75, -3), "3");
  EXPECT_EQ(format_double(-0.0, 2), "-0.00");
}

}  // namespace
}  // namespace commsched
