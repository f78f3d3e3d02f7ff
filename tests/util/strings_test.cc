#include "util/strings.h"

#include <gtest/gtest.h>

#include <charconv>

#include "util/rng.h"

namespace dpm::util {
namespace {

TEST(Split, DropsEmptyFields) {
  auto v = split("  a\tb  c ", " \t");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], "a");
  EXPECT_EQ(v[1], "b");
  EXPECT_EQ(v[2], "c");
}

TEST(SplitKeepEmpty, PreservesPositions) {
  auto v = split_keep_empty("a,,b,", ',');
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], "a");
  EXPECT_EQ(v[1], "");
  EXPECT_EQ(v[2], "b");
  EXPECT_EQ(v[3], "");
}

TEST(Trim, RemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  x y \t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(ParseInt, StrictWholeString) {
  EXPECT_EQ(parse_int("123").value(), 123);
  EXPECT_EQ(parse_int("-5").value(), -5);
  EXPECT_FALSE(parse_int("12x").has_value());
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int(" 12").has_value());
}

/// The reference: std::from_chars over the whole string.
std::optional<std::int64_t> from_chars_whole(std::string_view s) {
  std::int64_t v = 0;
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (s.empty() || ec != std::errc{} || p != s.data() + s.size()) {
    return std::nullopt;
  }
  return v;
}

TEST(ParseInt, MatchesFromChars) {
  const std::string edges[] = {
      "0", "-0", "007", "-007", "+5", "-", "--1", "", " 1", "1 ", "1e3",
      "0x10", "9223372036854775807", "9223372036854775808",
      "-9223372036854775808", "-9223372036854775809",
      "99999999999999999999", "18446744073709551616",
      "000000000000000000000000000000042",
      "-00000000000000000000009223372036854775808",
      "1234567890123456789", "12345678901234567890", ":", "/",
  };
  for (const std::string& s : edges) {
    EXPECT_EQ(parse_int(s), from_chars_whole(s)) << '"' << s << '"';
  }
  // Seeded random strings over digits, signs and a few other bytes.
  Rng rng(7);
  constexpr char kAlphabet[] = "0123456789-+ x/:";
  for (int i = 0; i < 20000; ++i) {
    std::string s;
    const auto len = rng.uniform(0, 24);
    for (std::int64_t k = 0; k < len; ++k) {
      const bool digit = rng.bernoulli(0.85);
      s += digit ? static_cast<char>('0' + rng.uniform(0, 9))
                 : kAlphabet[rng.uniform(10, sizeof kAlphabet - 2)];
    }
    ASSERT_EQ(parse_int(s), from_chars_whole(s)) << '"' << s << '"';
  }
}

TEST(ParseIntBase, Hex) {
  EXPECT_EQ(parse_int_base("ff", 16).value(), 255);
  EXPECT_EQ(parse_int_base("-10", 16).value(), -16);
  EXPECT_FALSE(parse_int_base("fg", 16).has_value());
}

TEST(Strprintf, Formats) {
  EXPECT_EQ(strprintf("%d-%s", 4, "x"), "4-x");
  EXPECT_EQ(strprintf("%s", ""), "");
}

TEST(IsWord, PaperParameterCharacters) {
  EXPECT_TRUE(is_word("foo"));
  EXPECT_TRUE(is_word("a/b.c"));
  EXPECT_TRUE(is_word("-send"));
  EXPECT_TRUE(is_word("proc_1"));
  EXPECT_FALSE(is_word(""));
  EXPECT_FALSE(is_word("a b"));
  EXPECT_FALSE(is_word("a*b"));
}

TEST(Join, WithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(ToLower, Basic) { EXPECT_EQ(to_lower("AbC"), "abc"); }

}  // namespace
}  // namespace dpm::util
