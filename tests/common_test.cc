// Unit tests for the common module: symbol interning, dynamic bitsets and
// string helpers.
#include <gtest/gtest.h>

#include <set>

#include "common/bitset.h"
#include "common/strings.h"
#include "common/symbol_table.h"

namespace wave {
namespace {

TEST(SymbolTableTest, InternIsIdempotent) {
  SymbolTable table;
  SymbolId a = table.Intern("laptop");
  SymbolId b = table.Intern("desktop");
  EXPECT_NE(a, b);
  EXPECT_EQ(table.Intern("laptop"), a);
  EXPECT_EQ(table.Name(a), "laptop");
  EXPECT_EQ(table.Name(b), "desktop");
  EXPECT_EQ(table.size(), 2);
}

TEST(SymbolTableTest, FindDoesNotIntern) {
  SymbolTable table;
  EXPECT_EQ(table.Find("missing"), kInvalidSymbol);
  EXPECT_EQ(table.size(), 0);
  SymbolId a = table.Intern("present");
  EXPECT_EQ(table.Find("present"), a);
}

TEST(SymbolTableTest, FreshSymbolsNeverCollide) {
  SymbolTable table;
  table.Intern("$x.0");  // adversarial: looks like a fresh name
  std::set<SymbolId> seen;
  for (int i = 0; i < 100; ++i) {
    SymbolId v = table.MintFresh("x");
    EXPECT_TRUE(seen.insert(v).second);
    EXPECT_TRUE(table.IsFresh(v));
  }
  EXPECT_FALSE(table.IsFresh(table.Intern("plain")));
}

/// `bits` as `1`/`0`, bit 0 first, read through `Test`.
std::string Render(const DynamicBitset& bits) {
  std::string s;
  for (int i = 0; i < bits.size(); ++i) s.push_back(bits.Test(i) ? '1' : '0');
  return s;
}

TEST(BitsetTest, SetTestReset) {
  // Only counting sets and resets bits: a fresh bitset is clear, and each
  // increment sets the lowest clear bit and resets every bit below it.
  DynamicBitset bits(130);
  EXPECT_EQ(bits.size(), 130);
  EXPECT_EQ(Render(bits), std::string(130, '0'));
  for (const char* low : {"100", "010", "110", "001"}) {
    ASSERT_TRUE(bits.Increment());
    EXPECT_EQ(Render(bits), low + std::string(127, '0'));
  }
}

TEST(BitsetTest, IncrementEnumeratesAllSubsets) {
  // The paper's core enumeration: the bitmap is a binary counter.
  DynamicBitset bits(4);
  std::set<std::string> seen = {Render(bits)};
  while (bits.Increment()) {
    EXPECT_TRUE(seen.insert(Render(bits)).second) << "duplicate subset";
  }
  EXPECT_EQ(seen.size(), 16u);  // 2^4
  EXPECT_EQ(Render(bits), "0000") << "wrap-around must return to all-zero";
}

TEST(BitsetTest, IncrementOnEmptyBitsetTerminates) {
  DynamicBitset bits(0);
  EXPECT_EQ(bits.size(), 0);
  EXPECT_FALSE(bits.Increment());
}

TEST(StringsTest, JoinAndSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  std::vector<std::string> parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y\t\n"), "x y");
  EXPECT_EQ(StripWhitespace("\r\n"), "");
  EXPECT_EQ(StripWhitespace("abc"), "abc");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("prefix_rest", "prefix"));
  EXPECT_FALSE(StartsWith("pre", "prefix"));
}

TEST(StringsTest, NumbersParseOnlyAsWholeStringsInRange) {
  int64_t i = 7;
  EXPECT_TRUE(ParseInt("-1", -1, 62, &i));
  EXPECT_EQ(i, -1);
  for (const char* bad : {"", "abc", "12x", " 5", "63", "-2",
                          "99999999999999999999"}) {
    EXPECT_FALSE(ParseInt(bad, -1, 62, &i)) << bad;
  }
  EXPECT_EQ(i, -1) << "a rejected value leaves the output untouched";

  double d = 0;
  EXPECT_TRUE(ParseDouble("0.05", 0, 1e9, &d));
  EXPECT_DOUBLE_EQ(d, 0.05);
  for (const char* bad : {"", "abc", "1.5s", " 1", "-0.5", "inf", "nan",
                          "1e10"}) {
    EXPECT_FALSE(ParseDouble(bad, 0, 1e9, &d)) << bad;
  }
  EXPECT_DOUBLE_EQ(d, 0.05);
}

}  // namespace
}  // namespace wave
