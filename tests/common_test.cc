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

TEST(BitsetTest, SetTestReset) {
  DynamicBitset bits(130);
  EXPECT_EQ(bits.size(), 130);
  EXPECT_TRUE(bits.None());
  bits.Set(0);
  bits.Set(64);
  bits.Set(129);
  EXPECT_TRUE(bits.Test(0));
  EXPECT_TRUE(bits.Test(64));
  EXPECT_TRUE(bits.Test(129));
  EXPECT_FALSE(bits.Test(1));
  EXPECT_EQ(bits.Count(), 3);
  bits.Set(64, false);
  EXPECT_FALSE(bits.Test(64));
  bits.Reset();
  EXPECT_TRUE(bits.None());
}

TEST(BitsetTest, IncrementEnumeratesAllSubsets) {
  // The paper's core enumeration: the bitmap is a binary counter.
  DynamicBitset bits(4);
  std::set<std::string> seen = {bits.ToString()};
  while (bits.Increment()) {
    EXPECT_TRUE(seen.insert(bits.ToString()).second) << "duplicate subset";
  }
  EXPECT_EQ(seen.size(), 16u);  // 2^4
  EXPECT_TRUE(bits.None()) << "wrap-around must return to all-zero";
}

TEST(BitsetTest, IncrementOnEmptyBitsetTerminates) {
  DynamicBitset bits(0);
  EXPECT_FALSE(bits.Increment());
}

TEST(BitsetTest, AppendConcatenatesBits) {
  DynamicBitset a(3);
  a.Set(1);
  DynamicBitset b(2);
  b.Set(0);
  a.Append(b);
  EXPECT_EQ(a.ToString(), "01010");
}

TEST(BitsetTest, BytesAreCanonical) {
  DynamicBitset a(9), b(9);
  a.Set(8);
  b.Set(8);
  EXPECT_EQ(a.ToBytes(), b.ToBytes());
  b.Set(0);
  EXPECT_NE(a.ToBytes(), b.ToBytes());
  EXPECT_EQ(a.ToBytes().size(), 2u);
}

TEST(BitsetTest, HashDiffersAcrossContents) {
  DynamicBitset a(64), b(64);
  b.Set(17);
  EXPECT_NE(a.Hash(), b.Hash());
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
