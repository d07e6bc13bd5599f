#include "util/index_set.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

#include "util/rng.hpp"

namespace commsched {
namespace {

TEST(IndexSetTest, StartsEmpty) {
  IndexSet s(100);
  EXPECT_EQ(s.universe(), 100u);
  EXPECT_EQ(s.size(), 0u);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.first(), IndexSet::npos);
  for (std::size_t r = 0; r < 100; ++r) EXPECT_FALSE(s.contains(r));
}

TEST(IndexSetTest, ZeroUniverse) {
  IndexSet s(0);
  EXPECT_EQ(s.universe(), 0u);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.first(), IndexSet::npos);
}

TEST(IndexSetTest, InsertEraseSingle) {
  IndexSet s(10);
  s.insert(7);
  EXPECT_TRUE(s.contains(7));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.first(), 7u);
  EXPECT_EQ(s.next(6), 7u);
  EXPECT_EQ(s.next(7), IndexSet::npos);
  s.erase(7);
  EXPECT_FALSE(s.contains(7));
  EXPECT_TRUE(s.empty());
}

TEST(IndexSetTest, InOrderTraversal) {
  IndexSet s(1000);
  const std::vector<std::size_t> elems = {3, 63, 64, 65, 511, 512, 999};
  // Insert out of order; traversal must still be ascending.
  s.insert(512);
  s.insert(3);
  s.insert(999);
  s.insert(64);
  s.insert(63);
  s.insert(65);
  s.insert(511);
  std::vector<std::size_t> seen;
  for (std::size_t r = s.first(); r != IndexSet::npos; r = s.next(r))
    seen.push_back(r);
  EXPECT_EQ(seen, elems);
}

TEST(IndexSetTest, ResetClears) {
  IndexSet s(100);
  s.insert(5);
  s.insert(50);
  s.reset(30);
  EXPECT_EQ(s.universe(), 30u);
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.contains(5));
}

TEST(IndexSetTest, WordBoundaryNext) {
  // next() must cross 64-bit word and summary-level boundaries correctly.
  IndexSet s(64 * 64 + 1);
  s.insert(0);
  s.insert(64 * 64);  // lives in the last word, different summary subtree
  EXPECT_EQ(s.next(0), static_cast<std::size_t>(64 * 64));
  EXPECT_EQ(s.next(63), static_cast<std::size_t>(64 * 64));
  EXPECT_EQ(s.next(64 * 64), IndexSet::npos);
}

TEST(IndexSetTest, WordExposesMembershipBits) {
  // Two full words and a partial third.
  IndexSet s(130);
  for (const std::size_t r : {0u, 5u, 63u, 64u, 129u}) s.insert(r);
  EXPECT_EQ(s.word(0), (std::uint64_t{1} << 0) | (std::uint64_t{1} << 5) |
                           (std::uint64_t{1} << 63));
  EXPECT_EQ(s.word(1), std::uint64_t{1});
  EXPECT_EQ(s.word(2), std::uint64_t{1} << 1);
  s.erase(63);
  s.erase(64);
  EXPECT_EQ(s.word(0), (std::uint64_t{1} << 0) | (std::uint64_t{1} << 5));
  EXPECT_EQ(s.word(1), std::uint64_t{0});
}

// Differential fuzz: random insert/erase churn mirrored into a std::set,
// checking size, membership, first() and full in-order traversal after
// every batch. Several universe sizes straddle the 64^k summary-tree
// breakpoints (1 level, 2 levels, 3 levels).
TEST(IndexSetTest, FuzzAgainstStdSet) {
  for (const std::size_t universe : {1u, 64u, 65u, 4096u, 4097u, 20000u}) {
    Rng rng(0xC0FFEE ^ universe);
    IndexSet fast(universe);
    std::set<std::size_t> ref;
    for (int step = 0; step < 2000; ++step) {
      const auto r = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(universe) - 1));
      if (ref.count(r) != 0) {
        fast.erase(r);
        ref.erase(r);
      } else {
        fast.insert(r);
        ref.insert(r);
      }
      ASSERT_EQ(fast.size(), ref.size());
      ASSERT_EQ(fast.contains(r), ref.count(r) != 0);
      ASSERT_EQ(fast.first(),
                ref.empty() ? IndexSet::npos : *ref.begin());
      if (step % 100 == 0) {  // full traversal is O(n); sample it
        std::vector<std::size_t> seen;
        for (std::size_t x = fast.first(); x != IndexSet::npos;
             x = fast.next(x))
          seen.push_back(x);
        ASSERT_EQ(seen, std::vector<std::size_t>(ref.begin(), ref.end()));
        std::vector<std::uint64_t> words((universe + 63) / 64, 0);
        for (const std::size_t x : ref)
          words[x / 64] |= std::uint64_t{1} << (x % 64);
        for (std::size_t w = 0; w < words.size(); ++w)
          ASSERT_EQ(fast.word(w), words[w]) << "word " << w;
        // next() from an absent rank lands on the successor.
        const auto probe = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(universe) - 1));
        const auto it = ref.upper_bound(probe);
        ASSERT_EQ(fast.next(probe),
                  it == ref.end() ? IndexSet::npos : *it);
      }
    }
  }
}

}  // namespace
}  // namespace commsched
