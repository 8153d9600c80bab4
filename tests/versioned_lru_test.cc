// VersionedLru: recency order, capacity, coexisting versions and the
// version sweep, on the map itself (the engine and ResultCache tests reach
// it only through their own counters).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/serve/versioned_lru.h"

namespace dissodb {
namespace {

/// ("key@version", value) of every entry, most recently used first.
using Listing = std::vector<std::pair<std::string, int>>;

Listing Order(const VersionedLru<int>& lru) {
  Listing out;
  for (const auto& e : lru.entries()) {
    out.emplace_back(e.key + "@" + std::to_string(e.version), e.value);
  }
  return out;
}

TEST(VersionedLruTest, EntriesListMostRecentlyUsedFirst) {
  VersionedLru<int> lru(4);
  lru.Put("a", 1, 10);
  lru.Put("b", 1, 20);
  lru.Put("c", 1, 30);
  EXPECT_EQ(Order(lru), (Listing{{"c@1", 30}, {"b@1", 20}, {"a@1", 10}}));

  ASSERT_NE(lru.Find("a", 1), nullptr);  // a refreshed
  EXPECT_EQ(Order(lru), (Listing{{"a@1", 10}, {"c@1", 30}, {"b@1", 20}}));

  lru.Put("b", 1, 21);  // replaced in place and refreshed
  EXPECT_EQ(Order(lru), (Listing{{"b@1", 21}, {"a@1", 10}, {"c@1", 30}}));
  EXPECT_EQ(lru.size(), 3u);
  EXPECT_EQ(lru.evictions(), 0u);

  // A miss leaves the order alone.
  EXPECT_EQ(lru.Find("c", 2), nullptr);
  EXPECT_EQ(Order(lru), (Listing{{"b@1", 21}, {"a@1", 10}, {"c@1", 30}}));

  lru.Put("d", 1, 40);
  lru.Put("e", 1, 50);  // past capacity: evicts c, the least recently used
  EXPECT_EQ(Order(lru),
            (Listing{{"e@1", 50}, {"d@1", 40}, {"b@1", 21}, {"a@1", 10}}));
  EXPECT_EQ(lru.evictions(), 1u);
}

TEST(VersionedLruTest, CapacityZeroStoresNothing) {
  VersionedLru<int> lru(0);
  lru.Put("k", 1, 10);
  EXPECT_EQ(lru.Find("k", 1), nullptr);
  EXPECT_EQ(lru.size(), 0u);
  EXPECT_TRUE(lru.entries().empty());
  EXPECT_EQ(lru.evictions(), 0u);
}

TEST(VersionedLruTest, TwoVersionsOfOneKeyCoexist) {
  VersionedLru<int> lru(4);
  lru.Put("k", 1, 10);
  lru.Put("k", 2, 20);
  EXPECT_EQ(lru.size(), 2u);
  ASSERT_NE(lru.Find("k", 1), nullptr);
  EXPECT_EQ(*lru.Find("k", 1), 10);
  ASSERT_NE(lru.Find("k", 2), nullptr);
  EXPECT_EQ(*lru.Find("k", 2), 20);
  EXPECT_EQ(lru.Find("k", 3), nullptr);
}

TEST(VersionedLruTest, EvictOlderThanReturnsAndCountsWhatItDrops) {
  VersionedLru<int> lru(8);
  lru.Put("a", 1, 10);
  lru.Put("b", 3, 30);
  lru.Put("c", 2, 20);
  lru.Put("a", 3, 31);
  EXPECT_EQ(lru.EvictOlderThan(3), 2u);  // a@1 and c@2
  EXPECT_EQ(lru.evictions(), 2u);
  EXPECT_EQ(Order(lru), (Listing{{"a@3", 31}, {"b@3", 30}}));
  EXPECT_EQ(lru.Find("a", 1), nullptr);
  EXPECT_EQ(lru.Find("c", 2), nullptr);

  // Storing an older version again is swept again.
  lru.Put("c", 2, 22);
  EXPECT_EQ(lru.EvictOlderThan(3), 1u);
  EXPECT_EQ(lru.evictions(), 3u);
  EXPECT_EQ(lru.size(), 2u);
}

TEST(VersionedLruTest, EvictOlderThanKeepsEverythingWhenNothingIsOlder) {
  VersionedLru<int> lru(8);
  EXPECT_EQ(lru.EvictOlderThan(5), 0u);  // empty
  lru.Put("a", 5, 50);
  lru.Put("b", 7, 70);
  EXPECT_EQ(lru.EvictOlderThan(5), 0u);
  EXPECT_EQ(lru.evictions(), 0u);
  EXPECT_EQ(Order(lru), (Listing{{"b@7", 70}, {"a@5", 50}}));
}

}  // namespace
}  // namespace dissodb
