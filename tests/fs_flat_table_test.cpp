// Differential test for fs::FlatTable.
//
// std::unordered_map is the oracle. Seeded random sequences of inserts,
// finds, erases, full scans and clears drive both, and after every step the
// two must agree on what they hold. The hash functions crowd keys into a
// few home buckets, so runs grow long, wrap past the last bucket and hold
// keys with different homes, which is where backward-shift deletion and
// growth can go wrong.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fs/flat_table.h"
#include "sim/random.h"

namespace pacon::fs {
namespace {

struct Entry {
  std::uint64_t hash = 0;
  std::uint64_t key = 0;
  std::uint64_t value = 0;
};
using Table = FlatTable<Entry>;

// An entry that keeps 32 bits of the hash, as the recency cache's index does.
struct FoldedEntry {
  std::uint32_t hash = 0;
  std::uint64_t key = 0;
  std::uint64_t value = 0;
};

// The table homes a hash at the top bits of hash * kSpread. Multiplying by
// the inverse of kSpread picks a hash whose home is wherever a test wants.
constexpr std::uint64_t kSpread = 0x9E3779B97F4A7C15ull;
constexpr std::uint64_t inverse(std::uint64_t odd) {
  std::uint64_t x = odd;  // correct to 3 bits; each Newton step doubles that
  for (int i = 0; i < 5; ++i) x *= 2 - odd * x;
  return x;
}
constexpr std::uint64_t kUnspread = inverse(kSpread);
static_assert(kSpread * kUnspread == 1);

/// Distinct hashes (for i < 2^24) homed at the last bucket at every size.
constexpr std::uint64_t last_bucket_hash(std::uint64_t i) {
  return (~std::uint64_t{0} - i) * kUnspread;
}
/// Distinct hashes (for i < 2^24) homed at the middle bucket at every size.
constexpr std::uint64_t middle_bucket_hash(std::uint64_t i) {
  return ((std::uint64_t{1} << 63) + i) * kUnspread;
}

template <typename E>
E* find(FlatTable<E>& table, std::uint64_t key, std::uint64_t hash) {
  return table.find(hash, [key](const E& e) { return e.key == key; });
}

std::vector<std::uint64_t> keys_in_bucket_order(const Table& table) {
  std::vector<std::uint64_t> keys;
  table.for_each([&](const Entry& e) { keys.push_back(e.key); });
  return keys;
}

enum class Homes { spread, last_bucket, middle_and_spread };

std::uint64_t hash_of(Homes homes, std::uint64_t key) {
  // Keys 0 and 1 hash to 0 and 1, which the table stores alike.
  if (key < 2) return key;
  const std::uint64_t spread = sim::Rng::hash("key" + std::to_string(key));
  switch (homes) {
    case Homes::spread:
      return spread;
    case Homes::last_bucket:
      return last_bucket_hash(key % 5);  // five hashes, one home
    case Homes::middle_and_spread:
      return key % 2 == 0 ? middle_bucket_hash(key % 7) : spread;
  }
  return spread;
}

std::string describe(Homes homes) {
  switch (homes) {
    case Homes::spread: return "spread hashes";
    case Homes::last_bucket: return "hashes homed at the last bucket";
    case Homes::middle_and_spread: return "half homed mid-table, half spread";
  }
  return "";
}

// Runs 20,000 seeded random operations on a table and an unordered_map and
// checks after every step that they agree. Erases outnumber inserts in some
// stretches and clears are rare, so the table both grows and shrinks.
template <typename E>
void drive(Homes homes, std::uint64_t universe) {
  const std::string label = describe(homes) + ", universe " + std::to_string(universe) + ", " +
                            std::to_string(8 * sizeof(E::hash)) + "-bit hashes";
  FlatTable<E> table;
  std::unordered_map<std::uint64_t, std::uint64_t> oracle;
  sim::Rng rng(universe * 31 + static_cast<std::uint64_t>(homes));
  std::uint64_t value = 0;
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t roll = rng.uniform(100);
    const std::uint64_t key = rng.uniform(universe);
    const std::uint64_t hash = hash_of(homes, key);
    if (roll < 45) {
      ++value;
      const auto [entry, inserted] = table.try_emplace(
          hash, [key](const E& e) { return e.key == key; }, [key] { return E{.key = key}; });
      entry->value = value;
      const bool oracle_inserted = oracle.insert_or_assign(key, value).second;
      ASSERT_EQ(inserted, oracle_inserted) << label << ", step " << step;
    } else if (roll < 75) {
      const E* entry = find(table, key, hash);
      const auto it = oracle.find(key);
      ASSERT_EQ(entry != nullptr, it != oracle.end()) << label << ", step " << step;
      if (entry != nullptr) {
        ASSERT_EQ(entry->value, it->second) << label << ", step " << step;
      }
    } else if (roll < 95) {
      if (E* entry = find(table, key, hash)) table.erase(entry);
      oracle.erase(key);
    } else if (roll < 99) {
      std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;
      table.for_each([&](const E& e) { seen.emplace_back(e.key, e.value); });
      std::vector<std::pair<std::uint64_t, std::uint64_t>> want(oracle.begin(), oracle.end());
      std::ranges::sort(seen);
      std::ranges::sort(want);
      ASSERT_EQ(seen, want) << label << ", step " << step;
    } else if (rng.uniform(10) == 0) {
      const std::size_t buckets = table.bucket_count();
      table.clear();
      oracle.clear();
      ASSERT_EQ(table.bucket_count(), buckets) << label << ", step " << step;
    }
    ASSERT_EQ(table.size(), oracle.size()) << label << ", step " << step;
  }
}

TEST(FlatTableDiff, MatchesUnorderedMap) {
  for (const Homes homes : {Homes::spread, Homes::last_bucket, Homes::middle_and_spread}) {
    for (const std::uint64_t universe : {4, 13, 400}) {
      drive<Entry>(homes, universe);
      drive<FoldedEntry>(homes, universe);
    }
  }
}

TEST(FlatTable, RunWrapsPastTheLastBucket) {
  Table table;
  for (std::uint64_t k = 0; k < 5; ++k) table.insert(last_bucket_hash(k), Entry{.key = k});
  ASSERT_EQ(table.bucket_count(), 8u);
  // Key 0 sits in the last bucket; the rest of its run wrapped to the front.
  EXPECT_EQ(keys_in_bucket_order(table), (std::vector<std::uint64_t>{1, 2, 3, 4, 0}));
  table.erase(find(table, 0, last_bucket_hash(0)));
  EXPECT_EQ(keys_in_bucket_order(table), (std::vector<std::uint64_t>{2, 3, 4, 1}));
  for (std::uint64_t k = 1; k < 5; ++k) EXPECT_NE(find(table, k, last_bucket_hash(k)), nullptr);
  EXPECT_EQ(find(table, 0, last_bucket_hash(0)), nullptr);
}

TEST(FlatTable, EraseInTheMiddleOfALongRunKeepsEveryKeyReachable) {
  // One run from bucket 4 around to bucket 0: keys 0-2 homed at 4, key 100
  // homed at 7 and key 101 homed at 4, which wrapped. Erasing key 1 shifts
  // key 2 and key 101 back, but key 100 must stay at its home.
  Table table;
  for (std::uint64_t k = 0; k < 3; ++k) table.insert(middle_bucket_hash(k), Entry{.key = k});
  table.insert(last_bucket_hash(0), Entry{.key = 100});
  table.insert(middle_bucket_hash(3), Entry{.key = 101});
  ASSERT_EQ(table.bucket_count(), 8u);
  EXPECT_EQ(keys_in_bucket_order(table), (std::vector<std::uint64_t>{101, 0, 1, 2, 100}));
  table.erase(find(table, 1, middle_bucket_hash(1)));
  EXPECT_EQ(keys_in_bucket_order(table), (std::vector<std::uint64_t>{0, 2, 101, 100}));
  EXPECT_NE(find(table, 100, last_bucket_hash(0)), nullptr);
  EXPECT_NE(find(table, 101, middle_bucket_hash(3)), nullptr);
  table.erase(find(table, 0, middle_bucket_hash(0)));
  table.erase(find(table, 2, middle_bucket_hash(2)));
  EXPECT_NE(find(table, 100, last_bucket_hash(0)), nullptr);
  EXPECT_NE(find(table, 101, middle_bucket_hash(3)), nullptr);
  EXPECT_EQ(table.size(), 2u);
}

TEST(FlatTable, GrowthKeepsKeysThatShareAHomeBucket) {
  constexpr std::uint64_t kKeys = 1000;
  Table table;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    table.insert(last_bucket_hash(k), Entry{.key = k, .value = k * 3});
  }
  EXPECT_EQ(table.bucket_count(), 2048u);
  for (std::uint64_t k = 0; k < kKeys; k += 2) table.erase(find(table, k, last_bucket_hash(k)));
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const Entry* entry = find(table, k, last_bucket_hash(k));
    ASSERT_EQ(entry != nullptr, k % 2 == 1) << "key " << k;
    if (entry != nullptr) {
      EXPECT_EQ(entry->value, k * 3);
    }
  }
}

TEST(FlatTable, EraseHalvesTheBucketArrayOnceLessThanAnEighthFull) {
  Table table;
  for (std::uint64_t k = 2; k < 102; ++k) table.insert(hash_of(Homes::spread, k), Entry{.key = k});
  ASSERT_EQ(table.bucket_count(), 256u);
  std::uint64_t k = 2;
  for (; table.size() > 32; ++k) table.erase(find(table, k, hash_of(Homes::spread, k)));
  EXPECT_EQ(table.bucket_count(), 256u);  // 32 of 256 is an eighth
  table.erase(find(table, k, hash_of(Homes::spread, k)));
  ++k;
  EXPECT_EQ(table.bucket_count(), 128u);
  for (std::uint64_t left = k; left < 102; ++left) {
    EXPECT_NE(find(table, left, hash_of(Homes::spread, left)), nullptr) << "key " << left;
  }
  for (; k < 102; ++k) table.erase(find(table, k, hash_of(Homes::spread, k)));
  EXPECT_EQ(table.bucket_count(), 8u);
  EXPECT_TRUE(table.empty());
}

TEST(FlatTable, ClearKeepsTheBucketArray) {
  Table table;
  for (std::uint64_t k = 2; k < 102; ++k) table.insert(hash_of(Homes::spread, k), Entry{.key = k});
  const std::size_t buckets = table.bucket_count();
  EXPECT_EQ(buckets, 256u);
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.bucket_count(), buckets);
  EXPECT_TRUE(keys_in_bucket_order(table).empty());
  EXPECT_EQ(find(table, 5, hash_of(Homes::spread, 5)), nullptr);
  for (std::uint64_t k = 2; k < 102; ++k) table.insert(hash_of(Homes::spread, k), Entry{.key = k});
  EXPECT_EQ(table.bucket_count(), buckets);
  EXPECT_EQ(table.size(), 100u);
}

}  // namespace
}  // namespace pacon::fs
