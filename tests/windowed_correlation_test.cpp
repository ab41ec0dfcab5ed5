// WindowedCorrelation: the sliding-window counts behind the online engine's
// epochs, checked after every add against a brute-force recount of the last
// `window` rows — frequencies, pair counts, adjacency rows, the live-pair
// memory bound, and the touched set an epoch drains.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "solver/windowed_correlation.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dpg {
namespace {

using Row = std::vector<ItemId>;
using PairCounts = std::map<std::pair<ItemId, ItemId>, std::size_t>;

Row random_row(Rng& rng, std::size_t item_count, std::size_t max_width) {
  Row row;
  const std::size_t width = rng.next_below(max_width + 1);  // may be empty
  for (std::size_t w = 0; w < width; ++w) {
    row.push_back(static_cast<ItemId>(rng.next_below(item_count)));
  }
  std::sort(row.begin(), row.end());
  row.erase(std::unique(row.begin(), row.end()), row.end());
  return row;
}

PairCounts recount_pairs(std::span<const Row> rows) {
  PairCounts counts;
  for (const Row& row : rows) {
    for (std::size_t x = 0; x < row.size(); ++x) {
      for (std::size_t y = x + 1; y < row.size(); ++y) {
        ++counts[{row[x], row[y]}];
      }
    }
  }
  return counts;
}

void expect_matches_recount(const WindowedCorrelation& window,
                            std::span<const Row> rows, std::size_t item_count) {
  std::vector<std::size_t> frequency(item_count, 0);
  for (const Row& row : rows) {
    for (const ItemId item : row) ++frequency[item];
  }
  const PairCounts pairs = recount_pairs(rows);
  ASSERT_EQ(window.size(), rows.size());
  for (ItemId a = 0; a < item_count; ++a) {
    ASSERT_EQ(window.frequency(a), frequency[a]) << "item " << a;
    // The adjacency row holds exactly a's live pairs, each with its count.
    std::map<ItemId, std::size_t> row;
    for (const WindowedCorrelation::Neighbor& n : window.neighbors(a)) {
      ASSERT_GT(n.co, 0u);
      ASSERT_TRUE(row.emplace(n.item, n.co).second) << "duplicate entry";
    }
    std::map<ItemId, std::size_t> want;
    for (const auto& [pair, co] : pairs) {
      if (pair.first == a) want.emplace(pair.second, co);
      if (pair.second == a) want.emplace(pair.first, co);
    }
    ASSERT_EQ(row, want) << "item " << a;
    for (ItemId b = 0; b < item_count; ++b) {
      if (a == b) continue;
      const auto it = pairs.find(std::minmax(a, b));
      const std::size_t co = it == pairs.end() ? 0 : it->second;
      ASSERT_EQ(window.co_frequency(a, b), co) << a << "," << b;
      ASSERT_EQ(window.jaccard(a, b),
                jaccard_similarity(frequency[a], frequency[b], co));
    }
  }
}

TEST(WindowedCorrelation, MatchesABruteForceRecountOfTheLastWindowRows) {
  for (const std::size_t window_size : {1u, 3u, 17u}) {
    constexpr std::size_t kItems = 12;
    Rng rng(window_size * 7 + 1);
    WindowedCorrelation window(kItems, window_size);
    std::vector<Row> history;
    for (std::size_t i = 0; i < 300; ++i) {
      history.push_back(random_row(rng, kItems, 5));
      window.add(history.back());
      const std::size_t live = std::min(history.size(), window_size);
      expect_matches_recount(
          window, std::span<const Row>(history).last(live), kItems);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(WindowedCorrelation, TouchedHoldsTheAddedAndEvictedItemsOnce) {
  WindowedCorrelation window(10, 2);
  window.add(Row{1, 2});
  window.add(Row{2, 3});
  EXPECT_EQ(std::set<ItemId>(window.touched().begin(), window.touched().end()),
            (std::set<ItemId>{1, 2, 3}));
  EXPECT_EQ(window.touched().size(), 3u);  // item 2 listed once
  window.clear_touched();
  EXPECT_TRUE(window.touched().empty());

  window.add(Row{7});  // evicts {1, 2}
  EXPECT_EQ(std::set<ItemId>(window.touched().begin(), window.touched().end()),
            (std::set<ItemId>{1, 2, 7}));
  window.clear_touched();
  window.add(Row{});  // evicts {2, 3}: an empty row still slides
  EXPECT_EQ(std::set<ItemId>(window.touched().begin(), window.touched().end()),
            (std::set<ItemId>{2, 3}));
  EXPECT_EQ(window.co_frequency(2, 3), 0u);
  EXPECT_TRUE(window.neighbors(2).empty());
}

TEST(WindowedCorrelation, MemoryTracksLivePairsNotPairsEverSeen) {
  // A stream that cycles through every pair of 40 items: 780 pairs seen,
  // never more than window × 1 alive at once.
  constexpr std::size_t kItems = 40;
  constexpr std::size_t kWindow = 5;
  WindowedCorrelation window(kItems, kWindow);
  std::size_t max_entries = 0;
  for (ItemId a = 0; a < kItems; ++a) {
    for (ItemId b = a + 1; b < kItems; ++b) {
      window.add(Row{a, b});
      std::size_t entries = 0;
      for (ItemId i = 0; i < kItems; ++i) entries += window.neighbors(i).size();
      max_entries = std::max(max_entries, entries);
    }
  }
  EXPECT_EQ(max_entries, 2 * kWindow);  // each live pair sits in two rows
}

TEST(WindowedCorrelation, GrowsTheUniverseAndRejectsAnEmptyWindow) {
  EXPECT_THROW(WindowedCorrelation(4, 0), InvalidArgument);
  WindowedCorrelation window(2, 4);
  window.ensure_item_count(6);
  EXPECT_EQ(window.item_count(), 6u);
  window.add(Row{0, 5});
  EXPECT_EQ(window.co_frequency(5, 0), 1u);
  EXPECT_EQ(window.jaccard(0, 5), 1.0);
  window.ensure_item_count(3);  // never shrinks
  EXPECT_EQ(window.item_count(), 6u);
}

}  // namespace
}  // namespace dpg
