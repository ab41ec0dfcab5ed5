#include "solver/windowed_correlation.hpp"

#include <cstdint>
#include <limits>

#include "util/error.hpp"

namespace dpg {

WindowedCorrelation::WindowedCorrelation(std::size_t item_count,
                                         std::size_t window)
    : window_(window), ring_(window) {
  require(window > 0, "WindowedCorrelation: window must be >= 1");
  require(window <= std::numeric_limits<std::uint32_t>::max(),
          "WindowedCorrelation: window must fit a 32-bit count");
  ensure_item_count(item_count);
}

void WindowedCorrelation::ensure_item_count(std::size_t item_count) {
  if (item_count > items_.size()) items_.resize(item_count);
}

std::size_t WindowedCorrelation::co_frequency(ItemId a,
                                              ItemId b) const noexcept {
  // Scan the shorter row; the pair sits in both.
  const bool a_shorter =
      items_[a].neighbors.size() <= items_[b].neighbors.size();
  const std::vector<Neighbor>& row = items_[a_shorter ? a : b].neighbors;
  const ItemId other = a_shorter ? b : a;
  for (const Neighbor& n : row) {
    if (n.item == other) return n.co;
  }
  return 0;
}

void WindowedCorrelation::add(std::span<const ItemId> items) {
  std::vector<ItemId>& slot = ring_[head_];
  if (size_ == window_) evict(slot);
  if (items.size() > slot.capacity()) ++alloc_events_;
  slot.assign(items.begin(), items.end());
  bump(items);
  if (size_ < window_) ++size_;
  head_ = head_ + 1 == window_ ? 0 : head_ + 1;
}

void WindowedCorrelation::clear_touched() noexcept {
  for (const ItemId item : touched_) items_[item].touched = false;
  touched_.clear();
}

void WindowedCorrelation::touch(ItemId item) {
  if (items_[item].touched) return;
  items_[item].touched = true;
  touched_.push_back(item);
}

void WindowedCorrelation::increment(ItemId owner, ItemId other) {
  std::vector<Neighbor>& row = items_[owner].neighbors;
  for (Neighbor& n : row) {
    if (n.item == other) {
      ++n.co;
      return;
    }
  }
  row.push_back(Neighbor{other, 1});
}

void WindowedCorrelation::decrement(ItemId owner, ItemId other) {
  std::vector<Neighbor>& row = items_[owner].neighbors;
  for (Neighbor& n : row) {
    if (n.item == other) {
      if (--n.co == 0) {
        n = row.back();  // order within a row is unspecified
        row.pop_back();
      }
      return;
    }
  }
  throw InvalidArgument("WindowedCorrelation: pair count underflow");
}

void WindowedCorrelation::bump(std::span<const ItemId> items) {
  for (const ItemId item : items) {
    ++items_[item].frequency;
    touch(item);
  }
  for (std::size_t x = 0; x < items.size(); ++x) {
    for (std::size_t y = x + 1; y < items.size(); ++y) {
      increment(items[x], items[y]);
      increment(items[y], items[x]);
    }
  }
}

void WindowedCorrelation::evict(std::span<const ItemId> items) {
  for (const ItemId item : items) {
    --items_[item].frequency;
    touch(item);
  }
  for (std::size_t x = 0; x < items.size(); ++x) {
    for (std::size_t y = x + 1; y < items.size(); ++y) {
      decrement(items[x], items[y]);
      decrement(items[y], items[x]);
    }
  }
}

}  // namespace dpg
