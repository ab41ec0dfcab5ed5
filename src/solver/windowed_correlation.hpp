// Incremental sliding-window correlation for the online/streaming path.
//
// The offline Phase 1 (solver/correlation.hpp) counts pair co-occurrence
// over the whole trace in one batch pass.  WindowedCorrelation maintains the
// same statistics over only the last `window` requests, updated one request
// at a time: add() pushes a request's item set into a ring buffer, bumps its
// item frequencies and pair co-occurrence counts, and evicts the request
// that slid out of the window with the mirror-image decrements.
//
// Pair counts live in per-item adjacency rows of (neighbor, co_count): a
// pair is stored in both members' rows while it co-occurs somewhere in the
// window, and its entries are removed the moment its count drops to 0.  So
// the counts take O(k + live pairs) memory, and live pairs <= window × the
// most pairs one request holds: the bound is the pairs inside the window,
// never the pairs ever seen or the stream length.
//
// add() also records every item whose frequency or pair counts it changed
// (the items of the added and the evicted request) in a touched set that
// the caller drains with clear_touched().  That is what makes an online
// re-pairing epoch cost O(touched items + their adjacency rows) instead of
// O(k + pairs): J(a, b) = co/(f_a + f_b − co) moves only when a or b is
// touched.  OnlineDpGreedyState::repack relies on two invariants that hold
// after every epoch — every packed pair has J >= θ/2, and no pair of two
// unpacked items has J > θ — so the only pairs an epoch can act on are the
// packed pairs with a touched member and the pairs of a touched item, or
// of an item a dissolve just freed (which the epoch touch()es itself).  The
// argument in full is in docs/streaming.md "Epochs".
//
// jaccard() computes exactly the expression of Eq. (5) via
// jaccard_similarity(), so a decision made from this class is bit-identical
// to one made from the dense k×k window matrix the pre-streaming
// implementation kept (see tests/streaming_engine_test.cpp's goldens).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "solver/correlation.hpp"

namespace dpg {

class WindowedCorrelation {
 public:
  /// One adjacency entry: `item` co-occurs with the row's owner in `co`
  /// requests of the window (always > 0 — zero-count entries are removed).
  struct Neighbor {
    ItemId item;
    std::uint32_t co;
  };

  /// `window` is the number of most recent requests retained (>= 1).
  WindowedCorrelation(std::size_t item_count, std::size_t window);

  /// Slides the window forward by one request: counts `items` (sorted,
  /// duplicate-free — a RequestSequence row) and evicts the request that
  /// fell off the back, if the window is full.  Both requests' items join
  /// the touched set.
  void add(std::span<const ItemId> items);

  /// Grows the item universe to at least `item_count` (streaming fronts
  /// discover items as they arrive).  Never shrinks.
  void ensure_item_count(std::size_t item_count);

  [[nodiscard]] std::size_t item_count() const noexcept {
    return items_.size();
  }
  [[nodiscard]] std::size_t window() const noexcept { return window_; }
  /// Requests currently inside the window (== min(adds, window)).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// |d_a| restricted to the window.
  [[nodiscard]] std::size_t frequency(ItemId item) const noexcept {
    return items_[item].frequency;
  }
  /// |(d_a, d_b)| restricted to the window.
  [[nodiscard]] std::size_t co_frequency(ItemId a, ItemId b) const noexcept;
  /// Windowed Jaccard J(a, b) — Eq. (5) over the window's counts.
  [[nodiscard]] double jaccard(ItemId a, ItemId b) const noexcept {
    return jaccard_similarity(frequency(a), frequency(b), co_frequency(a, b));
  }

  /// Every item co-occurring with `item` in the window, in unspecified
  /// order.  Any pair that can clear a θ ≥ 0 threshold co-occurs, so an
  /// item's row holds every pack candidate it takes part in.
  [[nodiscard]] std::span<const Neighbor> neighbors(ItemId item) const noexcept {
    return items_[item].neighbors;
  }

  /// Items whose counts add() changed since the last clear_touched(), plus
  /// any a caller marked with touch(), each once, in first-touch order.
  [[nodiscard]] std::span<const ItemId> touched() const noexcept {
    return touched_;
  }
  [[nodiscard]] bool is_touched(ItemId item) const noexcept {
    return items_[item].touched;
  }
  /// Adds `item` to the touched set (a no-op if it is there already).
  void touch(ItemId item);
  void clear_touched() noexcept;

  /// Ring-slot reallocation events so far — the windowed analogue of the
  /// trace.build_allocs counter: constant once every slot has seen its
  /// largest row, observable proof the window reaches an allocation-free
  /// steady state.  Adjacency rows and the touched list are not counted
  /// (their capacity is bounded by k and the live pairs, and never shrinks).
  [[nodiscard]] std::uint64_t alloc_events() const noexcept {
    return alloc_events_;
  }

 private:
  void bump(std::span<const ItemId> items);
  void evict(std::span<const ItemId> items);
  // One direction of a pair's count; decrement drops the entry at 0.
  void increment(ItemId owner, ItemId other);
  void decrement(ItemId owner, ItemId other);

  std::size_t window_;
  std::size_t size_ = 0;  // occupied ring slots
  std::size_t head_ = 0;  // next slot to write (== oldest when full)
  std::vector<std::vector<ItemId>> ring_;  // capacity reused across laps
  // Everything an add() or an epoch reads about one item, kept together so
  // one cache line serves the frequency, the flag and the row header.
  struct ItemState {
    std::vector<Neighbor> neighbors;  // live pair counts (each pair twice)
    std::uint32_t frequency = 0;      // requests in the window holding it
    bool touched = false;             // member of touched_
  };
  std::vector<ItemState> items_;
  std::vector<ItemId> touched_;
  std::uint64_t alloc_events_ = 0;
};

}  // namespace dpg
