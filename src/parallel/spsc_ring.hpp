// Bounded single-producer / single-consumer ring — the hand-off between a
// serve decode shard and an engine partition (one ring per pair, the
// crossbar in engine/sharded_serve.cpp).
//
// The classic two-index design: the producer owns `head_` (next write slot),
// the consumer owns `tail_` (next read slot), each published with release
// stores and observed with acquire loads, so the slot contents written
// before a push are visible to the pop that claims them.  Both indices are
// monotonically increasing and reduced modulo the (power-of-two) capacity on
// access, which sidesteps the classic "full vs empty" ambiguity without
// wasting a slot.
//
// Why not a mutex + deque: the ring is on the ingest hot path, where a
// blocked producer means the trace decoder stalls.  Here the uncontended
// push/pop cost is two relaxed loads and one release store, no allocation.
// The ring never waits: try_push/try_pop report full/empty and return, and
// the caller decides how to wait (the serve crossbar parks on an event count,
// engine/sharded_serve.cpp).
//
// Each index lives on its own cache line together with the owner's cached
// copy of the *other* index, so steady-state pushes/pops do not ping-pong a
// shared line: the producer re-reads the consumer's index only when the ring
// looks full against the cached value (and vice versa).
//
// Thread contract: exactly one producer thread calls try_push/close, exactly
// one consumer thread calls try_pop.  size()/capacity()/closed() may be read
// from anywhere.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace dpg {

// A fixed 64 rather than std::hardware_destructive_interference_size: the
// library's ABI must not vary with compiler version or -mtune (GCC warns
// about exactly that), and 64 is the destructive-interference granularity
// on every x86-64 and the common AArch64 cores.
inline constexpr std::size_t kCacheLineBytes = 64;

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to a power of two (>= 2).
  explicit SpscRing(std::size_t capacity) {
    require(capacity > 0, "SpscRing: capacity must be >= 1");
    std::size_t rounded = 2;
    while (rounded < capacity) rounded *= 2;
    mask_ = rounded - 1;
    slots_.resize(rounded);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Occupied slots right now (approximate under concurrency; exact when
  /// the other side is quiescent).
  [[nodiscard]] std::size_t size() const noexcept {
    const std::uint64_t head = head_.index.load(std::memory_order_acquire);
    const std::uint64_t tail = tail_.index.load(std::memory_order_acquire);
    return static_cast<std::size_t>(head - tail);
  }

  /// Producer: attempts to move `value` into the ring.  False when full
  /// (value is left intact) or when the ring is closed.
  [[nodiscard]] bool try_push(T& value) {
    if (closed_.load(std::memory_order_relaxed)) return false;
    const std::uint64_t head = head_.index.load(std::memory_order_relaxed);
    if (head - head_.cached_other >= capacity()) {
      head_.cached_other = tail_.index.load(std::memory_order_acquire);
      if (head - head_.cached_other >= capacity()) return false;
    }
    slots_[static_cast<std::size_t>(head) & mask_] = std::move(value);
    head_.index.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer: attempts to move the oldest element out.  False when empty.
  [[nodiscard]] bool try_pop(T& out) {
    const std::uint64_t tail = tail_.index.load(std::memory_order_relaxed);
    if (tail == tail_.cached_other) {
      tail_.cached_other = head_.index.load(std::memory_order_acquire);
      if (tail == tail_.cached_other) return false;
    }
    out = std::move(slots_[static_cast<std::size_t>(tail) & mask_]);
    tail_.index.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Producer: signals end of stream.  Later pushes fail; pending elements
  /// stay poppable.  A consumer that sees closed() must try_pop once more
  /// before it stops, or an element pushed just before close() is dropped.
  void close() noexcept { closed_.store(true, std::memory_order_release); }

  [[nodiscard]] bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }

 private:
  /// An index plus its owner's cached copy of the peer index, padded to a
  /// cache line so producer and consumer never share one.
  struct alignas(kCacheLineBytes) PaddedIndex {
    std::atomic<std::uint64_t> index{0};
    std::uint64_t cached_other = 0;  // owner-thread private
  };

  std::vector<T> slots_;
  std::size_t mask_ = 0;
  PaddedIndex head_;  // producer-owned
  PaddedIndex tail_;  // consumer-owned
  alignas(kCacheLineBytes) std::atomic<bool> closed_{false};
};

}  // namespace dpg
