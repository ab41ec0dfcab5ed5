// Phase 1 ingredients: item frequencies, co-occurrence counts and the
// Jaccard similarity matrix A(i,j) of Section IV-A (Eqs. 4–5).
//
// Two interchangeable representations back the analysis:
//   * dense  — the full k(k−1)/2 upper triangle, every pair materialized
//     (the seed implementation; best for small k where the triangle fits
//     comfortably and zero-pair rows are cheap),
//   * sparse — only pairs actually co-requested are counted, in an
//     open-addressing hash keyed by the packed (a, b) pair, optionally
//     sharded over a ThreadPool and merged.  At k = 10⁴ the dense triangle
//     is ~5·10⁷ structs; real co-access patterns touch a vanishing fraction
//     of them, which is the sparsity this path exploits.
// Both produce the identical descending-Jaccard pair dictionary for every
// pair with co_freq > 0 (cross-checked in tests); pairs that never co-occur
// have J = 0 and exist only in the dense view.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/request.hpp"
#include "core/types.hpp"

namespace dpg {

class ThreadPool;

/// One item pair with its correlation statistics (a row of Fig. 10).
struct PairCorrelation {
  ItemId a = 0;
  ItemId b = 0;
  std::size_t freq_a = 0;      // |d_a|
  std::size_t freq_b = 0;      // |d_b|
  std::size_t co_freq = 0;     // |(d_a, d_b)|
  double jaccard = 0.0;        // Eq. (5)
};

/// Open-addressing counter over packed (a, b) pair keys (a < b), linear
/// probing, power-of-two capacity.  The per-worker shard and merged store of
/// the sparse Phase-1 path; values are exact counts, so shard-and-merge is
/// bit-identical to serial counting.
class PairCountMap {
 public:
  /// Packs an unordered pair into the 64-bit key (smaller id in the high
  /// word, so key order == (a, b) lexicographic order).
  static std::uint64_t pack(ItemId a, ItemId b) noexcept {
    if (a > b) {
      const ItemId t = a;
      a = b;
      b = t;
    }
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }
  static ItemId unpack_a(std::uint64_t key) noexcept {
    return static_cast<ItemId>(key >> 32);
  }
  static ItemId unpack_b(std::uint64_t key) noexcept {
    return static_cast<ItemId>(key & 0xffffffffull);
  }

  explicit PairCountMap(std::size_t expected_pairs = 0);

  /// Adds `delta` to the pair's counter, inserting it at 0 first if new.
  void add(std::uint64_t key, std::size_t delta = 1);

  /// The pair's counter; 0 when the pair was never added.
  [[nodiscard]] std::size_t count(std::uint64_t key) const noexcept;

  /// Number of distinct pairs stored.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Folds `other` into this map (the merge step of the sharded count).
  void merge(const PairCountMap& other);

  /// Invokes `fn(key, count)` for every stored pair, in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != kEmptyKey) fn(keys_[i], counts_[i]);
    }
  }

 private:
  static constexpr std::uint64_t kEmptyKey = ~0ull;

  [[nodiscard]] std::size_t slot_of(std::uint64_t key) const noexcept;
  void grow();

  std::vector<std::uint64_t> keys_;
  std::vector<std::size_t> counts_;
  std::size_t size_ = 0;
};

/// How CorrelationAnalysis stores and materializes the pair statistics.
struct CorrelationOptions {
  enum class Mode {
    kAuto,    // dense while k <= dense_max_items, sparse beyond
    kDense,   // always the full triangle
    kSparse,  // always the hash of observed pairs
  };
  Mode mode = Mode::kAuto;

  /// kAuto switches to sparse above this item count (the dense triangle is
  /// k(k−1)/2 entries; 128 items ≈ 8k pairs, still trivially cheap).
  std::size_t dense_max_items = 128;

  /// When set, the counting pass shards the request sequence over this pool
  /// (one PairCountMap per shard, merged after the join). Counts are exact,
  /// so the result is bit-identical to the serial pass.
  ThreadPool* pool = nullptr;
};

/// All-pairs correlation analysis of a request sequence.
class CorrelationAnalysis {
 public:
  explicit CorrelationAnalysis(const RequestSequence& sequence,
                               const CorrelationOptions& options = {});

  [[nodiscard]] std::size_t item_count() const noexcept { return k_; }

  /// True when the sparse (observed-pairs-only) representation is active.
  [[nodiscard]] bool is_sparse() const noexcept { return sparse_; }

  /// Number of pairs with co_freq > 0 (== sorted_pairs().size() in sparse
  /// mode; the "peak pair count" benchmarked by bench/bm_phase1).
  [[nodiscard]] std::size_t observed_pair_count() const noexcept {
    return observed_pair_count_;
  }

  /// J(a, b); J(a, a) = 1 by definition (Eq. 4). Symmetric.
  [[nodiscard]] double jaccard(ItemId a, ItemId b) const;

  /// |d_item|.
  [[nodiscard]] std::size_t frequency(ItemId item) const;

  /// |(d_a, d_b)|.
  [[nodiscard]] std::size_t co_frequency(ItemId a, ItemId b) const;

  /// The sorted pair dictionary of Algorithm 1 line 14: descending Jaccard,
  /// ties broken by (a, b) ascending.  Dense mode materializes every
  /// unordered pair (a < b); sparse mode only the pairs with co_freq > 0 —
  /// identical prefixes for every pair that actually co-occurs, which is all
  /// greedy_pairing can ever pack at θ > 0.
  [[nodiscard]] const std::vector<PairCorrelation>& sorted_pairs() const noexcept {
    return sorted_pairs_;
  }

  /// Pairs with co_freq > 0 and Jaccard >= `min_jaccard`, most similar first
  /// (the "frequent dataset" view of Fig. 10).
  [[nodiscard]] std::vector<PairCorrelation> frequent_pairs(
      double min_jaccard) const;

  /// Tabular dump for harnesses.
  [[nodiscard]] std::string to_string(std::size_t max_rows = 20) const;

 private:
  std::size_t k_;
  bool sparse_ = false;
  std::size_t observed_pair_count_ = 0;
  std::vector<std::size_t> frequency_;
  std::vector<std::size_t> co_frequency_;  // dense: upper-triangular, row-major
  PairCountMap co_counts_;                 // sparse: observed pairs only
  std::vector<PairCorrelation> sorted_pairs_;

  void count_dense(const RequestSequence& sequence);
  void count_sparse(const RequestSequence& sequence, ThreadPool* pool);

  [[nodiscard]] std::size_t tri_index(ItemId a, ItemId b) const noexcept;
  [[nodiscard]] PairCorrelation make_pair(ItemId a, ItemId b,
                                          std::size_t co) const noexcept;
};

/// Standalone Jaccard from counts (Eq. 5); 0 when both frequencies are 0.
[[nodiscard]] double jaccard_similarity(std::size_t freq_a, std::size_t freq_b,
                                        std::size_t co_freq) noexcept;

}  // namespace dpg
