#include "solver/correlation.hpp"

#include <algorithm>
#include <cassert>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace dpg {

namespace {

const obs::Counter g_requests_scanned = obs::counter("phase1.requests_scanned");
const obs::Counter g_observed_pairs = obs::counter("phase1.observed_pairs");
const obs::Counter g_map_probes = obs::counter("phase1.map_probes");
const obs::Counter g_map_resizes = obs::counter("phase1.map_resizes");
const obs::Counter g_shards_merged = obs::counter("phase1.shards_merged");
const obs::Histogram g_shard_pairs = obs::histogram("phase1.shard_pairs");

/// Fibonacci-style mix of the packed pair key into a table slot seed.
std::uint64_t mix_key(std::uint64_t key) noexcept {
  key ^= key >> 33;
  key *= 0xff51afd7ed558ccdull;
  key ^= key >> 33;
  key *= 0xc4ceb9fe1a85ec53ull;
  key ^= key >> 33;
  return key;
}

std::size_t round_up_pow2(std::size_t value) noexcept {
  std::size_t capacity = 16;
  while (capacity < value) capacity <<= 1;
  return capacity;
}

/// Sort order of the pair dictionary (Algorithm 1 line 14).
bool pair_before(const PairCorrelation& x, const PairCorrelation& y) noexcept {
  if (x.jaccard != y.jaccard) return x.jaccard > y.jaccard;
  if (x.a != y.a) return x.a < y.a;
  return x.b < y.b;
}

}  // namespace

double jaccard_similarity(std::size_t freq_a, std::size_t freq_b,
                          std::size_t co_freq) noexcept {
  const std::size_t union_size = freq_a + freq_b - co_freq;
  if (union_size == 0) return 0.0;
  return static_cast<double>(co_freq) / static_cast<double>(union_size);
}

PairCountMap::PairCountMap(std::size_t expected_pairs) {
  // Sized for load factor <= 0.5 at the expected fill.
  const std::size_t capacity = round_up_pow2(expected_pairs * 2);
  keys_.assign(capacity, kEmptyKey);
  counts_.assign(capacity, 0);
}

std::size_t PairCountMap::slot_of(std::uint64_t key) const noexcept {
  const std::size_t mask = keys_.size() - 1;
  std::size_t slot = static_cast<std::size_t>(mix_key(key)) & mask;
  std::size_t probes = 1;
  while (keys_[slot] != kEmptyKey && keys_[slot] != key) {
    slot = (slot + 1) & mask;
    ++probes;
  }
  g_map_probes.add(probes);
  return slot;
}

void PairCountMap::add(std::uint64_t key, std::size_t delta) {
  assert(key != kEmptyKey);
  std::size_t slot = slot_of(key);
  if (keys_[slot] == kEmptyKey) {
    if ((size_ + 1) * 2 > keys_.size()) {
      grow();
      slot = slot_of(key);
    }
    keys_[slot] = key;
    ++size_;
  }
  counts_[slot] += delta;
}

std::size_t PairCountMap::count(std::uint64_t key) const noexcept {
  const std::size_t slot = slot_of(key);
  return keys_[slot] == key ? counts_[slot] : 0;
}

void PairCountMap::merge(const PairCountMap& other) {
  other.for_each([this](std::uint64_t key, std::size_t n) { add(key, n); });
}

void PairCountMap::grow() {
  g_map_resizes.add();
  std::vector<std::uint64_t> old_keys = std::move(keys_);
  std::vector<std::size_t> old_counts = std::move(counts_);
  keys_.assign(old_keys.size() * 2, kEmptyKey);
  counts_.assign(old_counts.size() * 2, 0);
  for (std::size_t i = 0; i < old_keys.size(); ++i) {
    if (old_keys[i] == kEmptyKey) continue;
    const std::size_t slot = slot_of(old_keys[i]);
    keys_[slot] = old_keys[i];
    counts_[slot] = old_counts[i];
  }
}

CorrelationAnalysis::CorrelationAnalysis(const RequestSequence& sequence,
                                         const CorrelationOptions& options)
    : k_(sequence.item_count()), frequency_(k_, 0) {
  const obs::TraceSpan span("phase1/correlation");
  for (ItemId item = 0; item < k_; ++item) {
    frequency_[item] = sequence.item_frequency(item);
  }
  switch (options.mode) {
    case CorrelationOptions::Mode::kDense:
      sparse_ = false;
      break;
    case CorrelationOptions::Mode::kSparse:
      sparse_ = true;
      break;
    case CorrelationOptions::Mode::kAuto:
      sparse_ = k_ > options.dense_max_items;
      break;
  }
  if (sparse_) {
    count_sparse(sequence, options.pool);
  } else {
    count_dense(sequence);
  }
  g_requests_scanned.add(sequence.size());
  g_observed_pairs.add(observed_pair_count_);
  {
    const obs::TraceSpan sort_span("phase1/sort");
    std::sort(sorted_pairs_.begin(), sorted_pairs_.end(), pair_before);
  }
}

PairCorrelation CorrelationAnalysis::make_pair(ItemId a, ItemId b,
                                               std::size_t co) const noexcept {
  PairCorrelation pair;
  pair.a = a;
  pair.b = b;
  pair.freq_a = frequency_[a];
  pair.freq_b = frequency_[b];
  pair.co_freq = co;
  pair.jaccard = jaccard_similarity(pair.freq_a, pair.freq_b, co);
  return pair;
}

void CorrelationAnalysis::count_dense(const RequestSequence& sequence) {
  const obs::TraceSpan span("phase1/count_dense");
  co_frequency_.assign(k_ * (k_ - 1) / 2, 0);
  // One pass over requests: bump the counter of every co-requested pair.
  // tri_index is assert-checked only — it runs per pair per request.
  for (const Request& r : sequence.requests()) {
    for (std::size_t x = 0; x < r.items.size(); ++x) {
      for (std::size_t y = x + 1; y < r.items.size(); ++y) {
        ++co_frequency_[tri_index(r.items[x], r.items[y])];
      }
    }
  }
  sorted_pairs_.reserve(co_frequency_.size());
  for (ItemId a = 0; a + 1 < k_; ++a) {
    for (ItemId b = a + 1; b < k_; ++b) {
      const std::size_t co = co_frequency_[tri_index(a, b)];
      if (co > 0) ++observed_pair_count_;
      sorted_pairs_.push_back(make_pair(a, b, co));
    }
  }
}

void CorrelationAnalysis::count_sparse(const RequestSequence& sequence,
                                       ThreadPool* pool) {
  const obs::TraceSpan span("phase1/count_sparse");
  const auto count_range = [&sequence](std::size_t begin, std::size_t end,
                                       PairCountMap& into) {
    for (std::size_t i = begin; i < end; ++i) {
      const Request& r = sequence[i];
      for (std::size_t x = 0; x < r.items.size(); ++x) {
        for (std::size_t y = x + 1; y < r.items.size(); ++y) {
          into.add(PairCountMap::pack(r.items[x], r.items[y]));
        }
      }
    }
  };

  if (pool != nullptr && pool->worker_count() > 1 && sequence.size() > 1) {
    // Shard the sequence; each worker counts into its own map, merged after
    // the join.  Addition commutes, so the merged counts are bit-identical
    // to the serial pass regardless of scheduling.
    std::vector<PairCountMap> shards;
    parallel_for_chunks(*pool, sequence.size(),
                        [&](std::size_t shard, std::size_t begin,
                            std::size_t end) {
                          const obs::TraceSpan shard_span("phase1/shard");
                          count_range(begin, end, shards[shard]);
                          g_shard_pairs.record(shards[shard].size());
                        },
                        [&shards](std::size_t shard_count) {
                          shards.resize(shard_count);
                        });
    const obs::TraceSpan merge_span("phase1/merge");
    g_shards_merged.add(shards.size());
    for (const PairCountMap& shard : shards) co_counts_.merge(shard);
  } else {
    count_range(0, sequence.size(), co_counts_);
  }

  observed_pair_count_ = co_counts_.size();
  sorted_pairs_.reserve(co_counts_.size());
  co_counts_.for_each([this](std::uint64_t key, std::size_t co) {
    sorted_pairs_.push_back(make_pair(PairCountMap::unpack_a(key),
                                      PairCountMap::unpack_b(key), co));
  });
}

std::size_t CorrelationAnalysis::tri_index(ItemId a, ItemId b) const noexcept {
  assert(a < k_ && b < k_ && a != b);
  if (a > b) std::swap(a, b);
  // Row-major upper triangle: offset of row a plus column within the row.
  const std::size_t row_offset =
      static_cast<std::size_t>(a) * (2 * k_ - a - 1) / 2;
  return row_offset + (b - a - 1);
}

double CorrelationAnalysis::jaccard(ItemId a, ItemId b) const {
  require(a < k_ && b < k_, "jaccard: item out of range");
  if (a == b) return 1.0;
  return jaccard_similarity(frequency_[a], frequency_[b], co_frequency(a, b));
}

std::size_t CorrelationAnalysis::frequency(ItemId item) const {
  require(item < k_, "frequency: item out of range");
  return frequency_[item];
}

std::size_t CorrelationAnalysis::co_frequency(ItemId a, ItemId b) const {
  require(a < k_ && b < k_, "co_frequency: item out of range");
  if (a == b) return frequency_[a];
  if (sparse_) return co_counts_.count(PairCountMap::pack(a, b));
  return co_frequency_[tri_index(a, b)];
}

std::vector<PairCorrelation> CorrelationAnalysis::frequent_pairs(
    double min_jaccard) const {
  // Pairs are sorted by descending Jaccard, so the qualifying range is a
  // prefix: binary-search its end, reserve exactly, and drop the J = 0 tail
  // entries the dense view keeps for never-co-requested pairs.
  const auto cut = std::partition_point(
      sorted_pairs_.begin(), sorted_pairs_.end(),
      [min_jaccard](const PairCorrelation& pair) {
        return pair.jaccard >= min_jaccard;
      });
  std::vector<PairCorrelation> out;
  out.reserve(static_cast<std::size_t>(cut - sorted_pairs_.begin()));
  std::copy_if(sorted_pairs_.begin(), cut, std::back_inserter(out),
               [](const PairCorrelation& pair) { return pair.co_freq > 0; });
  return out;
}

std::string CorrelationAnalysis::to_string(std::size_t max_rows) const {
  std::string out = "pair  |d_a| |d_b| co  J\n";
  std::size_t rows = 0;
  for (const PairCorrelation& p : sorted_pairs_) {
    if (rows++ >= max_rows) break;
    out += "(" + std::to_string(p.a) + "," + std::to_string(p.b) + ")  " +
           std::to_string(p.freq_a) + " " + std::to_string(p.freq_b) + " " +
           std::to_string(p.co_freq) + "  " + format_fixed(p.jaccard, 4) + "\n";
  }
  return out;
}

}  // namespace dpg
