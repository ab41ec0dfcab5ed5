#include "engine/sharded_serve.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "parallel/spsc_ring.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dpg {

namespace {

// Aggregate backpressure counters; per-shard/partition suffixed labels are
// registered at run time below.
const obs::Counter g_ring_enqueue_blocked =
    obs::counter("ring.enqueue_blocked");
const obs::Counter g_ring_dequeue_blocked =
    obs::counter("ring.dequeue_blocked");

/// Suffixed labels stop at 8 shards/partitions — beyond that the aggregate
/// counters still cover everything and the name registry stays bounded.
constexpr std::size_t kMaxLabelIndex = 8;

/// The claimed block as a whole.  Every envelope of one seq carries the
/// same copy, so every partition takes the same barrier and order decisions
/// even though each sees only its own rows.
struct BlockInfo {
  std::uint64_t seq = 0;
  std::size_t rows_through = 0;  // stream rows through the end of the block
  std::size_t rows = 0;          // rows in the whole claimed block
  Time first_time = 0.0;
  Time last_time = 0.0;
  bool snapshot = false;  // the block ends on a snapshot cadence point
  bool stats = false;     // the block ends on a stats cadence point
};

BlockInfo describe_block(const RequestBlock& block, std::uint64_t seq,
                         std::size_t rows_through, const ServeConfig& config) {
  BlockInfo info;
  info.seq = seq;
  info.rows_through = rows_through;
  info.rows = block.size();
  if (info.rows == 0) return info;  // a failed block's empty prefix
  info.first_time = block.time_of(0);
  info.last_time = block.time_of(info.rows - 1);
  const auto on_cut = [rows_through](std::size_t every) {
    return every > 0 && rows_through % every == 0;
  };
  info.snapshot = on_cut(config.snapshot_interval);
  info.stats = on_cut(config.stats_interval);
  return info;
}

/// One block in flight from a shard to a partition.  `shard` names the free
/// ring the envelope recycles into.
struct Envelope {
  BlockInfo info;
  std::uint32_t shard = 0;
  RequestBlock block;
};

/// The event count one thread parks on: a counter that producers bump
/// after every state change the waiter may be waiting for.
///
/// A waiter takes `seen()`, re-checks its rings, and only then calls
/// park(seen).  Every push and close bumps the count after its release
/// store, so either the re-check observes it (the waiter's acquire load
/// read the bump) or the bump lands after `seen` and the wait returns at
/// once or is notified: no lost wakeup (docs/streaming.md).
struct alignas(kCacheLineBytes) Signal {
  std::atomic<std::uint32_t> count{0};

  [[nodiscard]] std::uint32_t seen() const noexcept {
    return count.load(std::memory_order_acquire);
  }

  void bump() noexcept {
    count.fetch_add(1, std::memory_order_release);
    count.notify_one();
  }

  void bump_all() noexcept {
    count.fetch_add(1, std::memory_order_release);
    count.notify_all();
  }

  /// Futex wait until the count moves past `seen`; counts one park.
  void park(std::uint32_t seen, std::atomic<std::uint64_t>& parks) noexcept {
    parks.fetch_add(1, std::memory_order_relaxed);
    count.wait(seen, std::memory_order_acquire);
  }
};

/// One SPSC ring per (shard, partition) pair, in both directions: N×M work
/// rings and N×M free rings.  Zero CAS anywhere; each consumer sweeps its
/// N inbound rings with try_pop.  An idle thread parks on its own Signal:
/// partition j on work_ready_[j] (bumped by every work-ring push and close
/// into j), shard i on envelope_free_[i] (bumped by every recycle into
/// one of i's free rings, which also follows the pop that freed a work-ring
/// slot of i — a pop into the holdback is announced by that envelope's
/// recycle, once the partition reaches its seq).  abort() bumps all of them.
class Crossbar {
 public:
  Crossbar(std::size_t shards, std::size_t partitions,
           std::size_t ring_capacity)
      : shards_(shards),
        partitions_(partitions),
        done_(partitions),
        work_ready_(partitions),
        envelope_free_(shards),
        enqueue_parks_(partitions),
        dequeue_parks_(partitions) {
    // free ring capacity ring_capacity + 2 covers every envelope of the
    // (i, j) pair — in the work ring + one in each side's hands — so
    // recycle()'s try_push can never fail.
    for (std::size_t i = 0; i < shards_ * partitions_; ++i) {
      work_.push_back(std::make_unique<SpscRing<Envelope>>(ring_capacity));
      free_.push_back(
          std::make_unique<SpscRing<Envelope>>(ring_capacity + 2));
      Envelope env;
      for (std::size_t k = 0; k < ring_capacity + 2; ++k) {
        const bool ok = free_.back()->try_push(env);
        require(ok, "sharded_serve: free ring under-sized");
        env = Envelope{};
      }
    }
    for (auto& d : done_) d.assign(shards_, 0);
  }

  /// Shard i: takes a recycled envelope destined for partition j.  Parks
  /// while none is free; false only when the run is being aborted.
  bool acquire(std::size_t i, std::size_t j, Envelope& env) {
    SpscRing<Envelope>& ring = *free_[i * partitions_ + j];
    for (;;) {
      const std::uint32_t seen = envelope_free_[i].seen();
      if (ring.try_pop(env)) return true;
      if (ring.closed()) return false;  // only abort() closes a free ring
      envelope_free_[i].park(seen, enqueue_parks_[j].count);
    }
  }

  /// Shard i: ships a filled envelope to partition j.  Parks while the
  /// work ring is full (this is where backpressure lands); false only on
  /// abort.
  bool send(std::size_t i, std::size_t j, Envelope& env) {
    SpscRing<Envelope>& ring = *work_[i * partitions_ + j];
    for (;;) {
      const std::uint32_t seen = envelope_free_[i].seen();
      if (ring.try_push(env)) {
        work_ready_[j].bump();
        return true;
      }
      if (ring.closed()) return false;
      envelope_free_[i].park(seen, enqueue_parks_[j].count);
    }
  }

  /// Partition j: receives any inbound envelope.  Parks while every open
  /// inbound ring is empty; false when every shard is done and the inbound
  /// rings are drained.
  bool receive(std::size_t j, Envelope& env) {
    std::vector<char>& done = done_[j];
    for (;;) {
      const std::uint32_t seen = work_ready_[j].seen();
      std::size_t open = 0;
      for (std::size_t i = 0; i < shards_; ++i) {
        if (done[i] != 0) continue;
        SpscRing<Envelope>& ring = *work_[i * partitions_ + j];
        if (ring.try_pop(env)) return true;
        if (ring.closed()) {
          // Re-check after observing the close, or an envelope pushed just
          // before close() could be dropped.
          if (ring.try_pop(env)) return true;
          done[i] = 1;
          continue;
        }
        ++open;
      }
      if (open == 0) return false;
      work_ready_[j].park(seen, dequeue_parks_[j].count);
    }
  }

  /// Partition j: returns a drained envelope to its shard's free ring.
  void recycle(std::size_t j, Envelope& env) {
    const std::size_t i = env.shard;
    // Capacity covers every envelope of the pair, so this fails only when
    // the ring was closed by abort() — then the envelope is simply dropped.
    if (free_[i * partitions_ + j]->try_push(env)) {
      envelope_free_[i].bump();
    } else {
      env = Envelope{};
    }
  }

  /// Shard i is done claiming: closes its work rings.
  void shard_done(std::size_t i) {
    for (std::size_t j = 0; j < partitions_; ++j) {
      work_[i * partitions_ + j]->close();
      work_ready_[j].bump_all();
    }
  }

  /// Any thread: tear everything down (error path).  Every parked thread
  /// wakes, and all blocking calls return false promptly afterwards.
  void abort() {
    for (auto& ring : work_) ring->close();
    for (auto& ring : free_) ring->close();
    for (Signal& s : work_ready_) s.bump_all();
    for (Signal& s : envelope_free_) s.bump_all();
  }

  /// Parks, summed per partition: shards waiting on partition j's rings,
  /// and partition j waiting for work.
  [[nodiscard]] std::uint64_t enqueue_blocked(std::size_t j) const {
    return enqueue_parks_[j].count.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t dequeue_blocked(std::size_t j) const {
    return dequeue_parks_[j].count.load(std::memory_order_relaxed);
  }

 private:
  struct alignas(kCacheLineBytes) PaddedCount {
    std::atomic<std::uint64_t> count{0};
  };

  std::size_t shards_;
  std::size_t partitions_;
  std::vector<std::unique_ptr<SpscRing<Envelope>>> work_;  // [i*M + j]
  std::vector<std::unique_ptr<SpscRing<Envelope>>> free_;  // [i*M + j]
  std::vector<std::vector<char>> done_;  // per-consumer private state
  std::vector<Signal> work_ready_;       // [j]
  std::vector<Signal> envelope_free_;    // [i]
  std::vector<PaddedCount> enqueue_parks_;  // [j]
  std::vector<PaddedCount> dequeue_parks_;  // [j]
};

/// Pending barrier: what each partition contributed until all M arrive.
struct BarrierSlot {
  std::vector<StreamingSnapshot> parts;  // snapshot barriers only
  std::size_t epoch = 0;                 // max partition epoch
  std::size_t filled = 0;
};

/// One engine partition and what its consumer loop remembers.
struct Partition {
  std::unique_ptr<StreamingEngine> engine;
  std::size_t rows = 0;    // rows ingested
  Time last_time = 0.0;    // last time of the previous block (whole stream)
};

/// The consumer side shared by the inline and threaded runs: validates
/// order across blocks, ingests, and meets the other partitions at
/// barriers.
class Consumer {
 public:
  Consumer(ShardClaimSource& source, const CostModel& model,
           const ServeConfig& config, const StreamingOptions& options,
           const ShardedSnapshotCallback& on_snapshot,
           const ShardedStatsCallback& on_stats,
           const ServedBlockCallback& on_block)
      : source_(source),
        on_snapshot_(on_snapshot),
        on_stats_(on_stats),
        on_block_(on_block),
        partitions_(config.partition_count) {
    for (Partition& p : partitions_) {
      p.engine = std::make_unique<StreamingEngine>(model, options);
    }
  }

  /// Partition j's share of the block `info` describes, in seq order.
  void serve(std::size_t j, const BlockInfo& info, const RequestBlock& block) {
    if (info.seq > source_.error_seq()) return;  // after a rejected row
    Partition& p = partitions_[j];
    const std::size_t first_row = info.rows_through - info.rows + 1;
    if (info.rows > 0) {
      if (!(info.first_time > p.last_time)) {
        source_.report_error(
            info.seq, source_.row_label(first_row) + ": " +
                          backwards_time_message(info.first_time, p.last_time));
        return;
      }
      p.last_time = info.last_time;
    }
    try {
      p.engine->push_batch(block);
    } catch (const Error& e) {
      // At M = 1 the engine's prefix is the stream's prefix, so the feed
      // can end cleanly at the rejected row; at M > 1 other partitions may
      // be past this block, and the fault propagates.
      if (partitions_.size() > 1) throw;
      const std::size_t ingested = p.engine->requests_seen() - p.rows;
      p.rows += ingested;
      source_.report_error(info.seq, source_.row_label(first_row + ingested) +
                                         ": " + e.what());
      return;
    }
    p.rows += block.size();
    if (on_block_) {
      try {
        on_block_(block);
      } catch (const Error& e) {
        source_.report_error(info.seq, e.what());  // served, but end here
        return;
      }
    }
    if (info.snapshot || info.stats) meet_at_barrier(j, info);
  }

  std::vector<Partition>& partitions() { return partitions_; }

 private:
  void meet_at_barrier(std::size_t j, const BlockInfo& info) {
    StreamingEngine& engine = *partitions_[j].engine;
    StreamingSnapshot snap;
    if (info.snapshot) snap = engine.snapshot();
    const std::size_t epoch = engine.epoch();

    // The last contributor fires the callbacks while still holding the
    // mutex, so they are serialized and arrive in barrier order.
    const std::lock_guard<std::mutex> lock(barrier_mutex_);
    BarrierSlot& slot = barriers_[info.seq];
    if (info.snapshot) {
      if (slot.parts.empty()) slot.parts.resize(partitions_.size());
      slot.parts[j] = std::move(snap);
    }
    slot.epoch = std::max(slot.epoch, epoch);
    if (++slot.filled < partitions_.size()) return;
    const BarrierSlot done = std::move(slot);
    barriers_.erase(info.seq);
    if (info.snapshot && on_snapshot_) {
      on_snapshot_(merge_partition_snapshots(done.parts), info.rows_through);
    }
    if (info.stats && on_stats_) on_stats_(info.rows_through, done.epoch);
  }

  ShardClaimSource& source_;
  const ShardedSnapshotCallback& on_snapshot_;
  const ShardedStatsCallback& on_stats_;
  const ServedBlockCallback& on_block_;
  std::vector<Partition> partitions_;
  std::mutex barrier_mutex_;
  std::map<std::uint64_t, BarrierSlot> barriers_;
};

}  // namespace

std::size_t serve_partition_of(ServerId server, std::span<const ItemId> items,
                               ServeRoute route, std::size_t partition_count) {
  if (partition_count <= 1) return 0;
  std::uint64_t key;
  if (route == ServeRoute::kByServer || items.empty()) {
    key = static_cast<std::uint64_t>(server);
    // Itemless rows under kByItemSet hash the server id, tagged into a
    // separate key universe so server 5 and item 5 don't collide.
    if (route == ServeRoute::kByItemSet) key |= std::uint64_t{1} << 63;
  } else {
    key = static_cast<std::uint64_t>(items.front());  // rows sorted: lowest
  }
  std::uint64_t state = key;
  return static_cast<std::size_t>(splitmix64(state) %
                                  static_cast<std::uint64_t>(partition_count));
}

RunReport merge_partition_reports(std::span<const RunReport> parts) {
  require(!parts.empty(), "merge_partition_reports: no partition reports");
  RunReport merged = parts[0];
  if (parts.size() == 1) return merged;  // identity, bit-for-bit
  for (std::size_t p = 1; p < parts.size(); ++p) {
    const RunReport& r = parts[p];
    // Fixed partition-index reduction order: this is what makes the merge
    // (and therefore the whole sharded run at a given M) deterministic.
    merged.total_cost += r.total_cost;
    merged.raw_cost += r.raw_cost;
    merged.transfer_cost += r.transfer_cost;
    merged.total_item_accesses += r.total_item_accesses;
    merged.package_count += r.package_count;
    merged.unpack_events += r.unpack_events;
    merged.transfer_events += r.transfer_events;
    merged.cache_segments += r.cache_segments;
    merged.phase1_seconds = std::max(merged.phase1_seconds, r.phase1_seconds);
    merged.solve_seconds = std::max(merged.solve_seconds, r.solve_seconds);
    merged.plans.insert(merged.plans.end(), r.plans.begin(), r.plans.end());
  }
  finalize_report(merged);  // ave_cost + bit-exact cache/transfer identity
  return merged;
}

StreamingSnapshot merge_partition_snapshots(
    std::span<const StreamingSnapshot> parts) {
  require(!parts.empty(), "merge_partition_snapshots: no partition snapshots");
  StreamingSnapshot merged = parts[0];
  if (parts.size() == 1) return merged;  // identity, bit-for-bit

  std::vector<RunReport> reports;
  std::vector<RunReport> deltas;
  reports.reserve(parts.size());
  deltas.reserve(parts.size());
  for (const StreamingSnapshot& s : parts) {
    reports.push_back(s.report);
    deltas.push_back(s.delta);
  }
  merged.report = merge_partition_reports(reports);
  merged.delta = merge_partition_reports(deltas);

  merged.requests = 0;
  merged.epoch = 0;
  merged.live_packages = 0;
  merged.item_count = 0;
  merged.online_probe_cost = 0.0;
  merged.offline_probe_cost = 0.0;
  merged.probe_chunks = 0;
  merged.state_alloc_events = 0;
  for (const StreamingSnapshot& s : parts) {
    merged.requests += s.requests;
    merged.epoch = std::max(merged.epoch, s.epoch);
    merged.live_packages += s.live_packages;
    // Upper bound: kByServer routing can discover one item on several
    // partitions, so the summed universe may over-count shared items.
    merged.item_count += s.item_count;
    merged.online_probe_cost += s.online_probe_cost;
    merged.offline_probe_cost += s.offline_probe_cost;
    merged.probe_chunks += s.probe_chunks;
    merged.state_alloc_events += s.state_alloc_events;
  }
  merged.cost_ratio = merged.offline_probe_cost > 0.0
                          ? merged.online_probe_cost /
                                merged.offline_probe_cost
                          : 0.0;
  return merged;
}

ShardedServeResult run_sharded_serve(
    ShardClaimSource& source, const CostModel& model,
    const ServeConfig& config, const StreamingOptions& engine_options,
    const ShardedSnapshotCallback& on_snapshot,
    const ShardedStatsCallback& on_stats, const ServedBlockCallback& on_block) {
  config.validate();
  require(!on_block || config.partition_count == 1,
          "run_sharded_serve: a block callback needs partitions == 1");
  const std::size_t shards = config.shard_count;
  const std::size_t partitions = config.partition_count;
  source.set_cadence(config.snapshot_interval, config.stats_interval);
  Consumer consumer(source, model, config, engine_options, on_snapshot,
                    on_stats, on_block);

  // Indexed per thread — each slot written by exactly one thread.
  std::vector<std::size_t> shard_rows(shards, 0);
  std::vector<std::uint64_t> shard_batches(shards, 0);
  std::vector<std::uint64_t> enqueue_blocked(partitions, 0);
  std::vector<std::uint64_t> dequeue_blocked(partitions, 0);

  if (shards * partitions == 1) {
    // Inline: claim → push_batch → barrier on the calling thread.
    RequestBlock block;
    std::uint64_t seq = 0;
    std::size_t rows_through = 0;
    while (source.claim(block, seq, rows_through)) {
      ++shard_batches[0];
      shard_rows[0] += block.size();
      consumer.serve(0, describe_block(block, seq, rows_through, config),
                     block);
    }
  } else {
    Crossbar crossbar(shards, partitions, config.ring_capacity);

    // Error plumbing: the first engine/system exception wins and tears the
    // topology down; rejected rows travel through the source's error_seq
    // instead (see the header's error contract).
    std::mutex error_mutex;
    std::exception_ptr first_exception;
    std::atomic<bool> aborted{false};
    const auto record_exception = [&](std::exception_ptr e) {
      {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_exception) first_exception = e;
      }
      aborted.store(true, std::memory_order_release);
      crossbar.abort();
    };

    const auto shard_main = [&](std::size_t i) {
      try {
        RequestBlock claimed;
        std::vector<Envelope> envs(partitions);
        std::uint64_t seq = 0;
        std::size_t rows_through = 0;
        while (!aborted.load(std::memory_order_acquire) &&
               source.claim(claimed, seq, rows_through)) {
          ++shard_batches[i];
          shard_rows[i] += claimed.size();
          const BlockInfo info =
              describe_block(claimed, seq, rows_through, config);

          bool ok = true;
          for (std::size_t j = 0; j < partitions && ok; ++j) {
            ok = crossbar.acquire(i, j, envs[j]);
            envs[j].info = info;
            envs[j].shard = static_cast<std::uint32_t>(i);
            envs[j].block.clear();
          }
          if (!ok) break;

          if (partitions == 1) {
            // Single partition: the whole claimed block ships as-is (swap,
            // so zero-copy `.dpt` views ride through untouched and the
            // envelope's owned block becomes next claim's scratch).
            std::swap(envs[0].block, claimed);
          } else {
            const std::size_t rows = claimed.size();
            for (std::size_t r = 0; r < rows; ++r) {
              const ServerId server = claimed.server_of(r);
              const std::span<const ItemId> items = claimed.items_of(r);
              const std::size_t j = serve_partition_of(
                  server, items, config.flow_route, partitions);
              // The claimed row is canonical already: copy it in one step.
              envs[j].block.append_sorted_row(server, claimed.time_of(r),
                                              items);
            }
          }

          for (std::size_t j = 0; j < partitions && ok; ++j) {
            ok = crossbar.send(i, j, envs[j]);
          }
          if (!ok) break;
        }
      } catch (...) {
        record_exception(std::current_exception());
      }
      crossbar.shard_done(i);
    };

    const auto partition_main = [&](std::size_t j) {
      try {
        std::map<std::uint64_t, Envelope> holdback;
        std::uint64_t expected = 0;
        for (;;) {
          Envelope env;
          const auto held = holdback.find(expected);
          if (held != holdback.end()) {
            env = std::move(held->second);
            holdback.erase(held);
          } else {
            if (!crossbar.receive(j, env)) break;  // shards done + drained
            if (env.info.seq != expected) {
              holdback.emplace(env.info.seq, std::move(env));
              continue;
            }
          }
          ++expected;
          // A decode failure's error_seq store happens-before the failing
          // block's ring push, and partitions consume in seq order, so the
          // suppression of later seqs inside serve() is always visible.
          consumer.serve(j, env.info, env.block);
          crossbar.recycle(j, env);
        }
        // Normal termination leaves the holdback empty (every claimed seq
        // ships to every partition); entries can only remain after an
        // abort tore the rings down mid-stream, and are dropped with it.
      } catch (...) {
        record_exception(std::current_exception());
      }
    };

    std::vector<std::thread> threads;
    threads.reserve(shards + partitions);
    for (std::size_t j = 0; j < partitions; ++j) {
      threads.emplace_back(partition_main, j);
    }
    for (std::size_t i = 0; i < shards; ++i) {
      threads.emplace_back(shard_main, i);
    }
    for (std::thread& t : threads) t.join();

    if (first_exception) std::rethrow_exception(first_exception);
    for (std::size_t j = 0; j < partitions; ++j) {
      enqueue_blocked[j] = crossbar.enqueue_blocked(j);
      dequeue_blocked[j] = crossbar.dequeue_blocked(j);
    }
  }

  ShardedServeResult result;
  if (source.error_seq() != ShardClaimSource::kNoError) {
    result.feed_error = source.error_message();
  }

  std::vector<Partition>& parts = consumer.partitions();
  result.partition_reports.reserve(partitions);
  Cost online_probe = 0.0;
  Cost offline_probe = 0.0;
  for (Partition& p : parts) {
    result.partition_reports.push_back(p.engine->finish());
    result.epoch = std::max(result.epoch, p.engine->epoch());
    result.probe_chunks += p.engine->probe_chunks();
    online_probe += p.engine->online_probe_cost();
    offline_probe += p.engine->offline_probe_cost();
    result.stats.requests += p.rows;
  }
  result.report = merge_partition_reports(result.partition_reports);
  result.cost_ratio = offline_probe > 0.0 ? online_probe / offline_probe : 0.0;

  for (std::size_t i = 0; i < shards; ++i) {
    result.stats.batches += shard_batches[i];
  }
  for (std::size_t j = 0; j < partitions; ++j) {
    result.stats.enqueue_blocked += enqueue_blocked[j];
    result.stats.dequeue_blocked += dequeue_blocked[j];
  }

  // Mirror the backpressure into the ring.* metrics (aggregate first, then
  // the per-shard/partition labels documented in docs/observability.md —
  // registration is idempotent and the adds are no-ops with obs off).
  g_ring_enqueue_blocked.add(result.stats.enqueue_blocked);
  g_ring_dequeue_blocked.add(result.stats.dequeue_blocked);
  for (std::size_t i = 0; i < std::min(shards, kMaxLabelIndex); ++i) {
    obs::counter("stream.shard_rows.s" + std::to_string(i))
        .add(shard_rows[i]);
    obs::counter("stream.shard_batches.s" + std::to_string(i))
        .add(shard_batches[i]);
  }
  for (std::size_t j = 0; j < std::min(partitions, kMaxLabelIndex); ++j) {
    obs::counter("ring.enqueue_blocked.p" + std::to_string(j))
        .add(enqueue_blocked[j]);
    obs::counter("ring.dequeue_blocked.p" + std::to_string(j))
        .add(dequeue_blocked[j]);
    obs::counter("stream.partition_rows.p" + std::to_string(j))
        .add(parts[j].rows);
  }

  return result;
}

}  // namespace dpg
