// The serve runtime: every `dpgreedy serve` runs through run_sharded_serve,
// from 1×1 up to N decode shards × M engine partitions.
//
//   shard 0 ─┐                 ┌─ partition 0 (StreamingEngine)
//   shard 1 ─┼─► SPSC crossbar ┼─ partition 1 (StreamingEngine)
//     ...    │  (one ring per  │    ...
//   shard N ─┘  shard × part.) └─ partition M
//                                   │
//                                   ▼
//                     deterministic merge → one RunReport
//
// At N = M = 1 there are no threads and no rings: the calling thread claims
// a block, push_batches it and takes its barrier snapshot itself.  Threads
// start only when N·M > 1 — at 1×1 a second thread would only wait while
// the other works.
//
// Shards claim blocks from a ShardClaimSource (trace/shard_source.hpp) —
// each claim returns the block plus its global sequence number — decode
// them (CSV) or slice them (sequence/`.dpt`), and route every row to the
// partition that owns its flow:
//
//   routing key   kByServer:  the row's server id (a server's whole stream
//                             lands on one partition — per-server flows are
//                             never split)
//                 kByItemSet: the row's lowest item id (rows are sorted, so
//                             this is items[0]); itemless rows fall back to
//                             the server key
//   partition     splitmix64(key [^ tag]) mod M  — a fixed avalanche hash,
//                             so the assignment is stable across runs,
//                             platforms and (N, M) block layouts
//
// Transport: one SPSC ring per (shard, partition) pair (N×M work rings,
// zero CAS on the hot path), with envelopes recycling on matching free
// rings, so steady state allocates nothing per block.  An idle shard or
// partition parks on an event count (a futex wait) that every push, close
// and recycle it waits for bumps, so waiting costs no CPU.  Every claimed block
// ships exactly one envelope to every partition — empty sub-blocks included
// (push_batch on an empty block is a documented no-op) — so each partition
// receives the dense sequence 0, 1, 2, … and restores canonical trace order
// with a simple expected-seq counter plus a holdback map, regardless of
// which shard decoded what or how the rings interleaved.
//
// Cadence: the runtime cuts the source's blocks at every multiple of
// ServeConfig::snapshot_interval and ::stats_interval (set_cadence), so a
// block ends exactly on each cadence point.  A block ending on a snapshot
// point is a snapshot barrier, one ending on a stats point a stats barrier:
// every partition contributes at the same global stream position (its
// snapshot, or just its epoch), and the last to arrive merges in
// partition-index order and fires the callbacks — snapshot first, then
// stats — serialized and in barrier order.  Snapshot and stats lines
// therefore land on exact multiples at every (N, M), where per-row push
// would put them.
//
// Order validation: the decoders reject a time that does not advance inside
// a block; across blocks, each envelope carries the whole claimed block's
// first and last times, and every partition compares them with the previous
// block's in seq order.  All partitions see the same metadata, so they all
// stop at the same row, and the engines never see a backwards time.
//
// Determinism contract (see docs/streaming.md for the full argument):
//   * For a fixed partition count M, the merged report and every barrier
//     snapshot are bit-identical across every shard count N, batch size,
//     ring capacity and thread schedule — each partition consumes its
//     routed sub-stream in canonical order, and the merge reduces
//     per-partition results in fixed partition-index order.
//   * At M = 1 the single partition ingests the exact global stream, so
//     the merged report and every snapshot are bit-identical to per-row
//     StreamingEngine::push on every trace.  For M > 1 it is bit-identical
//     to the 1×1 report exactly on flow-partitionable traces (streams whose
//     cost decomposes over the routed flow universes); on general traces
//     the interleaving of floating-point accumulation across partitions
//     differs from the global order, and the merged result is the
//     canonical *partitioned* answer, reproducible bit-for-bit at that M.
//
// The cost-ratio probe runs per partition over its own sub-stream; the
// merged ratio is Σ online / Σ offline over the per-partition probes.
//
// Error contract: a rejected row at global seq S (a malformed field, a
// non-finite or non-positive time, a backwards time; recorded via the
// source's atomic-min) suppresses every block after S — partitions process
// seq ≤ S in canonical order, then skip — so the engines ingest exactly the
// requests before the rejected row, at every (N, M).  The provenance
// message lands in ShardedServeResult::feed_error rather than an exception,
// because the partition engines (and their final reports) live inside this
// call.  At M = 1 an Error thrown by push_batch or the block callback ends
// the feed the same way; anything else propagates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/cost_model.hpp"
#include "engine/run_report.hpp"
#include "engine/serve_config.hpp"
#include "engine/streaming_engine.hpp"
#include "trace/shard_source.hpp"

namespace dpg {

/// Stable row → partition assignment (exposed for tests and docs).
[[nodiscard]] std::size_t serve_partition_of(ServerId server,
                                             std::span<const ItemId> items,
                                             ServeRoute route,
                                             std::size_t partition_count);

/// Serial-order reduction of per-partition reports into one canonical
/// report: totals and event counts summed in partition-index order (the
/// fixed FP reduction order that makes the merge deterministic), timing
/// fields take the max (partitions ran concurrently), then finalize_report
/// restores the ave/cache identities.  Merging one report is the identity.
[[nodiscard]] RunReport merge_partition_reports(
    std::span<const RunReport> parts);

/// Same reduction for snapshots: report and delta merged as above; request
/// / package / allocation counts summed; epoch takes the max (partitions
/// repack independently); item_count is summed — an upper bound, since
/// kByServer routing can discover one item on several partitions; the
/// aggregate ratio is Σ online / Σ offline.  Merging one is the identity.
[[nodiscard]] StreamingSnapshot merge_partition_snapshots(
    std::span<const StreamingSnapshot> parts);

/// Double-buffered snapshot publication: the serving side writes the back
/// buffer privately and swaps it in under a briefly-held mutex; readers
/// (the /metrics listener, tests) copy the front buffer under the same brief
/// mutex.  Neither side ever holds an engine mutex, so observers never
/// block pushes.
class ReportBoard {
 public:
  /// Publishes a snapshot (writer side; one writer at a time).
  void publish(StreamingSnapshot snapshot) {
    back_ = std::move(snapshot);
    const std::lock_guard<std::mutex> lock(mutex_);
    std::swap(front_, back_);
    ++version_;
  }

  /// Copies the latest published snapshot.  `version` (optional) receives
  /// the publication count — 0 means nothing has been published yet.
  [[nodiscard]] StreamingSnapshot read(std::uint64_t* version = nullptr) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (version != nullptr) *version = version_;
    return front_;
  }

  [[nodiscard]] std::uint64_t version() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return version_;
  }

 private:
  mutable std::mutex mutex_;
  StreamingSnapshot front_;
  StreamingSnapshot back_;  // writer-private between publishes
  std::uint64_t version_ = 0;
};

struct ShardedServeStats {
  std::size_t requests = 0;  // rows ingested across all partitions
  std::size_t batches = 0;   // blocks claimed from the source
  // Parks (waits that reached the futex wait), both 0 at 1×1 (no rings):
  std::uint64_t enqueue_blocked = 0;  // shards waiting for a free envelope
                                      // or a work-ring slot
  std::uint64_t dequeue_blocked = 0;  // partitions waiting for work
};

struct ShardedServeResult {
  /// The canonical merged report (merge_partition_reports of the below).
  RunReport report;
  /// Per-partition final reports, index == partition.
  std::vector<RunReport> partition_reports;
  ShardedServeStats stats;
  /// Aggregate probe ratio Σ online / Σ offline after finish() flushed
  /// every partition's partial tail chunk (0 when the probe is off).
  double cost_ratio = 0.0;
  std::size_t probe_chunks = 0;  // offline solves across all partitions
  std::size_t epoch = 0;         // max partition epoch
  /// Rejected-row provenance ("" = the stream ended cleanly).  When set,
  /// the reports cover exactly the requests before the rejected row.
  std::string feed_error;
};

/// Merged barrier snapshot + the global row count it corresponds to.
using ShardedSnapshotCallback =
    std::function<void(const StreamingSnapshot&, std::size_t)>;

/// Stats barrier: (global rows served, max partition epoch at that row).
using ShardedStatsCallback = std::function<void(std::size_t, std::size_t)>;

/// Each block the single partition ingested, in stream order, right after
/// its push_batch (M = 1 only — the `.dpt` archive tap).
using ServedBlockCallback = std::function<void(const RequestBlock&)>;

/// Runs the serve topology to end of stream — inline at 1×1, otherwise
/// config.shard_count decode threads and config.partition_count engine
/// threads — finishes every partition engine and returns the deterministic
/// merge.  `engine_options` configures each partition engine (probe
/// included).  Callbacks run on the serving side, serialized, in stream
/// order; `on_block` requires config.partition_count == 1.  Throws only on
/// engine/system faults; rejected rows surface through
/// ShardedServeResult::feed_error (see the error contract above).
ShardedServeResult run_sharded_serve(
    ShardClaimSource& source, const CostModel& model,
    const ServeConfig& config, const StreamingOptions& engine_options,
    const ShardedSnapshotCallback& on_snapshot = {},
    const ShardedStatsCallback& on_stats = {},
    const ServedBlockCallback& on_block = {});

}  // namespace dpg
