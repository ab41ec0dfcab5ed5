// Resumable per-flow state for the online policies.
//
// solve_online_break_even and solve_online_dp_greedy used to be monolithic
// left-to-right loops over a fully materialized input; this header extracts
// their loop bodies into state objects that advance one request at a time,
// so a long-lived serving engine (engine/streaming_engine.hpp) can push
// requests as they arrive and snapshot mid-stream.  The batch entry points
// remain as thin drivers over these states and are bit-identical to the
// pre-extraction implementations at every option setting.
//
//   * BreakEvenFlowState — the rent-or-buy replica set of ONE flow (an item
//     or a package): serve/retire/finalize with the λ/μ break-even horizon.
//   * OnlineBreakEvenState — the schedule-recording variant driving one
//     flow's ServicePoints (what solve_online_break_even steps).
//   * OnlineDpGreedyState — the full windowed-packing policy: a
//     WindowedCorrelation over the last `window` requests, epoch re-pairing
//     under the θ / θ·hysteresis split rule, break-even serving of item and
//     package flows, and a running OnlineDpGreedyResult that can be valued
//     non-destructively at any time (value_now) or closed out (finalize).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/cost_model.hpp"
#include "core/flow.hpp"
#include "core/request_block.hpp"
#include "core/types.hpp"
#include "solver/online.hpp"
#include "solver/online_dp_greedy.hpp"
#include "solver/windowed_correlation.hpp"

namespace dpg {

/// One live replica of a flow.
struct ReplicaCopy {
  ServerId server;
  Time since;
  Time last_use;
};

/// Break-even replica management for one flow (an item or a package).
/// Identical in policy to the per-flow online rule; item flows and package
/// flows share this accounting.  Cache accrual of copies dropped at their
/// horizon flows through the pending-cost sink; live copies are charged at
/// finalize (or valued via peek_accrued).
class BreakEvenFlowState {
 public:
  BreakEvenFlowState(double multiplier, ServerId start_server, Time start_time)
      : multiplier_(multiplier) {
    copies_.push_back(ReplicaCopy{start_server, start_time, start_time});
  }

  /// Retires expired copies, then serves a request at (server, t).
  /// Returns the cost increment (multiplier applied; λ-side only — cache
  /// accrual is charged at retirement/finalize).
  Cost serve(ServerId server, Time t, const CostModel& model, double horizon,
             bool never_drop, std::size_t* transfer_count, Time* cache_time);

  /// True if a copy of this flow is live at `server` right now.
  [[nodiscard]] bool has_copy_at(ServerId server) const;

  /// Adds a replica at (server, t) (used by package fetches).
  void add_copy(ServerId server, Time t);

  /// Starts the flow over with one copy at (server, t) — what constructing
  /// a fresh state would do, but keeping the copy list's capacity and the
  /// pending-cost sink.  The flow must have been finalized (or be new).
  void restart(ServerId server, Time t);

  /// Most recently used copy (always exists).
  [[nodiscard]] const ReplicaCopy& most_recent() const;

  /// Charges all copies up to their last use and clears the flow.
  Cost finalize(const CostModel& model, Time* cache_time);

  /// What finalize would charge right now, without mutating: accrued cache
  /// cost and cache time of the live copies, in the same copy order (so a
  /// snapshot valuation is bit-identical to an actual close-out).
  void peek_accrued(const CostModel& model, Cost* cost, Time* cache_time) const;

  /// Where the cache cost of horizon-dropped copies accrues.
  void set_pending_cost(Cost* sink) { pending_sink_ = sink; }

 private:
  void retire(Time now, const CostModel& model, double horizon,
              bool never_drop, Time* cache_time);

  double multiplier_;
  std::vector<ReplicaCopy> copies_;
  Cost* pending_sink_ = nullptr;
};

/// The resumable loop body of solve_online_break_even: one flow's replica
/// set plus the reconstructed schedule, advanced one ServicePoint at a time.
class OnlineBreakEvenState {
 public:
  /// Validates the model and options eagerly (OnlineOptions::validate).
  OnlineBreakEvenState(const CostModel& model, std::size_t server_count,
                       std::size_t group_size, const OnlineOptions& options);

  /// Serves one point (strictly after every previous one).
  void advance(const ServicePoint& point);

  /// Serves a run of points in order — the batch entry for block-wise
  /// ingest.  Same per-point arithmetic as advance(), so the result is
  /// bit-identical at every batch size.  Adds the batch's segments and
  /// transfers to the schedule counters in one step; finish() adds the rest.
  void advance_batch(std::span<const ServicePoint> points);

  /// Closes the books (charges every surviving copy to its last use) and
  /// returns the result.  The state is spent afterwards.
  [[nodiscard]] OnlineResult finish();

  [[nodiscard]] std::size_t points_served() const noexcept { return served_; }

 private:
  CostModel model_;
  std::size_t server_count_;
  std::size_t group_size_;
  bool never_drop_;
  Time horizon_;
  std::vector<ReplicaCopy> copies_;
  OnlineResult result_;
  std::size_t served_ = 0;
  Schedule::Mark counted_;  // schedule size already added to the counters

  void count_emitted();
};

/// The resumable core of online DP_Greedy: windowed Jaccard packing with
/// epoch re-pairing and break-even serving, advanced one request at a time.
///
/// Non-copyable/non-movable: flow states hold a pending-cost sink pointer
/// into the running result.  Long-lived fronts hold it behind the
/// StreamingEngine; the batch driver stack-allocates one per solve.
class OnlineDpGreedyState {
 public:
  /// What one push did — the serving decision for that request.
  struct Decision {
    Cost cost_delta = 0.0;          // total cost charged by this push
    std::size_t transfers = 0;      // wire transfers (λ-charges)
    std::size_t package_fetches = 0;  // Observation-2 package fetches
    std::size_t pack_events = 0;    // pairs formed (repack pushes only)
    std::size_t unpack_events = 0;  // pairs dissolved
    bool repacked = false;          // this push ran an epoch re-pairing
  };

  /// Validates the model and options eagerly (OnlineDpGreedyOptions::validate).
  OnlineDpGreedyState(const CostModel& model,
                      const OnlineDpGreedyOptions& options,
                      std::size_t item_count);
  OnlineDpGreedyState(const OnlineDpGreedyState&) = delete;
  OnlineDpGreedyState& operator=(const OnlineDpGreedyState&) = delete;

  /// Serves one request.  `items` must be sorted and duplicate-free (a
  /// RequestSequence row); `time` strictly greater than every previous push.
  /// Item ids beyond the current universe grow it (ensure_item_count).
  Decision push(ServerId server, Time time, std::span<const ItemId> items);

  /// Serves every row of a block in trace order and returns the aggregate
  /// decision (event counts summed, `repacked` if any row repacked).  Rows
  /// go through the exact push() arithmetic — same floating-point
  /// accumulation order, same scratch/window allocation accounting — so the
  /// state after push_batch is bit-identical to per-row pushes at every
  /// batch size.  Block rows must honor the push() contract (sorted unique
  /// items, strictly increasing times), which serve's claim sources and
  /// order checks guarantee.
  Decision push_batch(const RequestBlock& block);

  /// Grows the item universe (new items start at the origin at time 0,
  /// exactly as a batch solve initializes them).  Never shrinks.
  void ensure_item_count(std::size_t item_count);

  /// Closes the books on every live flow and returns the final result.
  /// The state is spent afterwards.
  [[nodiscard]] OnlineDpGreedyResult finalize();

  /// The result as if finalized right now, without mutating anything — the
  /// same arithmetic in the same order as finalize(), so at end of stream
  /// value_now() == finalize() bit for bit.
  [[nodiscard]] OnlineDpGreedyResult value_now() const;

  [[nodiscard]] std::size_t item_count() const noexcept {
    return partner_.size();
  }
  [[nodiscard]] std::size_t requests_seen() const noexcept {
    return requests_seen_;
  }
  /// Epoch counter: number of re-pairing rounds run so far.
  [[nodiscard]] std::size_t repack_rounds() const noexcept { return repacks_; }
  /// Pairs currently packed.
  [[nodiscard]] std::size_t live_packages() const noexcept {
    return live_packages_;
  }
  /// The sliding-window statistics driving the epochs (for probes/tests).
  [[nodiscard]] const WindowedCorrelation& window() const noexcept {
    return window_;
  }
  /// Steady-state allocation probe: ring-slot + scratch growth events (the
  /// trace.build_allocs analogue — constant once warm).
  [[nodiscard]] std::uint64_t alloc_events() const noexcept;

 private:
  void repack(Time now, Decision& decision);
  [[nodiscard]] BreakEvenFlowState& package_slot(ItemId item) {
    return package_flow_[package_lo_[item]];
  }
  [[nodiscard]] const BreakEvenFlowState& package_slot(ItemId item) const {
    return package_flow_[package_lo_[item]];
  }

  CostModel model_;
  OnlineDpGreedyOptions options_;
  bool never_drop_;
  double horizon_;
  double pack_rate_;

  WindowedCorrelation window_;
  std::vector<ItemId> partner_;     // item -> its packed mate (kNoItem if none)
  std::vector<ItemId> package_lo_;  // item -> its package slot
  std::vector<BreakEvenFlowState> item_flow_;
  std::vector<BreakEvenFlowState> package_flow_;  // indexed by slot
  std::vector<ItemId> free_package_slots_;  // dissolved slots, reused so the
                                            // slot table is O(k), not O(packs)
  std::size_t live_packages_ = 0;

  OnlineDpGreedyResult result_;  // running totals (also the pending sink)
  std::size_t since_repack_ = 0;
  std::size_t requests_seen_ = 0;
  std::size_t repacks_ = 0;
  Time last_time_ = 0.0;

  // Reused scratch (kept warm across pushes).
  std::vector<bool> handled_;
  std::vector<std::pair<double, std::pair<ItemId, ItemId>>> candidates_;
  std::vector<ItemId> epoch_pairs_;  // lower ends of the pairs to dissolve
  std::uint64_t scratch_allocs_ = 0;
};

}  // namespace dpg
