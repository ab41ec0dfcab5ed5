#include "solver/online_state.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace dpg {

namespace {

const obs::Counter g_online_repacks = obs::counter("online.repack_rounds");
const obs::Counter g_online_packs = obs::counter("online.pack_events");
const obs::Counter g_online_unpacks = obs::counter("online.unpack_events");
const obs::Counter g_online_transfers = obs::counter("online.transfers");
const obs::Counter g_online_package_fetches =
    obs::counter("online.package_fetches");
const obs::Counter g_break_even_solves = obs::counter("online.break_even_solves");
const obs::Counter g_break_even_drops = obs::counter("online.break_even_drops");

}  // namespace

void OnlineOptions::validate() const {
  require(hold_factor > 0.0,
          "OnlineOptions.hold_factor: must be > 0, got " +
              format_fixed(hold_factor, 6));
}

void OnlineDpGreedyOptions::validate() const {
  require(theta >= 0.0 && theta <= 1.0,
          "OnlineDpGreedyOptions.theta: must be in [0, 1], got " +
              format_fixed(theta, 6));
  require(window > 0, "OnlineDpGreedyOptions.window: must be >= 1, got 0");
  require(repack_interval > 0,
          "OnlineDpGreedyOptions.repack_interval: must be >= 1, got 0");
  require(hold_factor > 0.0,
          "OnlineDpGreedyOptions.hold_factor: must be > 0, got " +
              format_fixed(hold_factor, 6));
}

// ---------------------------------------------------------------------------
// BreakEvenFlowState

Cost BreakEvenFlowState::serve(ServerId server, Time t, const CostModel& model,
                               double horizon, bool never_drop,
                               std::size_t* transfer_count, Time* cache_time) {
  retire(t, model, horizon, never_drop, cache_time);
  for (ReplicaCopy& c : copies_) {
    if (c.server == server) {
      c.last_use = t;
      return 0.0;  // cache accrual is charged at retirement/finalize
    }
  }
  ReplicaCopy* source = &copies_.front();
  for (ReplicaCopy& c : copies_) {
    if (c.last_use > source->last_use) source = &c;
  }
  source->last_use = t;  // held until now to source the transfer
  copies_.push_back(ReplicaCopy{server, t, t});
  ++*transfer_count;
  return multiplier_ * model.lambda;
}

bool BreakEvenFlowState::has_copy_at(ServerId server) const {
  return std::any_of(
      copies_.begin(), copies_.end(),
      [server](const ReplicaCopy& c) { return c.server == server; });
}

void BreakEvenFlowState::add_copy(ServerId server, Time t) {
  for (ReplicaCopy& c : copies_) {
    if (c.server == server) {
      c.last_use = t;
      return;
    }
  }
  copies_.push_back(ReplicaCopy{server, t, t});
}

void BreakEvenFlowState::restart(ServerId server, Time t) {
  copies_.clear();
  copies_.push_back(ReplicaCopy{server, t, t});
}

const ReplicaCopy& BreakEvenFlowState::most_recent() const {
  const ReplicaCopy* best = &copies_.front();
  for (const ReplicaCopy& c : copies_) {
    if (c.last_use > best->last_use) best = &c;
  }
  return *best;
}

Cost BreakEvenFlowState::finalize(const CostModel& model, Time* cache_time) {
  Cost cost = 0.0;
  for (const ReplicaCopy& c : copies_) {
    cost += multiplier_ * model.mu * (c.last_use - c.since);
    *cache_time += c.last_use - c.since;
  }
  copies_.clear();
  return cost;
}

void BreakEvenFlowState::peek_accrued(const CostModel& model, Cost* cost,
                                      Time* cache_time) const {
  for (const ReplicaCopy& c : copies_) {
    *cost += multiplier_ * model.mu * (c.last_use - c.since);
    *cache_time += c.last_use - c.since;
  }
}

void BreakEvenFlowState::retire(Time now, const CostModel& model,
                                double horizon, bool never_drop,
                                Time* cache_time) {
  if (never_drop) return;
  Time newest = -1.0;
  for (const ReplicaCopy& c : copies_) newest = std::max(newest, c.last_use);
  for (std::size_t i = 0; i < copies_.size();) {
    ReplicaCopy& c = copies_[i];
    const Time drop_time = c.last_use + horizon;
    if (c.last_use < newest && drop_time < now) {
      if (pending_sink_ != nullptr) {
        *pending_sink_ += multiplier_ * model.mu * (drop_time - c.since);
      }
      *cache_time += drop_time - c.since;
      copies_[i] = copies_.back();
      copies_.pop_back();
    } else {
      ++i;
    }
  }
}

// ---------------------------------------------------------------------------
// OnlineBreakEvenState

OnlineBreakEvenState::OnlineBreakEvenState(const CostModel& model,
                                           std::size_t server_count,
                                           std::size_t group_size,
                                           const OnlineOptions& options)
    : model_(model),
      server_count_(server_count),
      group_size_(group_size),
      never_drop_(model.mu == 0.0),
      horizon_(never_drop_ ? 0.0
                           : options.hold_factor * model.lambda / model.mu) {
  model.validate();
  options.validate();
  g_break_even_solves.add();
  result_.schedule = Schedule(group_size);
  copies_.push_back(ReplicaCopy{kOriginServer, 0.0, 0.0});
}

void OnlineBreakEvenState::advance(const ServicePoint& point) {
  require(point.server < server_count_,
          "solve_online_break_even: server out of range");
  // 1) Retire copies whose break-even horizon expired before `point.time`,
  //    keeping at least the most recently used copy alive.
  if (!never_drop_) {
    Time newest = -1.0;
    for (const ReplicaCopy& c : copies_) newest = std::max(newest, c.last_use);
    for (std::size_t i = 0; i < copies_.size();) {
      ReplicaCopy& c = copies_[i];
      const Time drop_time = c.last_use + horizon_;
      if (c.last_use < newest && drop_time < point.time) {
        result_.cache_time += drop_time - c.since;
        result_.schedule.add_segment(c.server, c.since, drop_time);
        g_break_even_drops.add();
        copies_[i] = copies_.back();
        copies_.pop_back();
      } else {
        ++i;
      }
    }
  }

  // 2) Serve the request: local hit extends the local copy; otherwise
  //    transfer a replica from the most recently used live copy.
  ReplicaCopy* local = nullptr;
  for (ReplicaCopy& c : copies_) {
    if (c.server == point.server) {
      local = &c;
      break;
    }
  }
  if (local != nullptr) {
    local->last_use = point.time;
  } else {
    ReplicaCopy* source = &copies_.front();
    for (ReplicaCopy& c : copies_) {
      if (c.last_use > source->last_use) source = &c;
    }
    ++result_.transfer_count;
    // Serving as a transfer source counts as a use: the copy was in fact
    // held until now, so its accounted segment (and horizon) extend to
    // `point.time`, keeping the recorded schedule causally grounded.
    result_.schedule.add_transfer(source->server, point.server, point.time);
    source->last_use = point.time;
    copies_.push_back(ReplicaCopy{point.server, point.time, point.time});
  }
  ++served_;
}

void OnlineBreakEvenState::advance_batch(std::span<const ServicePoint> points) {
  for (const ServicePoint& point : points) advance(point);
  count_emitted();
}

void OnlineBreakEvenState::count_emitted() {
  result_.schedule.count_emitted_since(counted_);
  counted_ = result_.schedule.mark();
}

OnlineResult OnlineBreakEvenState::finish() {
  // 3) Close the books: every surviving copy is charged up to its last use
  //    (an online run ends when the request stream ends).
  for (const ReplicaCopy& c : copies_) {
    result_.cache_time += c.last_use - c.since;
    result_.schedule.add_segment(c.server, c.since, c.last_use);
  }
  copies_.clear();
  count_emitted();
  result_.raw_cost =
      model_.mu * result_.cache_time +
      model_.lambda * static_cast<double>(result_.transfer_count);
  result_.cost = model_.flow_multiplier(group_size_) * result_.raw_cost;
  return std::move(result_);
}

// ---------------------------------------------------------------------------
// OnlineDpGreedyState

OnlineDpGreedyState::OnlineDpGreedyState(const CostModel& model,
                                         const OnlineDpGreedyOptions& options,
                                         std::size_t item_count)
    : model_(model),
      options_(options),
      never_drop_(model.mu == 0.0),
      horizon_(never_drop_ ? 0.0
                           : options.hold_factor * model.lambda / model.mu),
      pack_rate_(model.flow_multiplier(2)),
      window_(item_count, options.window) {
  model.validate();
  options.validate();
  ensure_item_count(item_count);
}

void OnlineDpGreedyState::ensure_item_count(std::size_t item_count) {
  if (item_count <= partner_.size()) return;
  window_.ensure_item_count(item_count);
  partner_.resize(item_count, kNoItem);
  package_lo_.resize(item_count, kNoItem);
  item_flow_.reserve(item_count);
  while (item_flow_.size() < item_count) {
    // New items start at the origin at time 0, exactly as a batch solve
    // initializes the full universe up front.
    item_flow_.emplace_back(1.0, kOriginServer, 0.0);
    item_flow_.back().set_pending_cost(&result_.total_cost);
  }
}

OnlineDpGreedyState::Decision OnlineDpGreedyState::push(
    ServerId server, Time time, std::span<const ItemId> items) {
  require(requests_seen_ == 0 || time > last_time_,
          "OnlineDpGreedyState::push: request times must be strictly "
          "increasing");
  if (!items.empty()) {
    ensure_item_count(static_cast<std::size_t>(items.back()) + 1);
  }

  Decision decision;
  const Cost cost_before = result_.total_cost;
  const std::size_t transfers_before = result_.transfers;
  const std::size_t fetches_before = result_.package_fetches;

  window_.add(items);
  if (++since_repack_ >= options_.repack_interval) {
    since_repack_ = 0;
    repack(time, decision);
  }

  // Serve: group the packed pairs that appear fully in this request.
  if (handled_.capacity() < items.size()) ++scratch_allocs_;
  handled_.assign(items.size(), false);
  for (std::size_t x = 0; x < items.size(); ++x) {
    if (handled_[x]) continue;
    const ItemId item = items[x];
    const ItemId mate = partner_[item];
    const bool mate_present =
        mate != kNoItem &&
        std::binary_search(items.begin(), items.end(), mate);
    if (mate_present) {
      // Full package request.  serve() returns only the λ part of the
      // charge (cache accrual flows through the pending-cost sink).
      const Cost shipped =
          package_slot(item).serve(server, time, model_, horizon_, never_drop_,
                                   &result_.transfers, &result_.cache_time);
      result_.total_cost += shipped;
      result_.transfer_cost += shipped;
      for (std::size_t y = 0; y < items.size(); ++y) {
        if (items[y] == mate) handled_[y] = true;
      }
      handled_[x] = true;
    } else if (mate != kNoItem) {
      // Single item of a packed pair: free if the package is local,
      // otherwise fetch the package for 2αλ (Observation 2).
      BreakEvenFlowState& flow = package_slot(item);
      if (!flow.has_copy_at(server)) {
        result_.total_cost += pack_rate_ * model_.lambda;
        result_.transfer_cost += pack_rate_ * model_.lambda;
        ++result_.package_fetches;
        flow.add_copy(server, time);
      } else {
        flow.add_copy(server, time);  // refresh last_use
      }
      handled_[x] = true;
    } else {
      // Unpacked item: plain break-even.
      const Cost shipped =
          item_flow_[item].serve(server, time, model_, horizon_, never_drop_,
                                 &result_.transfers, &result_.cache_time);
      result_.total_cost += shipped;
      result_.transfer_cost += shipped;
      handled_[x] = true;
    }
  }

  result_.total_item_accesses += items.size();
  last_time_ = time;
  ++requests_seen_;

  decision.cost_delta = result_.total_cost - cost_before;
  decision.transfers = result_.transfers - transfers_before;
  decision.package_fetches = result_.package_fetches - fetches_before;
  return decision;
}

OnlineDpGreedyState::Decision OnlineDpGreedyState::push_batch(
    const RequestBlock& block) {
  // Every row takes the exact push() path — bit-identity at any batch size
  // falls out by construction (same FP accumulation order, same scratch and
  // window allocation accounting).  The batch win lives a layer up: the
  // engine amortizes its mutex, telemetry clock reads, and counter updates
  // across the block, and the decode stage hands rows over pre-canonicalized
  // so push() never re-sorts.
  Decision total;
  const std::size_t rows = block.size();
  for (std::size_t i = 0; i < rows; ++i) {
    const Decision d =
        push(block.server_of(i), block.time_of(i), block.items_of(i));
    total.cost_delta += d.cost_delta;
    total.transfers += d.transfers;
    total.package_fetches += d.package_fetches;
    total.pack_events += d.pack_events;
    total.unpack_events += d.unpack_events;
    total.repacked = total.repacked || d.repacked;
  }
  return total;
}

void OnlineDpGreedyState::repack(Time now, Decision& decision) {
  const obs::TraceSpan repack_span("epoch/repack");
  g_online_repacks.add();
  ++repacks_;
  decision.repacked = true;
  // An epoch looks only at the items the window touched since the last one.
  // That is exact because every epoch ends with two invariants:
  //   (i)  every packed pair has J >= θ/2 (a pair below it is dissolved);
  //   (ii) no pair of two unpacked items has J > θ (the greedy pass below
  //        packs at least one member of every such pair).
  // J(a, b) moves only when a or b is touched.  So an untouched packed pair
  // still clears θ/2, and an unpacked pair that clears θ now has a touched
  // member or a member this epoch's dissolves just freed.  Both passes
  // therefore see exactly the pairs a scan of the whole table would act on.

  // Dissolve pairs whose windowed similarity decayed below θ/2.  Each
  // touched pair is judged once (from its lower end when both are touched);
  // the dissolves run in ascending order of their lower item, the order —
  // and so the floating-point accumulation — of a full ascending scan.
  epoch_pairs_.clear();
  for (const ItemId item : window_.touched()) {
    const ItemId mate = partner_[item];
    if (mate == kNoItem || (mate < item && window_.is_touched(mate))) continue;
    if (window_.jaccard(item, mate) < options_.theta / 2.0) {
      epoch_pairs_.push_back(std::min(item, mate));
    }
  }
  std::sort(epoch_pairs_.begin(), epoch_pairs_.end());
  for (const ItemId a : epoch_pairs_) {
    // Split: both items get a copy where the package was last used.
    const ItemId b = partner_[a];
    const ReplicaCopy seat = package_slot(a).most_recent();
    result_.total_cost += package_slot(a).finalize(model_, &result_.cache_time);
    free_package_slots_.push_back(package_lo_[a]);
    package_lo_[a] = kNoItem;
    package_lo_[b] = kNoItem;
    item_flow_[a].restart(seat.server, now);
    item_flow_[b].restart(seat.server, now);
    partner_[a] = kNoItem;
    partner_[b] = kNoItem;
    // A freed item's pairs were no candidates while it was packed, so it
    // joins the touched set the pack pass walks.
    window_.touch(a);
    window_.touch(b);
    ++result_.unpack_events;
    ++decision.unpack_events;
    --live_packages_;
  }

  // Form new pairs greedily by descending windowed similarity.  The
  // candidates are the unpacked neighbors of the unpacked touched items
  // (each pair emitted once: a pair of two touched items from its lower
  // end), and the sort totally orders the unique (J, (a, b)) keys — so the
  // list is the one a full scan of the window's pairs would build, in the
  // same order.
  if (candidates_.empty() && candidates_.capacity() == 0) ++scratch_allocs_;
  candidates_.clear();
  for (const ItemId x : window_.touched()) {
    if (partner_[x] != kNoItem) continue;
    for (const WindowedCorrelation::Neighbor& n : window_.neighbors(x)) {
      const ItemId y = n.item;
      if (partner_[y] != kNoItem || (y < x && window_.is_touched(y))) continue;
      const double j = jaccard_similarity(window_.frequency(x),
                                          window_.frequency(y), n.co);
      if (j > options_.theta) {
        candidates_.emplace_back(j, std::minmax(x, y));
      }
    }
  }
  window_.clear_touched();
  std::sort(candidates_.rbegin(), candidates_.rend());
  for (const auto& [j, pair] : candidates_) {
    const auto [a, b] = pair;
    if (partner_[a] != kNoItem || partner_[b] != kNoItem) continue;
    // Assemble the package at a's most recent location; b's copy is
    // shipped there at the individual rate.
    const ReplicaCopy seat = item_flow_[a].most_recent();
    result_.total_cost += item_flow_[a].finalize(model_, &result_.cache_time);
    result_.total_cost += item_flow_[b].finalize(model_, &result_.cache_time);
    result_.total_cost += model_.lambda;  // move b to the assembly point
    result_.transfer_cost += model_.lambda;
    ++result_.transfers;
    partner_[a] = b;
    partner_[b] = a;
    if (free_package_slots_.empty()) {
      package_lo_[a] = static_cast<ItemId>(package_flow_.size());
      package_flow_.emplace_back(pack_rate_, seat.server, now);
      package_flow_.back().set_pending_cost(&result_.total_cost);
    } else {
      // Reuse a dissolved slot so the table stays O(k), not O(pack events).
      package_lo_[a] = free_package_slots_.back();
      free_package_slots_.pop_back();
      package_flow_[package_lo_[a]].restart(seat.server, now);
    }
    package_lo_[b] = package_lo_[a];
    ++result_.pack_events;
    ++decision.pack_events;
    ++live_packages_;
  }
}

OnlineDpGreedyResult OnlineDpGreedyState::finalize() {
  // Close the books on every live flow, in ascending item order (the same
  // order — and therefore the same floating-point accumulation — as the
  // batch implementation).
  const std::size_t k = partner_.size();
  for (ItemId item = 0; item < k; ++item) {
    if (partner_[item] == kNoItem) {
      result_.total_cost +=
          item_flow_[item].finalize(model_, &result_.cache_time);
    } else if (item < partner_[item]) {
      result_.total_cost +=
          package_slot(item).finalize(model_, &result_.cache_time);
    }
  }
  result_.ave_cost =
      result_.total_item_accesses == 0
          ? 0.0
          : result_.total_cost /
                static_cast<double>(result_.total_item_accesses);
  g_online_packs.add(result_.pack_events);
  g_online_unpacks.add(result_.unpack_events);
  g_online_transfers.add(result_.transfers);
  g_online_package_fetches.add(result_.package_fetches);
  return result_;
}

OnlineDpGreedyResult OnlineDpGreedyState::value_now() const {
  OnlineDpGreedyResult result = result_;
  const std::size_t k = partner_.size();
  for (ItemId item = 0; item < k; ++item) {
    if (partner_[item] == kNoItem) {
      item_flow_[item].peek_accrued(model_, &result.total_cost,
                                    &result.cache_time);
    } else if (item < partner_[item]) {
      package_slot(item).peek_accrued(model_, &result.total_cost,
                                      &result.cache_time);
    }
  }
  result.ave_cost =
      result.total_item_accesses == 0
          ? 0.0
          : result.total_cost /
                static_cast<double>(result.total_item_accesses);
  return result;
}

std::uint64_t OnlineDpGreedyState::alloc_events() const noexcept {
  return window_.alloc_events() + scratch_allocs_;
}

}  // namespace dpg
