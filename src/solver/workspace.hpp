// Reusable scratch state for the per-flow solvers.
//
// Phase 2 of DP_Greedy runs one independent optimal-offline DP per package
// and per unpacked item.  Each solve needs the same family of buffers — the
// flow being built, the Section-V pre-scan index, the w/W/C/choice arrays
// and the suffix-min stack — and a fresh solve would otherwise allocate all
// of them from scratch.  A SolverWorkspace owns that scratch; threading one
// through repeated solves makes the steady state allocation-free: every
// buffer is assign()ed/clear()ed in place and only grows when a flow larger
// than anything seen before arrives.
//
// Contract: a workspace may be reused across any number of solves of any
// flows (results are bit-identical to workspace-free solves — see
// tests/optimal_offline_test.cpp), but it must not be shared between
// concurrent solves.  In parallel Phase 2 each worker chunk owns one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/flow.hpp"
#include "core/request_index.hpp"
#include "core/types.hpp"

namespace dpg {

/// Per-node backtracking record of the offline DP (C(i) recurrence).
struct DpChoice {
  bool via_line = false;       // true: D(i) with split k; false: Tr(i)
  std::int32_t split_k = -1;   // predecessor state for the D choice
};

/// Monotonic-stack suffix-minimum structure over values v_k = C(k) − W(k).
/// Push happens in index order; query(l) returns min_{k in [l, last]} v_k.
/// After pops the stack keeps (index, value) with values strictly increasing
/// bottom→top, so the answer to query(l) is the first entry with index >= l.
class SuffixMin {
 public:
  void clear() noexcept { entries_.clear(); }

  void push(std::int32_t index, double value) {
    while (!entries_.empty() && entries_.back().second >= value) {
      entries_.pop_back();
    }
    entries_.emplace_back(index, value);
  }

  [[nodiscard]] std::pair<std::int32_t, double> query(std::int32_t lo) const {
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), lo,
        [](const std::pair<std::int32_t, double>& e, std::int32_t l) {
          return e.first < l;
        });
    if (it == entries_.end()) return {-1, kInfiniteCost};
    return *it;
  }

 private:
  std::vector<std::pair<std::int32_t, double>> entries_;
};

/// Per-event columns of the kernelized singleton pass (solver/dp_greedy.cpp):
/// a scalar recency pass fills the gather columns, a branch-light pass turns
/// them into costs and choices, and a serial pass accumulates — same order,
/// same bits as the fused reference loop.
struct SingletonScratch {
  std::vector<Time> time;        // event time t_e
  std::vector<Time> prev_time;   // previous event of the item (any server)
  std::vector<Time> same_time;   // last event on this server, -1 if none
  std::vector<Cost> cost;        // chosen serve cost
  std::vector<std::uint8_t> choice;      // kernels::ServeChoiceIndex
  std::vector<std::uint8_t> is_package;  // event already paid by the package DP
};

/// The reusable scratch of one solver "lane".
struct SolverWorkspace {
  /// Flow-build buffer: the core/flow.hpp builders write here.
  Flow flow;

  /// Section-V pre-scan index, rebuilt in place per solve.
  RequestIndex index;

  // Offline-DP arrays, assign()ed per solve.
  std::vector<Cost> w;         // per-node intermediate service cost w(j)
  std::vector<Cost> w_prefix;  // prefix sums W(i)
  std::vector<Cost> c;         // optimal costs C(i)
  std::vector<DpChoice> choice;
  SuffixMin suffix;

  // Kernel-path columns (solver/kernels.hpp): link costs μ·Δt off the
  // index's p(i) column, and the dense v_k = C(k) − W(k) the window scan
  // reads.
  std::vector<Cost> link;
  std::vector<Cost> v;

  /// Per-server recency scratch for the Phase-2 greedy singleton pass.
  std::vector<Time> server_times;

  /// Event columns for the kernelized singleton pass.
  SingletonScratch singles;
};

}  // namespace dpg
