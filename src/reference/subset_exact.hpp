// A second, structurally independent exact solver for the single-flow
// offline problem, used to cross-validate the DP on instances far larger
// than the parent-assignment enumeration (reference/bruteforce.hpp) can reach.
//
// Formulation.  In a standard-form schedule every service point is served
// either LOCALLY (a cache line on its own server extending back to its
// previous same-server visit p(i)) or by a TRANSFER (λ, from any copy alive
// at that instant).  A feasible schedule must keep at least one copy alive
// through [0, t_n]; stretches not covered by any chosen local link are
// bridged by holding a copy at μ per time unit (a bridge always has a valid
// anchor: gaps open at the origin, at a covered-interval end, or at a
// request time, all of which have a copy).  Hence for a choice set
// S ⊆ {points with p(i) defined}:
//
//   cost(S) = μ · Σ_{i∈S} (t_i − t_{p(i)})            (local links)
//           + λ · |points ∖ S|                         (transfers)
//           + μ · |[0, t_n] ∖ ⋃_{i∈S} [t_{p(i)}, t_i]| (bridges)
//
// and the optimum is min over all 2^|candidates| subsets.  Equivalence with
// the DP's recurrences is exactly what tests/subset_exact_test.cpp checks.
#pragma once

#include "core/cost_model.hpp"
#include "core/flow.hpp"

namespace dpg {

struct SubsetExactResult {
  Cost raw_cost = 0.0;
  Cost cost = 0.0;
  /// Chosen LOCAL points (indices into flow.points).
  std::vector<std::size_t> local_points;
};

/// Exhausts all local/transfer subsets.  Throws InvalidArgument when the
/// number of local candidates exceeds `max_candidates` (runtime is
/// O(2^candidates · n)).
[[nodiscard]] SubsetExactResult solve_subset_exact(const Flow& flow,
                                                   const CostModel& model,
                                                   std::size_t server_count,
                                                   std::size_t max_candidates = 20);

}  // namespace dpg
