// Reference forms of the Phase-2 solvers — test-only oracles.
//
// The production solvers (solver/optimal_offline.hpp, solver/dp_greedy.hpp)
// run the Section-V recurrences and the greedy singleton pass through the
// branch-light column kernels of solver/kernels.hpp.  This header keeps the
// plain scalar loops those kernels replaced, so tests can demand
// bit-identical results and the Section V-B harness can time the paper's
// literal recurrence.  It is built into the dpg_reference library, which
// only tests/ and bench/ link; no production target depends on it.
#pragma once

#include "core/cost_model.hpp"
#include "core/flow.hpp"
#include "core/request.hpp"
#include "solver/dp_greedy.hpp"
#include "solver/pairing.hpp"
#include "solver/solve_result.hpp"

namespace dpg::reference {

/// How the reference DP answers the inner minimum of D(i),
/// min_{k = p(i) .. i-1} C(k) − W(k).
enum class RangeMin {
  /// The monotonic SuffixMin stack (O(log n) per node): the same argmin and
  /// tie rule as the production kernels, so results are bit-identical to
  /// solve_optimal_offline in cost and schedule.
  kSuffixMin,
  /// The paper's literal O(n) scan per node (O(mn²) overall, the Section
  /// V-B bound).  Equal in cost up to floating-point rounding: it adds
  /// base + C(k) − W(k) in a different order.
  kLiteralScan,
};

/// The optimal offline DP of solver/optimal_offline.hpp as the literal
/// scalar recurrences.  Same contract: `server_count` bounds the server ids
/// of `flow`, which starts at the origin at time 0; the schedule is
/// reconstructed when `build_schedule` is set.
[[nodiscard]] SolveResult solve_optimal_offline_reference(
    const Flow& flow, const CostModel& model, std::size_t server_count,
    RangeMin range_min = RangeMin::kSuffixMin, bool build_schedule = true);

/// Phase 2 of DP_Greedy for one pair (solver/dp_greedy.hpp's
/// solve_pair_package) with the package flow solved by the kSuffixMin
/// reference DP and the single-item requests served by one fused stateful
/// loop that probes each request for the partner.  Bit-identical to the
/// production result: package cost and schedule, every SingletonService and
/// the singleton cost.
[[nodiscard]] PackageReport solve_pair_package_reference(
    const RequestSequence& sequence, const CostModel& model, ItemPair pair);

}  // namespace dpg::reference
