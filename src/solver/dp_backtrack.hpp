// The schedule backtrack of the optimal offline DP (solver/optimal_offline).
//
// The production solver and the test-only reference DP
// (reference/optimal_offline.hpp) compute C(i) differently but record the
// same per-node decision (DpChoice), so one routine turns that record into
// the cache segments and transfers of the optimal schedule.
#pragma once

#include <span>

#include "core/cost_model.hpp"
#include "core/request_index.hpp"
#include "core/schedule.hpp"
#include "solver/workspace.hpp"

namespace dpg {

/// Walks `choice` back from the last node of `index` and appends to
/// `schedule` how each service point is physically served: the cache line
/// and the intermediates of a D(i) choice (each by its local cache link when
/// that is what w(j) priced, otherwise by a side transfer off the line), or
/// the chained hop of a Tr(i) choice.
void backtrack_dp_schedule(const RequestIndex& index,
                           std::span<const DpChoice> choice,
                           const CostModel& model, Schedule& schedule);

}  // namespace dpg
