#include "reference/cut_operation.hpp"

#include <algorithm>

#include "core/request_index.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace dpg {

namespace {

const obs::Counter g_cut_ops = obs::counter("solver.cut_ops");
const obs::Counter g_cut_removed = obs::counter("solver.cut_removed");
const obs::Counter g_cut_trimmed = obs::counter("solver.cut_trimmed");
const obs::Counter g_cut_untouched = obs::counter("solver.cut_untouched");

}  // namespace

CutAnalysis cut_operation(const Flow& flow, const CostModel& model,
                          std::size_t server_count) {
  model.validate();
  validate_flow(flow);
  const obs::TraceSpan span("solver/cut_operation");
  CutAnalysis analysis;
  analysis.per_request_optimal_floor = model.lambda;
  analysis.per_request_greedy_ceiling = 2.0 * model.lambda;
  if (flow.empty()) return analysis;

  const RequestIndex index(flow, server_count);
  for (std::size_t i = 1; i < index.node_count(); ++i) {
    const Time t_i = index.time_of(i);
    const ServerId s_i = index.server_of(i);
    const Time t_prev = index.time_of(i - 1);
    const ServerId s_prev = index.server_of(i - 1);

    // The greedy decision (same rule as solver/greedy.cpp).
    const Cost via_transfer =
        model.mu * (t_i - t_prev) + (s_i != s_prev ? model.lambda : 0.0);
    Cost via_cache = kInfiniteCost;
    const std::int32_t p = index.prev_same_server(i);
    if (p >= 0) {
      via_cache = model.mu * (t_i - index.time_of(static_cast<std::size_t>(p)));
    }
    const Cost greedy_step = std::min(via_cache, via_transfer);

    CutEntry entry;
    entry.point_index = i - 1;
    entry.greedy_step = greedy_step;

    if (via_cache <= model.lambda) {
      // Case 1: both schedules serve this request by the same short local
      // cache line; the cut removes it from both sides of the ratio.
      entry.cut = CutClass::kRemoved;
      entry.trimmed_greedy_step = 0.0;
    } else if (model.mu * (t_i - t_prev) > model.lambda) {
      // Case 2: only one copy exists in (t_{i-1}, t_i); the long cache
      // line serving this request is trimmed so that its cache part
      // equals exactly λ.  Whatever option greedy chose, its cache part
      // exceeds λ here, so trimming strictly reduces the step, to at most
      // λ (cache) + λ (transfer) = 2λ.
      entry.cut = CutClass::kTrimmed;
      const bool served_by_cache = via_cache <= via_transfer;
      entry.trimmed_greedy_step =
          model.lambda +
          (!served_by_cache && s_i != s_prev ? model.lambda : 0.0);
      ++analysis.surviving_count;
    } else {
      // Remaining requests: the greedy step is already at most
      // μ(t_i − t_{i−1}) + λ ≤ 2λ.
      entry.cut = CutClass::kUntouched;
      entry.trimmed_greedy_step = std::min(greedy_step, via_transfer);
      ++analysis.surviving_count;
    }
    analysis.trimmed_greedy_cost += entry.trimmed_greedy_step;
    analysis.entries.push_back(entry);
  }
  if (obs::enabled()) {
    g_cut_ops.add(analysis.entries.size());
    std::size_t removed = 0;
    std::size_t trimmed = 0;
    for (const CutEntry& entry : analysis.entries) {
      removed += entry.cut == CutClass::kRemoved ? 1 : 0;
      trimmed += entry.cut == CutClass::kTrimmed ? 1 : 0;
    }
    g_cut_removed.add(removed);
    g_cut_trimmed.add(trimmed);
    g_cut_untouched.add(analysis.entries.size() - removed - trimmed);
  }
  return analysis;
}

}  // namespace dpg
