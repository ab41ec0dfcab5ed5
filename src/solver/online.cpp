#include "solver/online.hpp"

#include "obs/trace.hpp"
#include "solver/online_state.hpp"

namespace dpg {

// Thin driver over OnlineBreakEvenState (solver/online_state.hpp): the
// whole flow is one batch, bit-identical to advancing point by point.
OnlineResult solve_online_break_even(const Flow& flow, const CostModel& model,
                                     std::size_t server_count,
                                     const OnlineOptions& options) {
  validate_flow(flow);
  const obs::TraceSpan span("online/break_even");
  OnlineBreakEvenState state(model, server_count, flow.group_size, options);
  state.advance_batch(flow.points);
  return state.finish();
}

}  // namespace dpg
