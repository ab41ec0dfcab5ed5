#include "reference/lower_bound.hpp"

#include "core/flow.hpp"

namespace dpg {

PackedLowerBound packed_lower_bound(const RequestSequence& sequence,
                                    const CostModel& model,
                                    const OptimalOfflineOptions& dp) {
  model.validate();
  OptimalOfflineOptions options = dp;
  options.build_schedule = false;
  PackedLowerBound bound;
  for (ItemId item = 0; item < sequence.item_count(); ++item) {
    bound.sum_item_optima +=
        solve_optimal_offline(make_item_flow(sequence, item), model,
                              sequence.server_count(), options)
            .raw_cost;
  }
  bound.lemma1 = model.alpha * bound.sum_item_optima;
  return bound;
}

}  // namespace dpg
