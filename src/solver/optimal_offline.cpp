#include "solver/optimal_offline.hpp"

#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "solver/dp_backtrack.hpp"
#include "solver/kernels.hpp"
#include "solver/workspace.hpp"
#include "util/error.hpp"

namespace dpg {

namespace {

const obs::Counter g_dp_solves = obs::counter("phase2.dp_solves");
const obs::Counter g_dp_cells = obs::counter("phase2.dp_cells");
const obs::Counter g_workspace_hits = obs::counter("phase2.workspace_reuse_hits");
const obs::Counter g_workspace_local = obs::counter("phase2.workspace_local");
const obs::Histogram g_flow_nodes = obs::histogram("phase2.flow_nodes");

}  // namespace

SolveResult solve_optimal_offline(const Flow& flow, const CostModel& model,
                                  std::size_t server_count,
                                  const OptimalOfflineOptions& options,
                                  SolverWorkspace* workspace) {
  model.validate();
  const obs::TraceSpan span("phase2/dp_solve");
  // All scratch lives in the (caller-provided or local) workspace; repeated
  // solves through one workspace reuse capacity and allocate nothing.
  SolverWorkspace local;
  SolverWorkspace& ws = workspace != nullptr ? *workspace : local;
  // The index build validates the flow in its copy pass.
  if (flow.empty()) {
    validate_flow(flow);
  } else {
    ws.index.rebuild(flow, server_count);
  }
  g_dp_solves.add();
  (workspace != nullptr ? g_workspace_hits : g_workspace_local).add();
  SolveResult result;
  result.schedule = Schedule(flow.group_size);
  if (flow.empty()) {
    result.raw_cost = 0.0;
    result.cost = 0.0;
    return result;
  }

  const RequestIndex& index = ws.index;
  const std::size_t n = index.node_count();  // origin + services
  g_dp_cells.add(n - 1);
  g_flow_nodes.record(n);
  const double mu = model.mu;
  const double lambda = model.lambda;

  // w_j: the cheapest way to serve node j as an *intermediate* under a cache
  // line that spans its time — a λ side-transfer off the line, or j's own
  // local cache link from its previous same-server visit.
  ws.w.assign(n, 0.0);
  std::vector<Cost>& w = ws.w;
  // W: prefix sums of w, W[i] = w_1 + ... + w_i.
  ws.w_prefix.assign(n, 0.0);
  std::vector<Cost>& w_prefix = ws.w_prefix;

  ws.c.assign(n, 0.0);
  std::vector<Cost>& c = ws.c;
  ws.choice.assign(n, DpChoice{});
  std::vector<DpChoice>& choice = ws.choice;
  SuffixMin& suffix = ws.suffix;  // over v_k = C(k) − W(k), pushed as states complete
  suffix.clear();
  suffix.push(0, 0.0);

  // Run the link and w/W passes as flat column kernels (solver/kernels.hpp)
  // over the index's p(i) column, and answer D(i)'s window minimum with a
  // blocked scan over the dense v_k = C(k) − W(k) column — SuffixMin stays
  // as the wide-window backstop.
  const Time* t = index.times().data();
  const ServerId* s = index.servers().data();
  const std::int32_t* prev = index.prev().data();
  ws.link.resize(n);
  kernels::link_costs(t, prev, mu, n, ws.link.data());
  kernels::w_and_prefix(ws.link.data(), lambda, n, w.data(), w_prefix.data());
  ws.v.resize(n);
  double* v = ws.v.data();
  v[0] = 0.0;

  for (std::size_t i = 1; i < n; ++i) {
    // Tr(i): chain through the previous service point.
    const Cost tr =
        c[i - 1] + mu * (t[i] - t[i - 1]) + (s[i] != s[i - 1] ? lambda : 0.0);
    // D(i): cache line on s_i from the previous same-server visit p(i);
    // every node between the split k and i is served for w_j.
    Cost line = kInfiniteCost;
    std::int32_t line_k = -1;
    const std::int32_t p = prev[i];
    if (p >= 0) {
      const Cost base =
          mu * (t[i] - t[static_cast<std::size_t>(p)]) + w_prefix[i - 1];
      if (i - static_cast<std::size_t>(p) <= kernels::kWindowScanThreshold) {
        const auto [arg, best] =
            kernels::window_min(v, static_cast<std::size_t>(p), i);
        line = base + best;
        line_k = arg;
      } else {
        const auto [arg, best] = suffix.query(p);
        if (best < kInfiniteCost) {
          line = base + best;
          line_k = arg;
        }
      }
    }
    if (line < tr) {
      c[i] = line;
      choice[i] = DpChoice{true, line_k};
    } else {
      c[i] = tr;
      choice[i] = DpChoice{false, static_cast<std::int32_t>(i) - 1};
    }
    v[i] = c[i] - w_prefix[i];
    suffix.push(static_cast<std::int32_t>(i), v[i]);
  }

  result.raw_cost = c[n - 1];
  result.cost = model.flow_multiplier(flow.group_size) * result.raw_cost;
  if (options.build_schedule) {
    backtrack_dp_schedule(index, choice, model, result.schedule);
  }
  return result;
}

void backtrack_dp_schedule(const RequestIndex& index,
                           std::span<const DpChoice> choice,
                           const CostModel& model, Schedule& schedule) {
  // Each step explains how node i and the nodes between the predecessor
  // state and i are physically served.
  const double mu = model.mu;
  const double lambda = model.lambda;
  const Schedule::Mark start = schedule.mark();
  std::size_t i = index.node_count() - 1;
  while (i > 0) {
    const DpChoice& ch = choice[i];
    const Time t_i = index.time_of(i);
    const ServerId s_i = index.server_of(i);
    if (ch.via_line) {
      const auto p = static_cast<std::size_t>(index.prev_same_server(i));
      schedule.add_segment(s_i, index.time_of(p), t_i);
      const auto k = static_cast<std::size_t>(ch.split_k);
      // Intermediates: local cache link when that is what w_j priced,
      // otherwise a side transfer off the line.
      for (std::size_t j = k + 1; j < i; ++j) {
        const std::int32_t pj = index.prev_same_server(j);
        const bool local_chosen =
            pj >= 0 &&
            mu * (index.time_of(j) -
                  index.time_of(static_cast<std::size_t>(pj))) < lambda;
        if (local_chosen) {
          schedule.add_segment(index.server_of(j),
                               index.time_of(static_cast<std::size_t>(pj)),
                               index.time_of(j));
        } else {
          schedule.add_transfer(s_i, index.server_of(j), index.time_of(j));
        }
      }
      i = k;
    } else {
      const ServerId s_prev = index.server_of(i - 1);
      schedule.add_segment(s_prev, index.time_of(i - 1), t_i);
      if (s_prev != s_i) schedule.add_transfer(s_prev, s_i, t_i);
      i = i - 1;
    }
  }
  schedule.count_emitted_since(start);
}

}  // namespace dpg
