// Section V-B — the O(mn^2) time / O(mn) space claims, measured.
//
// We time the literal Section-V recurrence (the reference DP's O(n) inner
// scan per node, the paper's O(mn^2)) against the production window-min DP
// across n, fit the time-vs-n power law, and account the index footprint:
// the paper's pLast snapshots take (n+1)·m·4 bytes, O(mn); the production
// RequestIndex keeps only p(i) and takes O(n + m).  Both sides are warmed up before timing and alternate
// which one runs first, so neither pays for a cold cache the other skips.
#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/request_index.hpp"
#include "harness_solvers.hpp"
#include "trace/generators.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace dpg;

namespace {

Flow flow_of_first_item(const RequestSequence& seq) {
  return make_item_flow(seq, 0);
}

/// Bytes of the paper's Fig. 8 pLast snapshots: one m-size int32 array per
/// node, origin included.
std::size_t paper_snapshot_bytes(const Flow& flow, std::size_t m) {
  return (flow.size() + 1) * m * sizeof(std::int32_t);
}

/// Bytes the production index holds for `flow`.
std::size_t production_index_bytes(const Flow& flow, std::size_t m) {
  return RequestIndex(flow, m).footprint_bytes();
}

/// One solve without schedule reconstruction, in seconds: the reference
/// DP's literal scan (`naive`) or the production window-min DP.
double time_one_solve(const Flow& flow, const CostModel& model, std::size_t m,
                      bool naive) {
  const Stopwatch watch;
  if (naive) {
    (void)reference::solve_optimal_offline_reference(
        flow, model, m, reference::RangeMin::kLiteralScan,
        /*build_schedule=*/false);
  } else {
    OptimalOfflineOptions options;
    options.build_schedule = false;
    (void)solve_optimal_offline(flow, model, m, options);
  }
  return watch.elapsed_seconds();
}

struct PairTiming {
  double naive = 0.0;  // mean seconds per solve
  double fast = 0.0;
};

/// One untimed warm-up solve of each side, then `repeats` timed rounds of
/// one solve each; odd rounds run the window-min side first.
PairTiming time_both(const Flow& flow, const CostModel& model, std::size_t m,
                     int repeats) {
  (void)time_one_solve(flow, model, m, true);
  (void)time_one_solve(flow, model, m, false);
  PairTiming timing;
  for (int r = 0; r < repeats; ++r) {
    const bool naive_first = r % 2 == 0;
    const double first = time_one_solve(flow, model, m, naive_first);
    const double second = time_one_solve(flow, model, m, !naive_first);
    timing.naive += naive_first ? first : second;
    timing.fast += naive_first ? second : first;
  }
  timing.naive /= repeats;
  timing.fast /= repeats;
  return timing;
}

}  // namespace

int main() {
  std::printf("Section V-B: time O(mn^2), space O(mn) — measured scaling\n\n");
  const CostModel model{1.0, 1.0, 0.8};
  const std::size_t m = 16;

  // Adversarial request pattern for the naive scan: frequent same-server
  // revisits keep the D-window wide.
  TextTable table({"n", "naive (ms)", "window-min (ms)", "paper (n+1)*m*4 B",
                   "index B"});
  std::vector<double> ns, naive_times, fast_times;
  for (const std::size_t n : {500u, 1000u, 2000u, 4000u, 8000u}) {
    UniformTraceConfig config;
    config.server_count = m;
    config.item_count = 1;
    config.request_count = n;
    Rng rng(7);
    const RequestSequence seq = generate_uniform_trace(config, rng);
    const Flow flow = flow_of_first_item(seq);

    const int repeats = n <= 1000 ? 20 : 6;
    const auto [naive, fast] = time_both(flow, model, m, repeats);
    ns.push_back(static_cast<double>(n));
    naive_times.push_back(naive);
    fast_times.push_back(fast);
    table.add_row({std::to_string(n), format_fixed(naive * 1e3, 3),
                   format_fixed(fast * 1e3, 3),
                   std::to_string(paper_snapshot_bytes(flow, m)),
                   std::to_string(production_index_bytes(flow, m))});
  }
  std::printf("%s\n", table.render().c_str());

  const PowerFit naive_fit = fit_power_law(ns, naive_times);
  const PowerFit fast_fit = fit_power_law(ns, fast_times);
  std::printf("naive D-scan   : time ~ n^%s (R^2 %s) on uniform traces\n",
              format_fixed(naive_fit.exponent, 2).c_str(),
              format_fixed(naive_fit.r_squared, 3).c_str());
  std::printf("window-min     : time ~ n^%s (R^2 %s) — near-linear\n",
              format_fixed(fast_fit.exponent, 2).c_str(),
              format_fixed(fast_fit.r_squared, 3).c_str());
  std::printf("space          : the paper's snapshots are (n+1)*m*4 bytes = "
              "O(mn); the index keeps p(i) only, O(n + m)\n\n");

  // Worst case: the round-robin pattern keeps every D window m nodes wide,
  // so the naive scan does Θ(mn) = Θ(n²/rounds) work — the paper's O(mn²)
  // term made visible.
  std::printf("adversarial round-robin pattern (m = n/4, the O(mn^2) regime):\n");
  TextTable adversarial({"n", "naive (ms)", "window-min (ms)",
                         "paper (n+1)*m*4 B", "index B"});
  std::vector<double> adv_ns, adv_naive;
  for (const std::size_t n : {1024u, 2048u, 4096u, 8192u}) {
    AdversarialWindowConfig config;
    config.server_count = n / 4;
    config.rounds = 4;
    const RequestSequence seq = generate_adversarial_window_trace(config);
    const Flow flow = flow_of_first_item(seq);
    const int repeats = n <= 2048 ? 10 : 4;
    const auto [naive, fast] =
        time_both(flow, model, config.server_count, repeats);
    adv_ns.push_back(static_cast<double>(n));
    adv_naive.push_back(naive);
    adversarial.add_row(
        {std::to_string(n), format_fixed(naive * 1e3, 3),
         format_fixed(fast * 1e3, 3),
         std::to_string(paper_snapshot_bytes(flow, config.server_count)),
         std::to_string(production_index_bytes(flow, config.server_count))});
  }
  std::printf("%s\n", adversarial.render().c_str());
  const PowerFit adv_fit = fit_power_law(adv_ns, adv_naive);
  std::printf("naive D-scan on the adversarial pattern: time ~ n^%s "
              "(R^2 %s) — the quadratic worst case\n",
              format_fixed(adv_fit.exponent, 2).c_str(),
              format_fixed(adv_fit.r_squared, 3).c_str());
  return 0;
}
