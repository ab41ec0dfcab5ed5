#include "reference/temporal_correlation.hpp"

#include <algorithm>

#include "solver/correlation.hpp"
#include "util/error.hpp"

namespace dpg {

std::vector<WindowedJaccardPoint> windowed_jaccard_series(
    const RequestSequence& sequence, ItemId a, ItemId b, std::size_t window,
    std::size_t stride) {
  require(a < sequence.item_count() && b < sequence.item_count() && a != b,
          "windowed_jaccard_series: bad item pair");
  require(window > 0 && stride > 0,
          "windowed_jaccard_series: window and stride must be positive");
  std::vector<WindowedJaccardPoint> series;
  if (sequence.size() < window) return series;

  // Rolling counts over the request window.
  std::size_t freq_a = 0, freq_b = 0, co = 0;
  const auto bump = [&](const Request& r, std::ptrdiff_t delta) {
    const bool has_a = r.contains(a);
    const bool has_b = r.contains(b);
    const auto apply = [delta](std::size_t& value) {
      value = static_cast<std::size_t>(
          static_cast<std::ptrdiff_t>(value) + delta);
    };
    if (has_a) apply(freq_a);
    if (has_b) apply(freq_b);
    if (has_a && has_b) apply(co);
  };
  for (std::size_t i = 0; i < window; ++i) bump(sequence[i], +1);
  series.push_back(WindowedJaccardPoint{
      sequence[window - 1].time, jaccard_similarity(freq_a, freq_b, co)});
  for (std::size_t end = window; end < sequence.size(); ++end) {
    bump(sequence[end], +1);
    bump(sequence[end - window], -1);
    if ((end - window + 1) % stride == 0) {
      series.push_back(WindowedJaccardPoint{
          sequence[end].time, jaccard_similarity(freq_a, freq_b, co)});
    }
  }
  return series;
}

DilutionReport measure_dilution(const RequestSequence& sequence, ItemId a,
                                ItemId b, std::size_t window) {
  DilutionReport report;
  report.global_jaccard = jaccard_similarity(sequence.item_frequency(a),
                                             sequence.item_frequency(b),
                                             sequence.pair_frequency(a, b));
  const auto series = windowed_jaccard_series(sequence, a, b, window, 1);
  if (series.empty()) {
    report.peak_windowed = report.global_jaccard;
    report.mean_windowed = report.global_jaccard;
    return report;
  }
  double sum = 0.0;
  for (const WindowedJaccardPoint& point : series) {
    report.peak_windowed = std::max(report.peak_windowed, point.jaccard);
    sum += point.jaccard;
  }
  report.mean_windowed = sum / static_cast<double>(series.size());
  return report;
}

}  // namespace dpg
