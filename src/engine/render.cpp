#include "engine/render.hpp"

#include <cstdio>

#include "util/strings.hpp"
#include "util/table.hpp"

namespace dpg {

namespace {

/// Round-trip formatting for costs (CSV/JSON must reproduce the doubles the
/// engine_test asserts bit-exactly).
std::string format_exact(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string format_count(std::size_t value) {
  return std::to_string(value);
}

}  // namespace

std::vector<std::string> comparison_header() {
  return {"solver",  "total",     "ave",       "cache",
          "transfer", "packages", "transfers", "solve_s"};
}

std::vector<std::string> comparison_row(const RunReport& report) {
  return {report.solver,
          format_fixed(report.total_cost, 2),
          format_fixed(report.ave_cost, 4),
          format_fixed(report.cache_cost, 2),
          format_fixed(report.transfer_cost, 2),
          format_count(report.package_count),
          format_count(report.transfer_events),
          format_fixed(report.solve_seconds, 4)};
}

std::string render_comparison(std::span<const RunReport> reports) {
  TextTable table(comparison_header());
  for (const RunReport& report : reports) {
    table.add_row(comparison_row(report));
  }
  return table.render();
}

std::vector<std::string> report_csv_header() {
  return {"solver",          "total_cost",     "raw_cost",
          "ave_cost",        "cache_cost",     "transfer_cost",
          "item_accesses",   "package_count",  "unpack_events",
          "transfer_events", "cache_segments", "phase1_seconds",
          "solve_seconds"};
}

std::vector<std::string> report_csv_row(const RunReport& report) {
  return {report.solver,
          format_exact(report.total_cost),
          format_exact(report.raw_cost),
          format_exact(report.ave_cost),
          format_exact(report.cache_cost),
          format_exact(report.transfer_cost),
          format_count(report.total_item_accesses),
          format_count(report.package_count),
          format_count(report.unpack_events),
          format_count(report.transfer_events),
          format_count(report.cache_segments),
          format_exact(report.phase1_seconds),
          format_exact(report.solve_seconds)};
}

std::string report_json(const RunReport& report) {
  std::string out = "{";
  out += "\"solver\": \"" + report.solver + "\"";
  const auto number = [&out](const char* key, const std::string& value) {
    out += ", \"";
    out += key;
    out += "\": " + value;
  };
  number("total_cost", format_exact(report.total_cost));
  number("raw_cost", format_exact(report.raw_cost));
  number("ave_cost", format_exact(report.ave_cost));
  number("cache_cost", format_exact(report.cache_cost));
  number("transfer_cost", format_exact(report.transfer_cost));
  number("item_accesses", format_count(report.total_item_accesses));
  number("package_count", format_count(report.package_count));
  number("unpack_events", format_count(report.unpack_events));
  number("transfer_events", format_count(report.transfer_events));
  number("cache_segments", format_count(report.cache_segments));
  number("phase1_seconds", format_exact(report.phase1_seconds));
  number("solve_seconds", format_exact(report.solve_seconds));
  if (!report.metrics.counters.empty() || !report.metrics.histograms.empty()) {
    out += ", \"metrics\": {\"counters\": {";
    for (std::size_t i = 0; i < report.metrics.counters.size(); ++i) {
      const auto& [name, value] = report.metrics.counters[i];
      if (i != 0) out += ", ";
      out += "\"" + name + "\": " + format_count(value);
    }
    out += "}, \"histograms\": {";
    for (std::size_t i = 0; i < report.metrics.histograms.size(); ++i) {
      const auto& [name, data] = report.metrics.histograms[i];
      if (i != 0) out += ", ";
      out += "\"" + name + "\": {\"count\": " + format_count(data.count) +
             ", \"sum\": " + format_count(data.sum) + "}";
    }
    out += "}}";
  }
  out += "}";
  return out;
}

std::string render_metrics(const RunReport& report) {
  TextTable table({"metric", "kind", "value"});
  for (const auto& [name, value] : report.metrics.counters) {
    table.add_row({name, "counter", format_count(value)});
  }
  for (const auto& [name, data] : report.metrics.histograms) {
    table.add_row({name, "histogram",
                   "count=" + format_count(data.count) +
                       " sum=" + format_count(data.sum) +
                       " mean=" + format_fixed(data.count == 0
                                                   ? 0.0
                                                   : static_cast<double>(data.sum) /
                                                         static_cast<double>(data.count),
                                               1)});
  }
  return table.render();
}

std::vector<std::string> metrics_csv_rows(const RunReport& report) {
  std::vector<std::string> rows;
  for (const auto& [name, value] : report.metrics.counters) {
    rows.push_back(report.solver + ",counter," + name + "," +
                   format_count(value));
  }
  for (const auto& [name, data] : report.metrics.histograms) {
    rows.push_back(report.solver + ",histogram," + name + "," +
                   format_count(data.count) + "," + format_count(data.sum));
  }
  return rows;
}

}  // namespace dpg
