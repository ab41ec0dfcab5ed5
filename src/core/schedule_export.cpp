#include "core/schedule_export.hpp"

#include <cstdio>
#include <sstream>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace dpg {

std::string schedule_to_csv(const Schedule& schedule) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row({"kind", "server", "from", "begin", "end"});
  char buffer[32];
  const auto number = [&buffer](Time t) {
    std::snprintf(buffer, sizeof buffer, "%.17g", t);
    return std::string(buffer);
  };
  for (const CacheSegment& seg : schedule.segments()) {
    writer.write_row({"cache", std::to_string(seg.server), "",
                      number(seg.begin), number(seg.end)});
  }
  for (const TransferEdge& t : schedule.transfers()) {
    writer.write_row({"transfer", std::to_string(t.to),
                      std::to_string(t.from), number(t.time), number(t.time)});
  }
  return out.str();
}

Schedule schedule_from_csv(const std::string& text, std::size_t group_size) {
  const CsvTable table = parse_csv(text);
  const std::size_t kind_col = table.column_index("kind");
  const std::size_t server_col = table.column_index("server");
  const std::size_t from_col = table.column_index("from");
  const std::size_t begin_col = table.column_index("begin");
  const std::size_t end_col = table.column_index("end");

  Schedule schedule(group_size);
  for (const auto& row : table.rows) {
    if (row[kind_col] == "cache") {
      schedule.add_segment(static_cast<ServerId>(parse_size(row[server_col])),
                           parse_double(row[begin_col]),
                           parse_double(row[end_col]));
    } else if (row[kind_col] == "transfer") {
      schedule.add_transfer(static_cast<ServerId>(parse_size(row[from_col])),
                            static_cast<ServerId>(parse_size(row[server_col])),
                            parse_double(row[begin_col]));
    } else {
      throw IoError("schedule CSV: unknown kind '" + row[kind_col] + "'");
    }
  }
  schedule.count_emitted_since({});
  return schedule;
}

std::string schedule_to_dot(const Schedule& schedule, const Flow& flow,
                            const std::string& title) {
  std::ostringstream out;
  out << "digraph \"" << title << "\" {\n"
      << "  rankdir=LR;\n"
      << "  node [shape=point];\n";
  const auto node = [](ServerId s, Time t) {
    return "\"s" + std::to_string(s) + "@" + format_fixed(t, 3) + "\"";
  };
  for (const CacheSegment& seg : schedule.segments()) {
    out << "  " << node(seg.server, seg.begin) << " -> "
        << node(seg.server, seg.end)
        << " [style=bold, arrowhead=none, label=\"cache "
        << format_fixed(seg.end - seg.begin, 3) << "\"];\n";
  }
  for (const TransferEdge& t : schedule.transfers()) {
    out << "  " << node(t.from, t.time) << " -> " << node(t.to, t.time)
        << " [style=dashed, label=\"transfer\"];\n";
  }
  for (const ServicePoint& p : flow.points) {
    out << "  " << node(p.server, p.time)
        << " [shape=circle, width=0.12, label=\"\", color=red];\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace dpg
