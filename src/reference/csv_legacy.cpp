#include "reference/csv_legacy.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/csv.hpp"
#include "util/strings.hpp"

namespace dpg {

RequestSequence trace_from_csv_legacy(const std::string& text,
                                      std::size_t min_server_count,
                                      std::size_t min_item_count) {
  const CsvTable table = parse_csv(text);
  const std::size_t server_col = table.column_index("server");
  const std::size_t time_col = table.column_index("time");
  const std::size_t items_col = table.column_index("items");

  std::vector<RequestDraft> requests;
  requests.reserve(table.rows.size());
  std::size_t server_count = std::max<std::size_t>(min_server_count, 1);
  std::size_t item_count = std::max<std::size_t>(min_item_count, 1);
  for (const auto& row : table.rows) {
    RequestDraft r;
    r.server = static_cast<ServerId>(parse_size(row[server_col]));
    r.time = parse_double(row[time_col]);
    for (const std::string& field : split(row[items_col], ';')) {
      r.items.push_back(static_cast<ItemId>(parse_size(field)));
    }
    std::sort(r.items.begin(), r.items.end());
    r.items.erase(std::unique(r.items.begin(), r.items.end()), r.items.end());
    server_count = std::max<std::size_t>(server_count, r.server + 1);
    if (!r.items.empty()) {
      item_count = std::max<std::size_t>(item_count, r.items.back() + 1);
    }
    requests.push_back(std::move(r));
  }
  return RequestSequence(server_count, item_count, std::move(requests));
}

}  // namespace dpg

