// The pre-streaming CSV trace parser — a test-only oracle.
//
// trace_from_csv (trace/io.hpp) decodes in one zero-copy pass.  This is the
// parser it replaced: the whole file through util/csv's CsvTable, one
// string per cell.  It shares no code with the streaming decoder, so tests
// cross-check the two, and bench/bm_trace times it as the csv_parse
// throughput baseline.
#pragma once

#include <cstddef>
#include <string>

#include "core/request.hpp"

namespace dpg {

/// Parses `server,time,items` CSV text (header row, any column order) into a
/// sequence.  `server_count`/`item_count` are inferred as max id + 1 unless
/// explicit larger bounds are given.
[[nodiscard]] RequestSequence trace_from_csv_legacy(
    const std::string& text, std::size_t min_server_count = 0,
    std::size_t min_item_count = 0);

}  // namespace dpg
