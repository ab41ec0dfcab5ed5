#include "trace/shard_source.hpp"

#include <algorithm>
#include <charconv>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace dpg {

namespace {

// Same parse counters as the other CSV readers, so `trace.*` metrics cover
// the serve ingest path too.
const obs::Counter g_rows_parsed = obs::counter("trace.rows_parsed");
const obs::Counter g_bytes_parsed = obs::counter("trace.bytes_parsed");

// One IO chunk: big enough to amortize istream::read, small enough to stay
// cache-friendly.  A trickling pipe is therefore served per chunk or at EOF.
constexpr std::size_t kReadChunkBytes = 1u << 20;

/// Shortest round-trip text of a time ("2", "0.125", "inf").
std::string time_text(Time time) {
  char buffer[32];
  const auto end = std::to_chars(buffer, buffer + sizeof buffer, time).ptr;
  return std::string(buffer, end);
}

/// Rows from `start` to the next multiple of `every` (0 = never).
std::size_t rows_to_cut(std::size_t start, std::size_t every) noexcept {
  return every == 0 ? static_cast<std::size_t>(-1) : every - start % every;
}

}  // namespace

std::string backwards_time_message(Time time, Time previous) {
  return "time " + time_text(time) + " is not after the previous request's " +
         "time " + time_text(previous) +
         " (request times must be strictly increasing)";
}

// ---------------------------------------------------------------------------
// ShardClaimSource

void ShardClaimSource::report_error(std::uint64_t seq, std::string message) {
  // Atomic-min on the failing seq; the winning (smallest) seq keeps its
  // message, because only requests before *it* were served.
  std::uint64_t current = error_seq_.load(std::memory_order_relaxed);
  while (seq < current && !error_seq_.compare_exchange_weak(
                              current, seq, std::memory_order_acq_rel)) {
  }
  if (seq <= error_seq_.load(std::memory_order_acquire)) {
    const std::lock_guard<std::mutex> lock(error_mutex_);
    // Re-check under the lock: a smaller seq may have won the race between
    // our CAS and here.
    if (seq <= error_seq_.load(std::memory_order_acquire)) {
      error_message_ = std::move(message);
    }
  }
}

std::string ShardClaimSource::row_label(std::size_t row) const {
  const std::string row_text = "row " + std::to_string(row);
  return label_.empty() ? row_text : label_ + ": " + row_text;
}

std::size_t ShardClaimSource::block_rows(std::size_t start,
                                         std::size_t batch_rows) const noexcept {
  return std::min({batch_rows, rows_to_cut(start, snapshot_every_),
                   rows_to_cut(start, stats_every_)});
}

// ---------------------------------------------------------------------------
// SequenceClaimSource

SequenceClaimSource::SequenceClaimSource(const RequestSequence& sequence,
                                         std::size_t batch_rows,
                                         std::size_t limit)
    : sequence_(sequence),
      batch_rows_(batch_rows),
      end_(limit == 0 ? sequence.size() : std::min(limit, sequence.size())) {
  require(batch_rows_ > 0, "SequenceClaimSource: batch_rows must be >= 1");
}

bool SequenceClaimSource::claim(RequestBlock& block, std::uint64_t& seq,
                                std::size_t& rows_through) {
  std::size_t start = 0;
  std::size_t n = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    start = next_row_;
    if (start >= end_ || error_seq() != kNoError) {
      block.clear();
      return false;
    }
    n = std::min(block_rows(start, batch_rows_), end_ - start);
    next_row_ = start + n;
    seq = next_seq_++;
  }
  // Offsets stay absolute into the full items pool; the block indexes the
  // pool base directly, so the slice is pure pointer arithmetic.
  const SequenceColumns columns = sequence_.columns();
  block.adopt(columns.servers.subspan(start, n),
              columns.times.subspan(start, n),
              columns.item_offsets.subspan(start, n + 1), columns.items_pool);
  rows_through = start + n;
  return true;
}

// ---------------------------------------------------------------------------
// CsvClaimSource

CsvClaimSource::CsvClaimSource(std::istream& in, std::string source,
                               std::size_t batch_rows, std::size_t limit)
    : ShardClaimSource(std::move(source)), in_(in), batch_rows_(batch_rows),
      limit_(limit) {
  require(batch_rows_ > 0, "CsvClaimSource: batch_rows must be >= 1");
  buffer_.reserve(kReadChunkBytes + 4096);
}

bool CsvClaimSource::next_line(std::string_view& line, std::size_t* offset) {
  for (;;) {
    const std::size_t newline = buffer_.find('\n', pos_);
    if (newline != std::string::npos) {
      *offset = base_offset_ + pos_;
      line = std::string_view(buffer_).substr(pos_, newline - pos_);
      pos_ = newline + 1;
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      return true;
    }
    if (eof_) {
      if (pos_ >= buffer_.size()) return false;
      // Final line without a trailing newline.
      *offset = base_offset_ + pos_;
      line = std::string_view(buffer_).substr(pos_);
      pos_ = buffer_.size();
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      return true;
    }
    // Compact the consumed prefix, then pull the next chunk.
    if (pos_ > 0) {
      buffer_.erase(0, pos_);
      base_offset_ += pos_;
      pos_ = 0;
    }
    const std::size_t old_size = buffer_.size();
    buffer_.resize(old_size + kReadChunkBytes);
    in_.read(buffer_.data() + old_size,
             static_cast<std::streamsize>(kReadChunkBytes));
    const std::size_t got = static_cast<std::size_t>(in_.gcount());
    buffer_.resize(old_size + got);
    if (got == 0) {
      if (in_.bad()) {
        throw IoError(label() + ": read error at byte offset " +
                      std::to_string(base_offset_ + buffer_.size()));
      }
      eof_ = true;
    }
  }
}

void CsvClaimSource::parse_header_line() {
  header_parsed_ = true;
  std::string_view header;
  std::size_t offset = 0;
  if (!next_line(header, &offset)) {
    throw IoError(label() + ": empty input (no CSV header)");
  }
  try {
    layout_ = csvdec::parse_header(header);
  } catch (const Error& e) {
    throw IoError(label() + ": " + e.what());
  }
  canonical_ = layout_.canonical();
}

bool CsvClaimSource::claim(RequestBlock& block, std::uint64_t& seq,
                           std::size_t& rows_through) {
  block.clear();

  // Per-thread claim scratch: the raw bytes of this claim's lines plus
  // their locations.  thread_local (not per-call) so a shard's repeated
  // claims reuse warm capacity; cleared on entry, never used re-entrantly.
  thread_local std::string text;
  thread_local std::vector<LineRef> lines;
  text.clear();
  lines.clear();

  std::size_t start_row = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (error_seq() != kNoError) return false;
    try {
      if (!header_parsed_) parse_header_line();
      start_row = rows_grabbed_.load(std::memory_order_relaxed);
      std::size_t want = block_rows(start_row, batch_rows_);
      if (limit_ > 0) want = std::min(want, limit_ - start_row);
      while (lines.size() < want) {
        std::string_view line;
        std::size_t offset = 0;
        if (!next_line(line, &offset)) break;
        if (line.empty()) continue;
        lines.push_back(LineRef{text.size(), line.size(), offset});
        text.append(line);
      }
    } catch (const Error& e) {
      // A missing header or an unreadable stream fails the feed at the
      // next seq: every block claimed before it is still served.
      report_error(next_seq_, e.what());
      return false;
    }
    if (lines.empty()) return false;  // end of stream / limit reached
    seq = next_seq_++;
    rows_grabbed_.store(start_row + lines.size(), std::memory_order_relaxed);
  }

  // Decode outside the lock — this is the part that runs N shards wide.
  std::size_t bytes = 0;
  for (std::size_t r = 0; r < lines.size(); ++r) {
    const LineRef& ref = lines[r];
    const std::string_view line =
        std::string_view(text).substr(ref.begin, ref.length);
    try {
      const csvdec::RowFields fields =
          csvdec::split_row(line, layout_, canonical_);
      const auto server = static_cast<ServerId>(
          csvdec::fast_parse_size(csvdec::strip_quotes(fields.server)));
      const Time time = csvdec::parse_time(csvdec::strip_quotes(fields.time));
      if (!block.empty() && !(time > block.time_of(block.size() - 1))) {
        throw IoError(
            backwards_time_message(time, block.time_of(block.size() - 1)));
      }
      block.begin_row(server, time);
      csvdec::parse_item_list(fields.items,
                              [&](ItemId item) { block.push_item(item); });
      block.end_row();  // sorts + deduplicates — push_batch relies on it
    } catch (const Error& e) {
      // Keep the valid prefix; the block still ships (possibly empty) so
      // the seq numbering has no gap.  The runtime suppresses seqs after
      // this one on the partition side.
      block.abort_row();
      report_error(seq, row_label(start_row + r + 1) + " (byte offset " +
                            std::to_string(ref.offset) + "): " + e.what());
      break;
    }
    bytes += ref.length + 1;
  }
  rows_through = start_row + block.size();

  g_rows_parsed.add(block.size());
  g_bytes_parsed.add(bytes);
  return true;
}

}  // namespace dpg
