// Claim-based trace sources — the one family of feed readers behind
// `dpgreedy serve`.  Any number of decode shards pull blocks concurrently
// from one stream, each claim returning the block plus its global sequence
// number, so the partition side can restore canonical trace order no matter
// which shard decoded what.  At 1×1 the same claims run inline on the
// serving thread (engine/sharded_serve.hpp).
//
//   * SequenceClaimSource — contiguous-range claims over a materialized
//     RequestSequence (the `.dpt` mmap path): a claim takes the next range
//     under a briefly-held mutex, and every block adopts zero-copy views of
//     the sequence's CSR columns.
//   * CsvClaimSource — round-robin raw-chunk claims on a CSV stream
//     (including stdin): a shard takes the source mutex just long enough to
//     slice off the next block's raw lines (byte copying only — no parsing
//     under the lock), then decodes them outside the lock with the csvdec
//     fast path.  Decode runs N-wide; the stream read stays serial because
//     the bytes are.  The stream is read in 1 MiB chunks.
//
// Sequence numbers are consecutive from 0 in claim order, which for both
// sources equals trace order: block seq s covers exactly the rows
// [rows_through(s) − |block|, rows_through(s)) of the stream.
//
// Cadence cuts: set_cadence() makes every block end at the next multiple of
// the snapshot and stats intervals, so a block boundary falls on every
// cadence point whatever the batch size — which is what lets the runtime
// snapshot at exact row counts at every (N, M).
//
// Validation: a CSV row is rejected at decode when a field is malformed,
// its time is not finite and > 0 (csvdec::parse_time), or its time is not
// after the previous row's *in the same block*.  Order across blocks is
// only visible in seq order, so the runtime checks it on the consumer side
// and records a violation through report_error() — the same row is
// rejected at every (N, M).
//
// Error contract: a rejected row poisons its block's *suffix* only.  The
// claiming shard keeps the valid prefix (delivered as a normal block so the
// sequence numbering has no gap, with rows_through counting only the
// prefix), records the smallest failing seq and its full-provenance message
// (source, row, byte offset) via an atomic-min, and every later claim
// returns end-of-stream.  The runtime then suppresses blocks *after* the
// failing seq on the partition side — in-flight claims from other shards
// may have already decoded them — so the engines ingest exactly the
// requests before the rejected row.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <limits>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>

#include "core/request.hpp"
#include "core/request_block.hpp"
#include "core/types.hpp"
#include "trace/csv_decode.hpp"

namespace dpg {

/// Message for a request whose time does not advance past its predecessor's.
[[nodiscard]] std::string backwards_time_message(Time time, Time previous);

/// Thread-safe block claiming: any number of shard threads call claim()
/// concurrently; each successful claim owns one block of the stream.
class ShardClaimSource {
 public:
  /// error_seq() value when no error has been recorded.
  static constexpr std::uint64_t kNoError =
      std::numeric_limits<std::uint64_t>::max();

  virtual ~ShardClaimSource() = default;

  /// Claims the next block of the stream.  On success fills `block`, sets
  /// `seq` (consecutive from 0, claim order == trace order) and
  /// `rows_through` (cumulative data rows over blocks 0..seq) and returns
  /// true.  Returns false at end of stream, after the row limit, or once an
  /// error has been recorded.  A block delivered with a recorded error at
  /// its own seq holds the valid prefix before the bad row (and may be
  /// empty); its rows_through counts that prefix only.
  virtual bool claim(RequestBlock& block, std::uint64_t& seq,
                     std::size_t& rows_through) = 0;

  /// Ends every later block at the next multiple of `snapshot_every` and of
  /// `stats_every` (0 = no cut for that interval).  Call before the first
  /// claim; run_sharded_serve calls it with its ServeConfig cadences.
  void set_cadence(std::size_t snapshot_every,
                   std::size_t stats_every) noexcept {
    snapshot_every_ = snapshot_every;
    stats_every_ = stats_every;
  }

  /// Smallest seq whose block failed (kNoError if none).  Monotone: once
  /// set it only decreases, and claims stop issuing new blocks.
  [[nodiscard]] std::uint64_t error_seq() const noexcept {
    return error_seq_.load(std::memory_order_acquire);
  }

  /// Full-provenance message for the error_seq() failure ("" if none).
  [[nodiscard]] std::string error_message() const {
    const std::lock_guard<std::mutex> lock(error_mutex_);
    return error_message_;
  }

  /// Records a failure at `seq`; the smallest seq wins (and keeps its
  /// message) under concurrent reports.  The decoders call it for bad rows,
  /// the runtime for order violations across blocks.
  void report_error(std::uint64_t seq, std::string message);

  /// The source name errors carry (file path, "<stdin>", or "").
  [[nodiscard]] const std::string& label() const noexcept { return label_; }

  /// How errors name 1-based data row `row`: "<source>: row N", or just
  /// "row N" for an unlabelled source.
  [[nodiscard]] std::string row_label(std::size_t row) const;

 protected:
  explicit ShardClaimSource(std::string label = {})
      : label_(std::move(label)) {}

  /// Rows the block starting at stream row `start` may hold: `batch_rows`,
  /// capped so the block ends at the next cadence cut.
  [[nodiscard]] std::size_t block_rows(std::size_t start,
                                       std::size_t batch_rows) const noexcept;

 private:
  std::string label_;
  std::size_t snapshot_every_ = 0;
  std::size_t stats_every_ = 0;
  std::atomic<std::uint64_t> error_seq_{kNoError};
  mutable std::mutex error_mutex_;
  std::string error_message_;
};

/// Contiguous-range claims over a materialized sequence.  The sequence must
/// outlive every block handed out (blocks only view its columns).
class SequenceClaimSource final : public ShardClaimSource {
 public:
  SequenceClaimSource(const RequestSequence& sequence, std::size_t batch_rows,
                      std::size_t limit = 0);

  bool claim(RequestBlock& block, std::uint64_t& seq,
             std::size_t& rows_through) override;

 private:
  const RequestSequence& sequence_;
  std::size_t batch_rows_;
  std::size_t end_;
  std::mutex mutex_;  // guards the two cursors below
  std::size_t next_row_ = 0;
  std::uint64_t next_seq_ = 0;
};

/// Round-robin raw-chunk claims on a CSV stream; decode outside the lock.
class CsvClaimSource final : public ShardClaimSource {
 public:
  /// `source` labels errors (file path or "<stdin>").
  CsvClaimSource(std::istream& in, std::string source, std::size_t batch_rows,
                 std::size_t limit = 0);

  bool claim(RequestBlock& block, std::uint64_t& seq,
             std::size_t& rows_through) override;

  /// Data rows grabbed so far (parsed or poisoned; exact once claims stop).
  [[nodiscard]] std::size_t rows() const noexcept {
    return rows_grabbed_.load(std::memory_order_relaxed);
  }

 private:
  /// One raw data line staged by a claim: [begin, begin+length) into the
  /// claim scratch text, plus its byte offset in the whole stream.
  struct LineRef {
    std::size_t begin = 0;
    std::size_t length = 0;
    std::size_t offset = 0;
  };

  /// Extracts the next line (without '\n'/"\r\n") from the buffered stream,
  /// refilling as needed.  Caller must hold mutex_.  False at end of input.
  bool next_line(std::string_view& line, std::size_t* offset);
  void parse_header_line();

  std::istream& in_;
  std::size_t batch_rows_;
  std::size_t limit_;

  std::mutex mutex_;  // guards everything below (the raw byte stream)
  std::string buffer_;
  std::size_t pos_ = 0;          // consumed prefix of buffer_
  std::size_t base_offset_ = 0;  // stream offset of buffer_[0]
  bool eof_ = false;
  bool header_parsed_ = false;
  csvdec::ColumnLayout layout_;
  bool canonical_ = false;
  std::uint64_t next_seq_ = 0;
  std::atomic<std::size_t> rows_grabbed_{0};
};

}  // namespace dpg
