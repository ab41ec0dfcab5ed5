#include "trace/dpt_stream_writer.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <numeric>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace dpg {

namespace {

// Same counters as trace/dpt.cpp's writer (obs::counter registration is
// idempotent by name, so both translation units share the slots).
const obs::Counter g_dpt_rows_written = obs::counter("trace.dpt_rows_written");
const obs::Counter g_dpt_bytes_written =
    obs::counter("trace.dpt_bytes_written");

// On-disk layout constants — must match trace/dpt.cpp (docs/FORMAT.md).
// The format is frozen at version 1; the byte-identity test against
// write_trace_dpt pins any drift.
constexpr std::uint32_t kEndianMarker = 0x0A0B0C0Du;
constexpr std::size_t kFixedHeaderBytes = 64;
constexpr std::size_t kDescriptorBytes = 40;
constexpr std::size_t kColumnAlignment = 64;
constexpr std::uint32_t kColumnCount = 6;

// Column identifiers (docs/FORMAT.md §column table).
enum ColumnId : std::uint32_t {
  kColServers = 1,         // u32 × n
  kColTimes = 2,           // f64 × n
  kColItemOffsets = 3,     // u64 × (n + 1)
  kColItemsPool = 4,       // u32 × A
  kColPerItemOffsets = 5,  // u64 × (k + 1)
  kColPerItemPool = 6,     // u64 × A
};

inline void put_u32(std::vector<unsigned char>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back((v >> (8 * i)) & 0xFF);
}
inline void put_u64(std::vector<unsigned char>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back((v >> (8 * i)) & 0xFF);
}
inline std::size_t align_up(std::size_t v, std::size_t a) noexcept {
  return (v + a - 1) / a * a;
}

}  // namespace

DptStreamWriter::DptStreamWriter(std::string path,
                                 std::size_t min_server_count,
                                 std::size_t min_item_count)
    : path_(std::move(path)),
      min_server_count_(min_server_count),
      min_item_count_(min_item_count) {
  // The on-disk item_offsets column leads with 0; seed the column and its
  // checksum now so appends only ever feed the new back offset.
  item_offsets_.push_back(0);
  item_offsets_sum_.update(item_offsets_.data(), sizeof(std::size_t));
}

void DptStreamWriter::append_canonical(ServerId server, Time time,
                                       std::span<const ItemId> items) {
  require(!finished_, "DptStreamWriter: append after finish");
  require(time > last_time_ && time > 0.0,
          "DptStreamWriter: times must be strictly increasing and > 0");
  require(!items.empty(), "DptStreamWriter: empty item set");
  last_time_ = time;
  max_server_ = std::max(max_server_, server);
  max_item_ = std::max(max_item_, items.back());  // sorted: back is max

  servers_.push_back(server);
  servers_sum_.update(&servers_.back(), sizeof(ServerId));
  times_.push_back(time);
  times_sum_.update(&times_.back(), sizeof(Time));
  items_pool_.insert(items_pool_.end(), items.begin(), items.end());
  items_pool_sum_.update(items.data(), items.size() * sizeof(ItemId));
  item_offsets_.push_back(items_pool_.size());
  item_offsets_sum_.update(&item_offsets_.back(), sizeof(std::size_t));
}

void DptStreamWriter::append(ServerId server, Time time,
                             std::span<const ItemId> items) {
  row_.assign(items.begin(), items.end());
  std::sort(row_.begin(), row_.end());
  row_.erase(std::unique(row_.begin(), row_.end()), row_.end());
  append_canonical(server, time, std::span<const ItemId>(row_));
}

void DptStreamWriter::append_block(const RequestBlock& block) {
  const std::size_t n = block.size();
  for (std::size_t i = 0; i < n; ++i) {
    append_canonical(block.server_of(i), block.time_of(i), block.items_of(i));
  }
}

void DptStreamWriter::finish() {
  // Columns are memcpy'd verbatim (as in write_trace_dpt) — refuse to build
  // byte-swapped files on a big-endian host.
  static_assert(std::endian::native == std::endian::little,
                "DptStreamWriter stores columns verbatim little-endian");
  static_assert(sizeof(std::size_t) == 8,
                "item_offsets columns are stored as u64");
  require(!finished_, "DptStreamWriter: finish called twice");
  finished_ = true;
  const obs::TraceSpan span("trace/dpt_stream_finish");

  const std::size_t request_count = servers_.size();
  const std::size_t server_count =
      std::max(min_server_count_,
               request_count > 0 ? static_cast<std::size_t>(max_server_) + 1
                                 : std::size_t{0});
  const std::size_t item_count =
      std::max(min_item_count_,
               request_count > 0 ? static_cast<std::size_t>(max_item_) + 1
                                 : std::size_t{0});
  require(server_count > 0,
          "DptStreamWriter: need >= 1 server (empty feed: set "
          "min_server_count)");
  require(item_count > 0,
          "DptStreamWriter: need >= 1 item (empty feed: set min_item_count)");

  // Derived per-item inverted index — the exact counting sort of
  // RequestSequence::build_item_index (count, prefix sum, scatter in row
  // order, shift), so the stored column matches what the sequence builder
  // would have produced for the same rows.
  std::vector<std::size_t> per_item_offsets(item_count + 1, 0);
  for (const ItemId item : items_pool_) ++per_item_offsets[item + 1];
  std::partial_sum(per_item_offsets.begin(), per_item_offsets.end(),
                   per_item_offsets.begin());
  std::vector<std::size_t> per_item_pool(items_pool_.size());
  for (std::size_t i = 0; i < request_count; ++i) {
    for (std::size_t j = item_offsets_[i]; j < item_offsets_[i + 1]; ++j) {
      per_item_pool[per_item_offsets[items_pool_[j]]++] = i;
    }
  }
  for (std::size_t item = item_count; item > 0; --item) {
    per_item_offsets[item] = per_item_offsets[item - 1];
  }
  per_item_offsets[0] = 0;

  // Column table in the canonical order, checksums from the running
  // streams for the append-side columns and one-shot for the two derived
  // ones (which were just built, so they are a single cold scan anyway).
  struct Plan {
    std::uint32_t id;
    const void* data;
    std::uint32_t element_size;
    std::uint64_t element_count;
    std::uint64_t checksum;
  };
  const Plan plans[kColumnCount] = {
      {kColServers, servers_.data(), 4, servers_.size(),
       servers_sum_.digest()},
      {kColTimes, times_.data(), 8, times_.size(), times_sum_.digest()},
      {kColItemOffsets, item_offsets_.data(), 8, item_offsets_.size(),
       item_offsets_sum_.digest()},
      {kColItemsPool, items_pool_.data(), 4, items_pool_.size(),
       items_pool_sum_.digest()},
      {kColPerItemOffsets, per_item_offsets.data(), 8,
       per_item_offsets.size(),
       dpt_checksum(per_item_offsets.data(),
                    per_item_offsets.size() * sizeof(std::size_t))},
      {kColPerItemPool, per_item_pool.data(), 8, per_item_pool.size(),
       // An empty feed has an empty pool whose data() may be null; the
       // empty stream digest equals dpt_checksum of zero bytes.
       per_item_pool.empty()
           ? DptChecksumStream().digest()
           : dpt_checksum(per_item_pool.data(),
                          per_item_pool.size() * sizeof(std::size_t))},
  };

  const std::size_t header_bytes =
      kFixedHeaderBytes + kColumnCount * kDescriptorBytes;
  struct Desc {
    std::uint64_t byte_offset;
    std::uint64_t byte_length;
  };
  Desc descs[kColumnCount];
  std::size_t cursor = align_up(header_bytes, kColumnAlignment);
  for (std::size_t i = 0; i < kColumnCount; ++i) {
    descs[i].byte_offset = cursor;
    descs[i].byte_length = plans[i].element_count * plans[i].element_size;
    cursor = align_up(cursor + descs[i].byte_length, kColumnAlignment);
  }

  std::vector<unsigned char> header;
  header.reserve(align_up(header_bytes, kColumnAlignment));
  // resize + memcpy rather than a range insert: GCC 12 flags the insert
  // after reserve() as -Wstringop-overflow under -fsanitize=thread.
  header.resize(sizeof kDptMagic);
  std::memcpy(header.data(), kDptMagic, sizeof kDptMagic);
  put_u32(header, kEndianMarker);
  put_u32(header, kDptVersion);
  put_u64(header, header_bytes);
  put_u64(header, request_count);
  put_u64(header, server_count);
  put_u64(header, item_count);
  put_u64(header, items_pool_.size());  // item_access_count
  put_u32(header, kColumnCount);
  put_u32(header, 0);  // reserved
  for (std::size_t i = 0; i < kColumnCount; ++i) {
    put_u32(header, plans[i].id);
    put_u32(header, plans[i].element_size);
    put_u64(header, plans[i].element_count);
    put_u64(header, descs[i].byte_offset);
    put_u64(header, descs[i].byte_length);
    put_u64(header, plans[i].checksum);
  }
  header.resize(align_up(header.size(), kColumnAlignment), 0);

  std::ofstream out(path_, std::ios::binary);
  if (!out) throw IoError("cannot write trace file: " + path_);
  out.write(reinterpret_cast<const char*>(header.data()),
            static_cast<std::streamsize>(header.size()));
  std::size_t written = header.size();
  const char zeros[kColumnAlignment] = {};
  for (std::size_t i = 0; i < kColumnCount; ++i) {
    if (written < descs[i].byte_offset) {
      out.write(zeros,
                static_cast<std::streamsize>(descs[i].byte_offset - written));
      written = descs[i].byte_offset;
    }
    if (descs[i].byte_length > 0) {
      out.write(static_cast<const char*>(plans[i].data),
                static_cast<std::streamsize>(descs[i].byte_length));
      written += descs[i].byte_length;
    }
  }
  if (!out) throw IoError("error while writing trace file: " + path_);
  g_dpt_rows_written.add(request_count);
  g_dpt_bytes_written.add(written);
}

}  // namespace dpg
