// ServeConfig's fluent builder plumbing: the string-keyed setter and the
// eager range validation, mirroring SolverConfig (solver_config.cpp).
#include "engine/serve_config.hpp"

#include <string>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace dpg {

namespace {

constexpr const char* kValidFields =
    "batch, ring, shards, partitions, route, snapshot_every, stats_every, "
    "probe_chunk, max_requests, listen, prom_out, archive";

constexpr std::size_t kMaxShards = 64;
constexpr std::size_t kMaxPartitions = 64;

}  // namespace

ServeRoute parse_serve_route(std::string_view value) {
  if (value == "server") return ServeRoute::kByServer;
  if (value == "itemset") return ServeRoute::kByItemSet;
  throw InvalidArgument("ServeConfig: route must be 'server' or 'itemset', "
                        "got '" +
                        std::string(value) + "'");
}

const char* serve_route_name(ServeRoute route) noexcept {
  return route == ServeRoute::kByServer ? "server" : "itemset";
}

ServeConfig& ServeConfig::with(std::string_view field, std::string_view value) {
  // Stage the change on a copy so a throw (bad value, failed range check)
  // leaves *this exactly as it was — a half-applied builder call would
  // otherwise poison every later .with on the same object.
  ServeConfig next = *this;
  const auto size_of = [&] {
    try {
      return parse_size(value);
    } catch (const Error&) {
      throw InvalidArgument("ServeConfig: field '" + std::string(field) +
                            "' expects a non-negative integer, got '" +
                            std::string(value) + "'");
    }
  };
  if (field == "batch") {
    next.batch_rows = size_of();
  } else if (field == "ring") {
    next.ring_capacity = size_of();
  } else if (field == "shards") {
    next.shard_count = size_of();
  } else if (field == "partitions") {
    next.partition_count = size_of();
  } else if (field == "route") {
    next.flow_route = parse_serve_route(value);
  } else if (field == "snapshot_every") {
    next.snapshot_interval = size_of();
  } else if (field == "stats_every") {
    next.stats_interval = size_of();
  } else if (field == "probe_chunk") {
    next.probe_chunk_rows = size_of();
  } else if (field == "max_requests") {
    next.max_request_rows = size_of();
  } else if (field == "listen") {
    next.listen_address = value;
  } else if (field == "prom_out") {
    next.prom_path = value;
  } else if (field == "archive") {
    next.archive_path = value;
  } else {
    throw InvalidArgument("ServeConfig: unknown field '" + std::string(field) +
                          "' (valid: " + kValidFields + ")");
  }
  next.validate();  // eager: a bad value throws here, not mid-stream
  *this = std::move(next);
  return *this;
}

void ServeConfig::validate() const {
  if (batch_rows == 0) {
    throw InvalidArgument("ServeConfig: batch must be >= 1");
  }
  if (ring_capacity == 0) {
    throw InvalidArgument("ServeConfig: ring must be >= 1");
  }
  if (shard_count == 0 || shard_count > kMaxShards) {
    throw InvalidArgument("ServeConfig: shards must be in [1, " +
                          std::to_string(kMaxShards) + "], got " +
                          std::to_string(shard_count));
  }
  if (partition_count == 0 || partition_count > kMaxPartitions) {
    throw InvalidArgument("ServeConfig: partitions must be in [1, " +
                          std::to_string(kMaxPartitions) + "], got " +
                          std::to_string(partition_count));
  }
  if (!archive_path.empty() && (shard_count > 1 || partition_count > 1)) {
    throw InvalidArgument(
        "ServeConfig: archive requires shards == 1 and partitions == 1 "
        "(the archive preserves arrival order, which a sharded run does "
        "not reassemble)");
  }
}

}  // namespace dpg
