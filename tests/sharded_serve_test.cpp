// The sharded serve surface: ServeConfig (the unified builder every serve
// entry point parses into), serve_partition_of routing, the deterministic
// merge, and run_sharded_serve itself.
//
// The load-bearing guarantee mirrors the pipeline suite one level up: for a
// fixed partition count M, the merged report and every barrier snapshot are
// bit-identical across every shard count, batch size and thread schedule —
// and at M = 1 they are bit-identical to the per-push engine (checked
// against the same full-precision goldens as streaming_pipeline_test.cpp),
// 1×1 (inline, no threads) included.  The reference implementation here
// routes rows serially through M engines with the same hash, so any
// divergence in the runtime (ordering, holdback, barriers, merge) is a test
// failure, not an FP tolerance.
//
// ShardedServe.* runs under TSan in CI alongside the ring suites.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/time.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dpgreedy.hpp"
#include "test_support.hpp"

namespace dpg {
namespace {

// Same fixture family as streaming_pipeline_test.cpp.
RequestSequence golden_trace() {
  Rng rng(77);
  ZipfTraceConfig config;
  config.server_count = 12;
  config.item_count = 20;
  config.request_count = 3000;
  return generate_zipf_trace(config, rng);
}

const CostModel kModel{/*mu=*/1.0, /*lambda=*/1.0, /*alpha=*/0.8};

OnlineDpGreedyOptions grid_options(std::size_t window, std::size_t repack) {
  OnlineDpGreedyOptions options;
  options.theta = 0.4;
  options.window = window;
  options.repack_interval = repack;
  return options;
}

// The per-push goldens of streaming_engine_test.cpp: at M = 1 the sharded
// merge must reproduce these exactly, whatever N does.
struct GoldenPoint {
  std::size_t window;
  std::size_t repack;
  double total_cost;
};
const GoldenPoint kGoldens[] = {
    {8, 1, 14958.483180793215},   {8, 10, 27063.124579415682},
    {8, 50, 31447.265805422317},  {50, 1, 20069.8921332885},
    {50, 10, 23070.892026151188}, {50, 50, 24267.762421796473},
    {200, 1, 24953.503597318482}, {200, 10, 25077.374114509668},
    {200, 50, 25376.592943394997},
};

void expect_reports_equal(const RunReport& a, const RunReport& b,
                          const std::string& label) {
  EXPECT_EQ(a.total_cost, b.total_cost) << label;
  EXPECT_EQ(a.raw_cost, b.raw_cost) << label;
  EXPECT_EQ(a.ave_cost, b.ave_cost) << label;
  EXPECT_EQ(a.cache_cost, b.cache_cost) << label;
  EXPECT_EQ(a.transfer_cost, b.transfer_cost) << label;
  EXPECT_EQ(a.total_item_accesses, b.total_item_accesses) << label;
  EXPECT_EQ(a.package_count, b.package_count) << label;
  EXPECT_EQ(a.unpack_events, b.unpack_events) << label;
  EXPECT_EQ(a.transfer_events, b.transfer_events) << label;
}

void expect_snapshots_equal(const StreamingSnapshot& a,
                            const StreamingSnapshot& b,
                            const std::string& label) {
  expect_reports_equal(a.report, b.report, label + " report");
  expect_reports_equal(a.delta, b.delta, label + " delta");
  EXPECT_EQ(a.requests, b.requests) << label;
  EXPECT_EQ(a.epoch, b.epoch) << label;
  EXPECT_EQ(a.live_packages, b.live_packages) << label;
  EXPECT_EQ(a.item_count, b.item_count) << label;
  EXPECT_EQ(a.online_probe_cost, b.online_probe_cost) << label;
  EXPECT_EQ(a.offline_probe_cost, b.offline_probe_cost) << label;
  EXPECT_EQ(a.cost_ratio, b.cost_ratio) << label;
  EXPECT_EQ(a.probe_chunks, b.probe_chunks) << label;
  EXPECT_EQ(a.state_alloc_events, b.state_alloc_events) << label;
}

/// The serial reference for the N×M runtime: route every row with the same
/// hash into M per-push engines in global trace order, snapshot all of them
/// (partition-index order) at every multiple of the snapshot interval, then
/// finish + merge.  Matches ShardedServeResult field-for-field so tests can
/// diff the two directly.
struct ReferenceRun {
  ShardedServeResult result;
  std::vector<StreamingSnapshot> snapshots;
  std::vector<std::size_t> snapshot_rows;
};

ReferenceRun reference_partitioned_run(const RequestSequence& trace,
                                       const ServeConfig& config,
                                       const StreamingOptions& options) {
  const std::size_t partitions = config.partition_count;
  std::vector<std::unique_ptr<StreamingEngine>> engines;
  for (std::size_t j = 0; j < partitions; ++j) {
    engines.push_back(std::make_unique<StreamingEngine>(kModel, options));
  }

  ReferenceRun run;
  const std::size_t interval = config.snapshot_interval;
  for (std::size_t r = 0; r < trace.size(); ++r) {
    const std::size_t j = serve_partition_of(
        trace.server_of(r), trace.items_of(r), config.flow_route, partitions);
    engines[j]->push(trace.server_of(r), trace.time_of(r), trace.items_of(r));
    if (interval > 0 && (r + 1) % interval == 0) {
      std::vector<StreamingSnapshot> parts;
      for (std::size_t k = 0; k < partitions; ++k) {
        parts.push_back(engines[k]->snapshot());
      }
      run.snapshots.push_back(merge_partition_snapshots(parts));
      run.snapshot_rows.push_back(r + 1);
    }
  }

  for (std::size_t j = 0; j < partitions; ++j) {
    run.result.partition_reports.push_back(engines[j]->finish());
    run.result.epoch = std::max(run.result.epoch, engines[j]->epoch());
    run.result.probe_chunks += engines[j]->probe_chunks();
  }
  run.result.report = merge_partition_reports(run.result.partition_reports);
  Cost online = 0.0;
  Cost offline = 0.0;
  for (std::size_t j = 0; j < partitions; ++j) {
    online += engines[j]->online_probe_cost();
    offline += engines[j]->offline_probe_cost();
  }
  run.result.cost_ratio = offline > 0.0 ? online / offline : 0.0;
  return run;
}

// ---------------------------------------------------------------------------
// ServeConfig

TEST(ServeConfig, DefaultsValidateAndFluentSettersChain) {
  ServeConfig config;
  EXPECT_NO_THROW(config.validate());
  config.batch(512)
      .ring(4)
      .shards(3)
      .partitions(2)
      .route(ServeRoute::kByItemSet)
      .snapshot_every(5000)
      .stats_every(100)
      .probe_chunk(256)
      .max_requests(9999)
      .listen("127.0.0.1:9100")
      .prom_out("metrics.prom");
  EXPECT_EQ(config.batch_rows, 512u);
  EXPECT_EQ(config.ring_capacity, 4u);
  EXPECT_EQ(config.shard_count, 3u);
  EXPECT_EQ(config.partition_count, 2u);
  EXPECT_EQ(config.flow_route, ServeRoute::kByItemSet);
  EXPECT_EQ(config.snapshot_interval, 5000u);
  EXPECT_EQ(config.stats_interval, 100u);
  EXPECT_EQ(config.probe_chunk_rows, 256u);
  EXPECT_EQ(config.max_request_rows, 9999u);
  EXPECT_EQ(config.listen_address, "127.0.0.1:9100");
  EXPECT_EQ(config.prom_path, "metrics.prom");
  EXPECT_NO_THROW(config.validate());
}

TEST(ServeConfig, WithParsesEveryField) {
  ServeConfig config;
  config.with("batch", "2048")
      .with("ring", "16")
      .with("shards", "4")
      .with("partitions", "8")
      .with("route", "itemset")
      .with("snapshot_every", "12345")
      .with("stats_every", "77")
      .with("probe_chunk", "500")
      .with("max_requests", "1000000")
      .with("listen", "0.0.0.0:9100")
      .with("prom_out", "/tmp/serve.prom");
  EXPECT_EQ(config.batch_rows, 2048u);
  EXPECT_EQ(config.ring_capacity, 16u);
  EXPECT_EQ(config.shard_count, 4u);
  EXPECT_EQ(config.partition_count, 8u);
  EXPECT_EQ(config.flow_route, ServeRoute::kByItemSet);
  EXPECT_EQ(config.snapshot_interval, 12345u);
  EXPECT_EQ(config.stats_interval, 77u);
  EXPECT_EQ(config.probe_chunk_rows, 500u);
  EXPECT_EQ(config.max_request_rows, 1000000u);
  EXPECT_EQ(config.listen_address, "0.0.0.0:9100");
  EXPECT_EQ(config.prom_path, "/tmp/serve.prom");

  // The archive field composes with the 1×1 restriction.
  ServeConfig archive;
  archive.with("archive", "feed.dpt");
  EXPECT_EQ(archive.archive_path, "feed.dpt");
}

TEST(ServeConfig, WithThrowsNamingTheOffense) {
  ServeConfig config;
  try {
    config.with("shardz", "2");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shardz"), std::string::npos) << what;
    EXPECT_NE(what.find("partitions"), std::string::npos)
        << "should list valid fields: " << what;
  }
  EXPECT_THROW(config.with("route", "round_robin"), InvalidArgument);
  EXPECT_THROW(config.with("batch", "not_a_number"), InvalidArgument);
  // Eager range validation at the .with call site.
  EXPECT_THROW(config.with("shards", "0"), InvalidArgument);
  EXPECT_THROW(config.with("partitions", "65"), InvalidArgument);
  // The failed calls left the config valid.
  EXPECT_NO_THROW(config.validate());
}

TEST(ServeConfig, ValidateNamesTheOffendingField) {
  const auto message_of = [](const ServeConfig& config) {
    try {
      config.validate();
    } catch (const InvalidArgument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  ServeConfig config;
  config.batch_rows = 0;
  EXPECT_NE(message_of(config).find("batch"), std::string::npos);
  config = ServeConfig{};
  config.ring_capacity = 0;
  EXPECT_NE(message_of(config).find("ring"), std::string::npos);
  config = ServeConfig{};
  config.shard_count = 65;
  EXPECT_NE(message_of(config).find("shards"), std::string::npos);
  config = ServeConfig{};
  config.partition_count = 0;
  EXPECT_NE(message_of(config).find("partitions"), std::string::npos);
  config = ServeConfig{};
  config.archive_path = "feed.dpt";
  EXPECT_NO_THROW(config.validate());  // archive at 1×1 is fine
  config.shard_count = 2;
  EXPECT_NE(message_of(config).find("archive"), std::string::npos);
}

TEST(ServeConfig, RouteAndTopologyNamesRoundTrip) {
  EXPECT_EQ(parse_serve_route(serve_route_name(ServeRoute::kByServer)),
            ServeRoute::kByServer);
  EXPECT_EQ(parse_serve_route(serve_route_name(ServeRoute::kByItemSet)),
            ServeRoute::kByItemSet);
  // There is one transport and one serve path, so neither a topology nor
  // a pipeline switch is a field.
  ServeConfig config;
  EXPECT_THROW(config.with("topology", "crossbar"), InvalidArgument);
  EXPECT_THROW(config.with("pipeline", "on"), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Routing

TEST(ServePartitionOf, IsStableInRangeAndRespectsTheRoute) {
  const std::vector<ItemId> items = {3, 9, 14};
  for (std::size_t m : {1u, 2u, 5u, 64u}) {
    for (ServerId server = 0; server < 50; ++server) {
      const std::size_t by_server = serve_partition_of(
          server, items, ServeRoute::kByServer, m);
      EXPECT_LT(by_server, m);
      // Stable: same inputs, same partition.
      EXPECT_EQ(by_server, serve_partition_of(server, items,
                                              ServeRoute::kByServer, m));
      // kByServer ignores the items entirely.
      EXPECT_EQ(by_server, serve_partition_of(server, std::span<const ItemId>(),
                                              ServeRoute::kByServer, m));
      EXPECT_EQ(by_server,
                serve_partition_of(server, std::vector<ItemId>{7},
                                   ServeRoute::kByServer, m));
    }
    // kByItemSet keys on the lowest item id: same front item, same
    // partition, whatever the server or the rest of the set.
    const std::size_t by_items =
        serve_partition_of(0, items, ServeRoute::kByItemSet, m);
    EXPECT_LT(by_items, m);
    EXPECT_EQ(by_items, serve_partition_of(41, std::vector<ItemId>{3, 200},
                                           ServeRoute::kByItemSet, m));
  }
  // M = 1 degenerates to partition 0 for every row and route.
  EXPECT_EQ(serve_partition_of(9, items, ServeRoute::kByItemSet, 1), 0u);
}

TEST(ServePartitionOf, ItemlessRowsFallBackToATaggedServerKey) {
  // Itemless rows under kByItemSet hash the server in a tagged universe:
  // in range and stable.  (The tag keeps server k and item k from always
  // colliding; the exact assignment is the hash's business.)
  for (ServerId server = 0; server < 20; ++server) {
    const std::size_t p = serve_partition_of(
        server, std::span<const ItemId>(), ServeRoute::kByItemSet, 8);
    EXPECT_LT(p, 8u);
    EXPECT_EQ(p, serve_partition_of(server, std::span<const ItemId>(),
                                    ServeRoute::kByItemSet, 8));
  }
}

// ---------------------------------------------------------------------------
// Merge

TEST(ShardedMerge, MergingOnePartitionIsTheBitwiseIdentity) {
  const RequestSequence trace = golden_trace();
  StreamingOptions options;
  options.online = grid_options(50, 10);
  StreamingEngine engine(kModel, options);
  for (std::size_t i = 0; i < 500; ++i) {
    engine.push(trace.server_of(i), trace.time_of(i), trace.items_of(i));
  }
  StreamingSnapshot snapshot = engine.snapshot();
  const StreamingSnapshot merged_snapshot =
      merge_partition_snapshots(std::span<const StreamingSnapshot>(
          &snapshot, 1));
  expect_snapshots_equal(merged_snapshot, snapshot, "single-snapshot merge");

  const RunReport report = engine.finish();
  const RunReport merged =
      merge_partition_reports(std::span<const RunReport>(&report, 1));
  expect_reports_equal(merged, report, "single-report merge");
}

TEST(ShardedMerge, SumsInPartitionIndexOrderAndRestoresIdentities) {
  RunReport a;
  a.solver = "online_dp_greedy";
  a.total_cost = 10.0;
  a.raw_cost = 10.0;
  a.transfer_cost = 4.0;
  a.total_item_accesses = 10;
  a.package_count = 2;
  a.unpack_events = 1;
  a.transfer_events = 3;
  a.phase1_seconds = 0.5;
  finalize_report(a);
  RunReport b = a;
  b.total_cost = 5.0;
  b.raw_cost = 5.0;
  b.transfer_cost = 1.0;
  b.total_item_accesses = 5;
  b.phase1_seconds = 0.25;
  finalize_report(b);

  const std::vector<RunReport> parts = {a, b};
  const RunReport merged = merge_partition_reports(parts);
  EXPECT_EQ(merged.total_cost, 15.0);
  EXPECT_EQ(merged.transfer_cost, 5.0);
  EXPECT_EQ(merged.total_item_accesses, 15u);
  EXPECT_EQ(merged.package_count, 4u);
  EXPECT_EQ(merged.transfer_events, 6u);
  EXPECT_EQ(merged.phase1_seconds, 0.5);  // max, not sum
  EXPECT_EQ(merged.ave_cost, merged.total_cost / 15.0);
  // The cache + transfer = total identity holds bit-exactly post-merge.
  EXPECT_EQ(merged.cache_cost + merged.transfer_cost, merged.total_cost);
}

// ---------------------------------------------------------------------------
// The N×M runtime: bit-identity grid

TEST(ShardedServe, GridMatchesSerialReferenceSnapshotBySnapshot) {
  const RequestSequence trace = golden_trace();
  StreamingOptions options;
  options.online = grid_options(50, 10);

  for (const std::size_t batch : {64u, 511u}) {
    for (const std::size_t partitions : {1u, 2u, 4u}) {
      ServeConfig base;
      base.batch(batch).partitions(partitions).snapshot_every(700).ring(4);
      const ReferenceRun ref =
          reference_partitioned_run(trace, base, options);
      for (const std::size_t shards : {1u, 2u, 4u}) {
        const std::string label =
            "N=" + std::to_string(shards) + " M=" +
            std::to_string(partitions) + " batch=" + std::to_string(batch);
        ServeConfig config = base;
        config.shards(shards);
        SequenceClaimSource source(trace, config.batch_rows);
        std::vector<StreamingSnapshot> snapshots;
        std::vector<std::size_t> snapshot_rows;
        const ShardedServeResult result = run_sharded_serve(
            source, kModel, config, options,
            [&](const StreamingSnapshot& snap, std::size_t rows) {
              snapshots.push_back(snap);
              snapshot_rows.push_back(rows);
            });

        EXPECT_TRUE(result.feed_error.empty()) << label;
        EXPECT_EQ(result.stats.requests, trace.size()) << label;
        expect_reports_equal(result.report, ref.result.report, label);
        EXPECT_EQ(result.epoch, ref.result.epoch) << label;
        ASSERT_EQ(result.partition_reports.size(), partitions) << label;
        for (std::size_t j = 0; j < partitions; ++j) {
          expect_reports_equal(result.partition_reports[j],
                               ref.result.partition_reports[j],
                               label + " partition " + std::to_string(j));
        }
        ASSERT_EQ(snapshots.size(), ref.snapshots.size()) << label;
        EXPECT_EQ(snapshot_rows, ref.snapshot_rows) << label;
        for (std::size_t s = 0; s < snapshots.size(); ++s) {
          expect_snapshots_equal(snapshots[s], ref.snapshots[s],
                                 label + " snapshot " + std::to_string(s));
        }
      }
    }
  }
}

TEST(ShardedServe, SinglePartitionReproducesThePerPushGoldens) {
  // M = 1: whatever N and the transport do, the one engine ingests the
  // exact global stream — the merged report must hit the per-push goldens
  // to the last bit.
  const RequestSequence trace = golden_trace();
  for (const GoldenPoint& golden : kGoldens) {
    StreamingOptions options;
    options.online = grid_options(golden.window, golden.repack);
    ServeConfig config;
    config.batch(64).shards(4).partitions(1);
    SequenceClaimSource source(trace, config.batch_rows);
    const ShardedServeResult result =
        run_sharded_serve(source, kModel, config, options);
    EXPECT_EQ(result.report.total_cost, golden.total_cost)
        << "w=" << golden.window << " r=" << golden.repack;
    EXPECT_EQ(result.stats.requests, trace.size());
  }
}

TEST(ShardedServe, GoldenGridMatchesReferenceAtMixedShapes) {
  // Every golden (window, repack) point at the two asymmetric shapes the
  // issue calls out, both routes.
  const RequestSequence trace = golden_trace();
  struct Shape {
    std::size_t shards;
    std::size_t partitions;
    ServeRoute route;
  };
  const Shape shapes[] = {
      {4, 2, ServeRoute::kByServer},
      {2, 4, ServeRoute::kByItemSet},
  };
  for (const Shape& shape : shapes) {
    for (const GoldenPoint& golden : kGoldens) {
      StreamingOptions options;
      options.online = grid_options(golden.window, golden.repack);
      ServeConfig config;
      config.batch(128)
          .shards(shape.shards)
          .partitions(shape.partitions)
          .route(shape.route)
          .snapshot_every(0);
      const std::string label =
          "N=" + std::to_string(shape.shards) + " M=" +
          std::to_string(shape.partitions) + " route=" +
          serve_route_name(shape.route) + " w=" +
          std::to_string(golden.window) + " r=" + std::to_string(golden.repack);
      const ReferenceRun ref =
          reference_partitioned_run(trace, config, options);
      SequenceClaimSource source(trace, config.batch_rows);
      const ShardedServeResult result =
          run_sharded_serve(source, kModel, config, options);
      expect_reports_equal(result.report, ref.result.report, label);
      EXPECT_EQ(result.epoch, ref.result.epoch) << label;
    }
  }
}

TEST(ShardedServe, ProbeAggregatesAcrossPartitions) {
  const RequestSequence trace = golden_trace();
  StreamingOptions options;
  options.online = grid_options(50, 10);
  options.probe_chunk = 256;
  ServeConfig config;
  config.batch(64).shards(2).partitions(2).snapshot_every(1024);
  const ReferenceRun ref = reference_partitioned_run(trace, config, options);
  SequenceClaimSource source(trace, config.batch_rows);
  std::vector<StreamingSnapshot> snapshots;
  const ShardedServeResult result = run_sharded_serve(
      source, kModel, config, options,
      [&](const StreamingSnapshot& snap, std::size_t) {
        snapshots.push_back(snap);
      });
  // The probe degrades gracefully under partitioning: each partition probes
  // its own sub-stream and the aggregate is Σ online / Σ offline — equal to
  // the serial partitioned reference bit-for-bit.
  EXPECT_GT(result.probe_chunks, 0u);
  EXPECT_GT(result.cost_ratio, 0.0);
  EXPECT_EQ(result.probe_chunks, ref.result.probe_chunks);
  EXPECT_EQ(result.cost_ratio, ref.result.cost_ratio);
  ASSERT_EQ(snapshots.size(), ref.snapshots.size());
  for (std::size_t s = 0; s < snapshots.size(); ++s) {
    expect_snapshots_equal(snapshots[s], ref.snapshots[s],
                           "probe snapshot " + std::to_string(s));
  }
}

// ---------------------------------------------------------------------------
// CSV claims and the decode-error contract

TEST(ShardedServe, CsvSourceMatchesSequenceSourceBitForBit) {
  const RequestSequence trace = golden_trace();
  StreamingOptions options;
  options.online = grid_options(50, 10);
  ServeConfig config;
  config.batch(127).shards(4).partitions(2).snapshot_every(0);

  SequenceClaimSource seq_source(trace, config.batch_rows);
  const ShardedServeResult from_seq =
      run_sharded_serve(seq_source, kModel, config, options);

  const std::string csv = trace_to_csv(trace);
  std::istringstream in(csv);
  CsvClaimSource csv_source(in, "golden.csv", config.batch_rows);
  const ShardedServeResult from_csv =
      run_sharded_serve(csv_source, kModel, config, options);

  expect_reports_equal(from_csv.report, from_seq.report, "csv vs sequence");
  EXPECT_EQ(from_csv.stats.requests, trace.size());
  EXPECT_EQ(csv_source.rows(), trace.size());
}

TEST(ShardedServe, MalformedCsvRowServesTheValidPrefixAndReportsProvenance) {
  // 1000 good rows, then garbage mid-stream: every (N, M) must serve
  // exactly the 1000-row prefix (bit-identical to a clean run over the
  // prefix) and surface the provenance in feed_error, not an exception.
  std::string csv = "server,time,items\n";
  for (int i = 0; i < 1000; ++i) {
    csv += std::to_string(i % 5) + "," + std::to_string(i + 1) + ".0," +
           std::to_string(i % 7) + ";" + std::to_string(7 + i % 3) + "\n";
  }
  const std::size_t bad_offset = csv.size();
  csv += "this is not a row\n";
  for (int i = 0; i < 500; ++i) {
    csv += "0," + std::to_string(2000 + i) + ".0,1\n";
  }

  StreamingOptions options;
  options.online = grid_options(50, 10);

  // Clean-prefix reference per partition count: the canonical answer at a
  // given M is the M-partition run (M > 1 partitions the flows, which is a
  // different — but per-M deterministic — report than 1×1).
  const auto prefix_report_at = [&](std::size_t partitions) {
    std::istringstream in(std::string(csv, 0, bad_offset));
    CsvClaimSource source(in, "bad.csv", 64);
    ServeConfig config;
    config.batch(64).partitions(partitions);
    return run_sharded_serve(source, kModel, config, options).report;
  };

  for (const std::size_t partitions : {1u, 2u}) {
    const RunReport prefix_report = prefix_report_at(partitions);
    for (const std::size_t shards : {1u, 4u}) {
      ServeConfig config;
      config.batch(64).shards(shards).partitions(partitions);
      std::istringstream in(csv);
      CsvClaimSource source(in, "bad.csv", config.batch_rows);
      const ShardedServeResult result =
          run_sharded_serve(source, kModel, config, options);
      const std::string label = "N=" + std::to_string(shards) + " M=" +
                                std::to_string(partitions);
      EXPECT_EQ(result.stats.requests, 1000u) << label;
      expect_reports_equal(result.report, prefix_report, label);
      EXPECT_NE(result.feed_error.find("bad.csv"), std::string::npos)
          << label << ": " << result.feed_error;
      EXPECT_NE(result.feed_error.find("row 1001"), std::string::npos)
          << label << ": " << result.feed_error;
      EXPECT_NE(result.feed_error.find(
                    "byte offset " + std::to_string(bad_offset)),
                std::string::npos)
          << label << ": " << result.feed_error;
    }
  }
}

// ---------------------------------------------------------------------------
// Exact cadence: snapshot and stats barriers on exact multiples

/// One snapshot line's worth of fields, as the CLI prints them — compared
/// bit-exactly here (the CLI rounds them for display).
struct SnapshotLine {
  std::size_t rows = 0;
  StreamingSnapshot snapshot;
};

TEST(ShardedServe, SnapshotsAtOneShardOrMoreMatchPerPushEveryCadence) {
  // The per-push reference snapshots after exactly every `cadence`-th push;
  // the runtime at M = 1 must produce the same snapshots (values, deltas,
  // probe state, allocation counter) at every batch size and shard count.
  const RequestSequence trace = golden_trace();
  for (const std::size_t probe : {0u, 150u}) {
    StreamingOptions options;
    options.online = grid_options(50, 10);
    options.probe_chunk = probe;
    for (const std::size_t cadence : {1u, 7u, 200u, 1000u}) {
      std::vector<SnapshotLine> reference;
      StreamingEngine engine(kModel, options);
      for (std::size_t r = 0; r < trace.size(); ++r) {
        engine.push(trace.server_of(r), trace.time_of(r), trace.items_of(r));
        if ((r + 1) % cadence == 0) {
          reference.push_back({r + 1, engine.snapshot()});
        }
      }
      const RunReport reference_final = engine.finish();
      for (const std::size_t batch : {1u, 64u, 1024u}) {
        for (const std::size_t shards : {1u, 2u}) {
          const std::string label =
              "probe=" + std::to_string(probe) + " cadence=" +
              std::to_string(cadence) + " batch=" + std::to_string(batch) +
              " N=" + std::to_string(shards);
          ServeConfig config;
          config.batch(batch).shards(shards).snapshot_every(cadence);
          SequenceClaimSource source(trace, config.batch_rows);
          std::vector<SnapshotLine> lines;
          const ShardedServeResult result = run_sharded_serve(
              source, kModel, config, options,
              [&](const StreamingSnapshot& s, std::size_t rows) {
                lines.push_back({rows, s});
              });
          expect_reports_equal(result.report, reference_final, label);
          ASSERT_EQ(lines.size(), reference.size()) << label;
          for (std::size_t i = 0; i < lines.size(); ++i) {
            EXPECT_EQ(lines[i].rows, reference[i].rows) << label;
            expect_snapshots_equal(lines[i].snapshot, reference[i].snapshot,
                                   label + " @" + std::to_string(i));
          }
        }
      }
    }
  }
}

TEST(ShardedServe, StatsBarriersLandOnExactMultiplesAtEveryShape) {
  // stats lines fire at every multiple of stats_every — with or without
  // snapshots, whether the two cadences coincide or not — at 1×1, 2×1 and
  // 2×2.  At M = 1 the epoch is the per-push engine's at that row.
  const RequestSequence feed = golden_trace();
  const std::size_t rows = 600;  // served through --max-requests
  StreamingOptions options;
  options.online = grid_options(50, 10);

  struct Cadence {
    std::size_t snapshot_every;
    std::size_t stats_every;
  };
  for (const Cadence cadence : {Cadence{0, 100}, Cadence{200, 150},
                                Cadence{200, 200}, Cadence{7, 64}}) {
    std::vector<std::size_t> epochs_at;  // per-push epoch at each multiple
    StreamingEngine engine(kModel, options);
    for (std::size_t r = 0; r < rows; ++r) {
      engine.push(feed.server_of(r), feed.time_of(r), feed.items_of(r));
      if ((r + 1) % cadence.stats_every == 0) {
        epochs_at.push_back(engine.epoch());
      }
    }
    for (const auto& [shards, partitions] :
         {std::pair<std::size_t, std::size_t>{1, 1}, {2, 1}, {2, 2}}) {
      const std::string label =
          "snap=" + std::to_string(cadence.snapshot_every) + " stats=" +
          std::to_string(cadence.stats_every) + " N=" +
          std::to_string(shards) + " M=" + std::to_string(partitions);
      ServeConfig config;
      config.batch(64).shards(shards).partitions(partitions)
          .snapshot_every(cadence.snapshot_every)
          .stats_every(cadence.stats_every);
      SequenceClaimSource source(feed, config.batch_rows, rows);
      std::vector<std::size_t> stats_rows;
      std::vector<std::size_t> stats_epochs;
      std::vector<std::size_t> snapshot_rows;
      (void)run_sharded_serve(
          source, kModel, config, options,
          [&](const StreamingSnapshot& s, std::size_t at) {
            snapshot_rows.push_back(at);
            EXPECT_EQ(s.requests, at) << label;
          },
          [&](std::size_t at, std::size_t epoch) {
            stats_rows.push_back(at);
            stats_epochs.push_back(epoch);
          });
      ASSERT_EQ(stats_rows.size(), rows / cadence.stats_every) << label;
      for (std::size_t i = 0; i < stats_rows.size(); ++i) {
        EXPECT_EQ(stats_rows[i], (i + 1) * cadence.stats_every) << label;
        if (partitions == 1) {
          EXPECT_EQ(stats_epochs[i], epochs_at[i]) << label;
        }
      }
      const std::size_t snapshots =
          cadence.snapshot_every == 0 ? 0 : rows / cadence.snapshot_every;
      ASSERT_EQ(snapshot_rows.size(), snapshots) << label;
      for (std::size_t i = 0; i < snapshots; ++i) {
        EXPECT_EQ(snapshot_rows[i], (i + 1) * cadence.snapshot_every) << label;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Hostile times: every (N, M) rejects the same row and serves the prefix

/// A CSV header plus `rows` good rows at times 1..rows.
std::string good_rows(std::size_t rows) {
  std::string csv = "server,time,items\n";
  for (std::size_t i = 0; i < rows; ++i) {
    csv += std::to_string(i % 5) + "," + std::to_string(i + 1) + ".0," +
           std::to_string(i % 7) + ";" + std::to_string(7 + i % 3) + "\n";
  }
  return csv;
}

/// good_rows(rows), the hostile `row_text`, then more good rows that must
/// never be served.
std::string feed_with(std::size_t rows, const std::string& row_text) {
  std::string csv = good_rows(rows) + row_text + "\n";
  for (std::size_t i = 0; i < 50; ++i) {
    csv += "0," + std::to_string(5000 + i) + ".0,1\n";
  }
  return csv;
}

TEST(ShardedServe, HostileTimesEndTheFeedAtTheSameRowAtEveryShape) {
  StreamingOptions options;
  options.online = grid_options(50, 10);
  // Row 101 is hostile: non-finite, non-positive, or not after row 100's
  // time (100.0).  Batch 100 puts it first in its block, so the backwards
  // cases exercise the cross-block check; batch 64 puts it mid-block.
  const std::string hostile[] = {"1,nan,3",   "1,inf,3",  "1,0,3",
                                 "1,-1,3",    "1,100.0,3", "1,50.5,3"};
  // The clean 100-row prefix's report at each M: what every run must keep.
  std::vector<RunReport> prefix_reports;
  for (const std::size_t partitions : {1u, 2u}) {
    std::istringstream in(good_rows(100));
    CsvClaimSource source(in, "prefix.csv", 64);
    ServeConfig config;
    config.partitions(partitions);
    prefix_reports.push_back(
        run_sharded_serve(source, kModel, config, options).report);
  }
  for (const std::size_t batch : {64u, 100u}) {
    for (const std::string& row : hostile) {
      const std::string csv = feed_with(100, row);
      std::vector<std::string> errors;
      for (const auto& [shards, partitions] :
           {std::pair<std::size_t, std::size_t>{1, 1}, {2, 1}, {4, 1},
            {2, 2}}) {
        const std::string label = "'" + row + "' batch=" +
                                  std::to_string(batch) + " N=" +
                                  std::to_string(shards) + " M=" +
                                  std::to_string(partitions);
        std::istringstream in(csv);
        CsvClaimSource source(in, "hostile.csv", batch);
        ServeConfig config;
        config.batch(batch).shards(shards).partitions(partitions);
        const ShardedServeResult result =
            run_sharded_serve(source, kModel, config, options);
        EXPECT_EQ(result.stats.requests, 100u) << label;
        EXPECT_NE(result.feed_error.find("hostile.csv: row 101"),
                  std::string::npos)
            << label << ": " << result.feed_error;
        errors.push_back(result.feed_error);
        expect_reports_equal(result.report, prefix_reports[partitions - 1],
                             label);
      }
      // Every shape names the row identically.
      for (const std::string& error : errors) EXPECT_EQ(error, errors[0]);
    }
  }
}

TEST(ShardedServe, EngineRejectionMidBlockEndsTheFeedAtOnePartition) {
  // A source that skips decode validation hands the engine a backwards
  // time mid-block: at M = 1 the runtime keeps the engine's prefix, reports
  // the global row and still finishes the books.
  class UncheckedSource final : public ShardClaimSource {
   public:
    bool claim(RequestBlock& block, std::uint64_t& seq,
               std::size_t& rows_through) override {
      const std::lock_guard<std::mutex> lock(mutex_);
      block.clear();
      if (next_ > 1) return false;
      const std::vector<ItemId> items = {1, 2};
      for (std::size_t r = 0; r < 10; ++r) {
        const std::size_t row = next_ * 10 + r + 1;
        // Row 15 goes back in time.
        block.append_row(0, row == 15 ? 1.0 : static_cast<Time>(row), items);
      }
      seq = next_++;
      rows_through = 10 * next_;
      return true;
    }

   private:
    std::mutex mutex_;
    std::uint64_t next_ = 0;
  };
  StreamingOptions options;
  options.online = grid_options(50, 10);
  for (const std::size_t shards : {1u, 2u}) {
    UncheckedSource source;
    ServeConfig config;
    config.batch(10).shards(shards);
    const ShardedServeResult result =
        run_sharded_serve(source, kModel, config, options);
    EXPECT_EQ(result.stats.requests, 14u) << shards;
    EXPECT_EQ(result.report.total_item_accesses, 28u) << shards;
    EXPECT_NE(result.feed_error.find("row 15: "), std::string::npos)
        << result.feed_error;
    EXPECT_NE(result.feed_error.find("strictly increasing"), std::string::npos)
        << result.feed_error;
  }
}

// ---------------------------------------------------------------------------
// Crossbar waiting: idle threads park on an event count (one futex wait per
// idle spell), every wakeup arrives, and abort() wakes everyone.

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

TEST(ShardedServe, IdleThreadsParkInsteadOfSpinning) {
  // A feed that trickles: every claim takes ~2 ms, so at 2×2 the partitions
  // are idle almost all the time.  Each idle spell may cost a park or two,
  // never a spin loop.
  class PacedSource final : public ShardClaimSource {
   public:
    PacedSource(const RequestSequence& trace, std::size_t batch,
                std::size_t limit)
        : inner_(trace, batch, limit) {}
    bool claim(RequestBlock& block, std::uint64_t& seq,
               std::size_t& rows_through) override {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      return inner_.claim(block, seq, rows_through);
    }

   private:
    SequenceClaimSource inner_;
  };
  constexpr std::size_t kBatch = 4;
  constexpr std::size_t kBlocks = 100;
  constexpr std::size_t kShards = 2;
  constexpr std::size_t kPartitions = 2;
  const RequestSequence trace = golden_trace();
  StreamingOptions options;
  options.online = grid_options(50, 10);
  ServeConfig config;
  config.batch(kBatch).shards(kShards).partitions(kPartitions)
      .snapshot_every(0);
  PacedSource source(trace, kBatch, kBatch * kBlocks);

  const double cpu_before = process_cpu_seconds();
  const auto wall_before = std::chrono::steady_clock::now();
  const ShardedServeResult result =
      run_sharded_serve(source, kModel, config, options);
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_before)
                          .count();
  const double cpu = process_cpu_seconds() - cpu_before;

  ASSERT_TRUE(result.feed_error.empty()) << result.feed_error;
  EXPECT_EQ(result.stats.batches, kBlocks);
  EXPECT_EQ(result.stats.requests, kBatch * kBlocks);
  EXPECT_LE(result.stats.enqueue_blocked + result.stats.dequeue_blocked,
            2 * kBlocks * (kShards + kPartitions))
      << "enqueue " << result.stats.enqueue_blocked << " dequeue "
      << result.stats.dequeue_blocked;
  EXPECT_LE(cpu, 0.25 * wall) << "cpu " << cpu << " s, wall " << wall << " s";
}

TEST(ShardedServe, NoLostWakeupsWithOneSlotRings) {
  // Ring capacity 1 keeps every shard and partition on the edge of full
  // and empty, so nearly every hand-off goes through a park and a wake.  A
  // lost wakeup hangs the run; a misordered hand-off changes the report.
  const RequestSequence trace = golden_trace();
  StreamingOptions options;
  options.online = grid_options(50, 10);
  for (const std::size_t partitions : {1u, 2u, 4u}) {
    ServeConfig base;
    base.partitions(partitions).ring(1).snapshot_every(0);
    const ReferenceRun ref = reference_partitioned_run(trace, base, options);
    for (const std::size_t shards : {1u, 2u, 4u}) {
      for (const std::size_t batch : {1u, 7u}) {
        ServeConfig config = base;
        config.shards(shards).batch(batch);
        for (int rep = 0; rep < 50; ++rep) {
          const std::string label =
              "N=" + std::to_string(shards) + " M=" +
              std::to_string(partitions) + " batch=" + std::to_string(batch) +
              " rep=" + std::to_string(rep);
          SequenceClaimSource source(trace, config.batch_rows);
          const ShardedServeResult result =
              run_sharded_serve(source, kModel, config, options);
          ASSERT_TRUE(result.feed_error.empty()) << label;
          ASSERT_EQ(result.stats.requests, trace.size()) << label;
          ASSERT_EQ(result.report.total_cost, ref.result.report.total_cost)
              << label;
          ASSERT_EQ(result.report.transfer_events,
                    ref.result.report.transfer_events)
              << label;
          ASSERT_EQ(result.report.package_count,
                    ref.result.report.package_count)
              << label;
        }
      }
    }
  }
}

TEST(ShardedServe, EngineFaultWakesParkedThreadsAndRethrows) {
  // Shard A claims block kFaultSeq and stalls for 100 ms before shipping
  // it; meanwhile shard B runs ahead until every envelope it owns sits in a
  // partition's holdback, so B and both partitions park.  Block kFaultSeq
  // holds a backwards time the engine rejects; at M = 2 that fault must
  // wake every parked thread and come back out of run_sharded_serve.  The
  // feed never ends on its own, so a thread left parked hangs the test.
  constexpr std::uint64_t kFaultSeq = 5;
  class StallingSource final : public ShardClaimSource {
   public:
    bool claim(RequestBlock& block, std::uint64_t& seq,
               std::size_t& rows_through) override {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        seq = next_++;
      }
      block.clear();
      const std::vector<ItemId> items = {1, 2};
      for (std::size_t r = 0; r < 10; ++r) {
        const auto row = static_cast<Time>(seq * 10 + r + 1);
        // Both servers in every block, so both partitions get rows; row 5
        // of the fault block goes back in time for server 0.
        const ServerId server = r % 2 == 0 ? 0 : 1;
        block.append_row(server, seq == kFaultSeq && r == 4 ? 1.0 : row,
                         items);
      }
      rows_through = static_cast<std::size_t>(seq + 1) * 10;
      if (seq == kFaultSeq) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
      return true;
    }

   private:
    std::mutex mutex_;
    std::uint64_t next_ = 0;
  };
  StreamingOptions options;
  options.online = grid_options(50, 10);
  ServeConfig config;
  config.batch(10).shards(2).partitions(2).ring(1).snapshot_every(0);
  StallingSource source;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(run_sharded_serve(source, kModel, config, options), Error);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(seconds, 5.0);
}

// ---------------------------------------------------------------------------
// push_batch empty-block contract (the no-op the sharded topology relies on)

TEST(ShardedServe, EmptyPushBatchIsAStrictNoOp) {
  const RequestSequence trace = golden_trace();
  StreamingOptions options;
  options.online = grid_options(50, 10);
  StreamingEngine engine(kModel, options);
  for (std::size_t i = 0; i < 200; ++i) {
    engine.push(trace.server_of(i), trace.time_of(i), trace.items_of(i));
  }
  const StreamingSnapshot before = engine.snapshot();

  const RequestBlock empty;
  const StreamingDecision decision = engine.push_batch(empty);
  EXPECT_EQ(decision.cost_delta, 0.0);
  EXPECT_EQ(decision.transfers, 0u);
  EXPECT_EQ(decision.package_fetches, 0u);
  EXPECT_EQ(decision.pack_events, 0u);
  EXPECT_EQ(decision.unpack_events, 0u);
  EXPECT_FALSE(decision.repacked);
  EXPECT_EQ(decision.epoch, 0u);  // value-initialized, documented

  StreamingSnapshot after = engine.snapshot();
  EXPECT_EQ(after.requests, before.requests);
  EXPECT_EQ(after.report.total_cost, before.report.total_cost);
  EXPECT_EQ(after.epoch, before.epoch);
  EXPECT_EQ(after.state_alloc_events, before.state_alloc_events);
  EXPECT_EQ(after.delta.total_cost, 0.0);  // the interval contributed nothing

  // And the engine still works afterwards.
  engine.push(trace.server_of(200), trace.time_of(200), trace.items_of(200));
  EXPECT_EQ(engine.requests_seen(), 201u);
}

}  // namespace
}  // namespace dpg
