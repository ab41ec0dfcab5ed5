// Round-trip and parser-equivalence properties of the streaming trace I/O.
//
// The streaming parser (trace_from_csv) replaced the CsvTable-based one;
// trace_from_csv_legacy is kept as the oracle.  Every generator family must
// survive trace_from_csv(trace_to_csv(seq)) exactly — same dimensions,
// servers, times (bit-identical doubles via %.17g) and item sets — and the
// two parsers must agree on every accepted input.
#include <gtest/gtest.h>

#include "test_support.hpp"

#include <cstdio>
#include <string>

#include "mobility/simulator.hpp"
#include "obs/metrics.hpp"
#include "reference/csv_legacy.hpp"
#include "trace/generators.hpp"
#include "trace/io.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dpg {
namespace {

using testing::items_of;
using testing::same_sequence;

void expect_exact_roundtrip(const RequestSequence& original) {
  const std::string csv = trace_to_csv(original);
  const RequestSequence restored =
      trace_from_csv(csv, original.server_count(), original.item_count());
  EXPECT_TRUE(same_sequence(original, restored));
  // And the serialized forms agree byte-for-byte (doubles round-trip).
  EXPECT_EQ(csv, trace_to_csv(restored));
}

TEST(TraceRoundTrip, ZipfTraceIsExact) {
  ZipfTraceConfig config;
  config.request_count = 400;
  Rng rng(11);
  expect_exact_roundtrip(generate_zipf_trace(config, rng));
}

TEST(TraceRoundTrip, PairedTraceIsExact) {
  PairedTraceConfig config;
  config.requests_per_pair = 80;
  Rng rng(12);
  expect_exact_roundtrip(generate_paired_trace(config, rng));
}

TEST(TraceRoundTrip, BurstyTraceIsExact) {
  BurstyTraceConfig config;
  Rng rng(13);
  expect_exact_roundtrip(generate_bursty_trace(config, rng));
}

TEST(TraceRoundTrip, MobilityTraceIsExact) {
  MobilityConfig config;
  config.duration = 50.0;
  Rng rng(14);
  expect_exact_roundtrip(simulate_mobility(config, rng));
}

TEST(TraceRoundTrip, StreamingParserMatchesLegacyParser) {
  PairedTraceConfig config;
  config.pair_jaccard = {0.2, 0.5, 0.8};
  config.requests_per_pair = 100;
  Rng rng(15);
  const std::string csv = trace_to_csv(generate_paired_trace(config, rng));
  EXPECT_TRUE(same_sequence(trace_from_csv(csv), trace_from_csv_legacy(csv)));
}

TEST(TraceRoundTrip, DuplicateItemsInRowAreDeduplicated) {
  // Regression: the CsvTable-based loader used to reject "3;3;7" because it
  // sorted without deduplicating.  Both parsers must accept it now.
  const std::string csv = "server,time,items\n0,1.0,3;3;7\n1,2.0,7;3;3;7\n";
  const RequestSequence streamed = trace_from_csv(csv);
  const RequestSequence legacy = trace_from_csv_legacy(csv);
  EXPECT_TRUE(same_sequence(streamed, legacy));
  EXPECT_EQ(items_of(streamed[0]), (std::vector<ItemId>{3, 7}));
  EXPECT_EQ(items_of(streamed[1]), (std::vector<ItemId>{3, 7}));
}

TEST(TraceRoundTrip, ToleratesCrlfAndBlankLines) {
  const RequestSequence seq = trace_from_csv(
      "server,time,items\r\n\r\n0,1.0,0;1\r\n\n1,2.0,1\r\n");
  ASSERT_EQ(seq.size(), 2u);
  EXPECT_EQ(items_of(seq[0]), (std::vector<ItemId>{0, 1}));
  EXPECT_EQ(seq[1].server, 1u);
}

TEST(TraceRoundTrip, AcceptsAnyColumnOrderAndExtras) {
  const RequestSequence seq = trace_from_csv(
      "items,extra,time,server\n0;2,ignored,1.5,3\n4,x,2.0,1\n");
  ASSERT_EQ(seq.size(), 2u);
  EXPECT_EQ(seq[0].server, 3u);
  EXPECT_EQ(seq[0].time, 1.5);
  EXPECT_EQ(items_of(seq[0]), (std::vector<ItemId>{0, 2}));
  EXPECT_EQ(seq.item_count(), 5u);
}

TEST(TraceRoundTrip, AcceptsPlainQuotedFields) {
  const RequestSequence seq =
      trace_from_csv("\"server\",\"time\",\"items\"\n\"2\",\"1.25\",\"0;1\"\n");
  ASSERT_EQ(seq.size(), 1u);
  EXPECT_EQ(seq[0].server, 2u);
  EXPECT_EQ(seq[0].time, 1.25);
  EXPECT_EQ(items_of(seq[0]), (std::vector<ItemId>{0, 1}));
}

TEST(TraceRoundTrip, RejectsRaggedRows) {
  EXPECT_THROW((void)trace_from_csv("server,time,items\n0,1.0\n"), IoError);
  EXPECT_THROW((void)trace_from_csv("server,time,items\n0,1.0,0,9\n"),
               IoError);
}

TEST(TraceRoundTrip, FileRoundTripIsExact) {
  ZipfTraceConfig config;
  config.request_count = 300;
  Rng rng(16);
  const RequestSequence original = generate_zipf_trace(config, rng);
  const std::string path = ::testing::TempDir() + "dpg_roundtrip_exact.csv";
  write_trace_file(path, original);
  const RequestSequence restored =
      read_trace_file(path, original.server_count(), original.item_count());
  std::remove(path.c_str());
  EXPECT_TRUE(same_sequence(original, restored));
}

TEST(TraceRoundTrip, ParseCountersRecordRowsAndBytes) {
  obs::set_enabled(true);
  obs::reset_metrics();
  const std::string csv = "server,time,items\n0,1.0,0\n1,2.0,1;2\n";
  const RequestSequence seq = trace_from_csv(csv);
  (void)seq;
  const obs::MetricsSnapshot snapshot = obs::snapshot_metrics();
  obs::set_enabled(false);
  obs::reset_metrics();
  EXPECT_EQ(obs::counter_value(snapshot, "trace.rows_parsed"), 2u);
  EXPECT_EQ(obs::counter_value(snapshot, "trace.bytes_parsed"), csv.size());
}

}  // namespace
}  // namespace dpg
