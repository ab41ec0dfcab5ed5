#include <gtest/gtest.h>

#include "test_support.hpp"

#include <cstdio>
#include <sstream>
#include <string>

#include "trace/generators.hpp"
#include "trace/io.hpp"
#include "util/error.hpp"

namespace dpg {
namespace {

TEST(TraceIo, CsvRoundTripPreservesEverything) {
  PairedTraceConfig config;
  config.pair_jaccard = {0.4, 0.7};
  config.requests_per_pair = 60;
  Rng rng(9);
  const RequestSequence original = generate_paired_trace(config, rng);
  const RequestSequence restored = trace_from_csv(trace_to_csv(original));
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    ASSERT_EQ(restored[i].server, original[i].server);
    ASSERT_DOUBLE_EQ(restored[i].time, original[i].time);
    ASSERT_EQ(testing::items_of(restored[i]), testing::items_of(original[i]));
  }
}

TEST(TraceIo, InfersDimensionsFromContent) {
  const RequestSequence seq =
      trace_from_csv("server,time,items\n3,1.5,0;2\n1,2.0,4\n");
  EXPECT_EQ(seq.server_count(), 4u);
  EXPECT_EQ(seq.item_count(), 5u);
}

TEST(TraceIo, HonorsMinimumDimensions) {
  const RequestSequence seq =
      trace_from_csv("server,time,items\n0,1.0,0\n", 50, 10);
  EXPECT_EQ(seq.server_count(), 50u);
  EXPECT_EQ(seq.item_count(), 10u);
}

TEST(TraceIo, RejectsMissingColumns) {
  EXPECT_THROW((void)trace_from_csv("server,time\n0,1.0\n"), IoError);
}

TEST(TraceIo, RejectsMalformedFields) {
  EXPECT_THROW((void)trace_from_csv("server,time,items\nx,1.0,0\n"), IoError);
  EXPECT_THROW((void)trace_from_csv("server,time,items\n0,zzz,0\n"), IoError);
}

TEST(TraceIo, InvalidSequencesStillValidated) {
  // Duplicate timestamps are a sequence-level invariant violation; the
  // parser rethrows it as an IoError tagged with the input's label so a
  // caller sees which file (or "CSV" for in-memory text) was bad.
  try {
    (void)trace_from_csv("server,time,items\n0,1.0,0\n1,1.0,1\n");
    FAIL() << "expected IoError";
  } catch (const IoError& error) {
    const std::string what = error.what();
    EXPECT_EQ(what.rfind("CSV: ", 0), 0u) << what;
    EXPECT_NE(what.find("strictly increasing"), std::string::npos) << what;
  }
}

TEST(TraceIo, FileRoundTrip) {
  UniformTraceConfig config;
  config.request_count = 40;
  Rng rng(2);
  const RequestSequence original = generate_uniform_trace(config, rng);
  const std::string path = ::testing::TempDir() + "dpg_trace_roundtrip.csv";
  write_trace_file(path, original);
  const RequestSequence restored =
      read_trace_file(path, original.server_count(), original.item_count());
  EXPECT_EQ(restored.size(), original.size());
  EXPECT_EQ(restored.server_count(), original.server_count());
  std::remove(path.c_str());
}

TEST(TraceIo, MissingFileRaises) {
  EXPECT_THROW((void)read_trace_file("/nope/missing.csv"), IoError);
}

TEST(TraceIo, FileParseErrorsNameThePathRowAndByteOffset) {
  const std::string path = ::testing::TempDir() + "dpg_trace_bad.csv";
  {
    std::FILE* file = std::fopen(path.c_str(), "w");
    ASSERT_NE(file, nullptr);
    std::fputs("server,time,items\n0,1.0,0\n1,oops,1\n", file);
    std::fclose(file);
  }
  try {
    (void)read_trace_file(path);
    FAIL() << "expected IoError";
  } catch (const IoError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("row 2"), std::string::npos) << what;
    EXPECT_NE(what.find("byte offset 26"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(TraceIo, InMemoryParseErrorsUseTheCsvLabel) {
  try {
    (void)trace_from_csv("server,time,items\n0,1.0\n");
    FAIL() << "expected IoError";
  } catch (const IoError& error) {
    const std::string what = error.what();
    EXPECT_EQ(what.rfind("CSV: row 1", 0), 0u) << what;
  }
}

TEST(TraceIo, ParseHintsDoNotChangeTheResult) {
  UniformTraceConfig config;
  config.request_count = 60;
  Rng rng(3);
  const RequestSequence original = generate_uniform_trace(config, rng);
  const std::string csv = trace_to_csv(original);

  // Exact hints (what the .dpt header supplies) and wild over-estimates
  // must both parse to the same sequence as no hints at all.
  TraceParseHints exact;
  exact.request_count = original.size();
  exact.item_access_count = original.total_item_accesses();
  TraceParseHints oversized;
  oversized.request_count = 10 * original.size();
  oversized.item_access_count = 10 * original.total_item_accesses();
  for (const TraceParseHints& hints : {exact, oversized}) {
    const RequestSequence parsed = trace_from_csv(csv, 0, 0, hints);
    EXPECT_EQ(parsed.size(), original.size());
    EXPECT_EQ(trace_to_csv(parsed), csv);
  }
}

TEST(TraceIo, RejectsNonFiniteAndNonPositiveTimesWithProvenance) {
  // `inf` and `nan` parse as doubles, so the decoder checks the time rule
  // itself: every CSV reader rejects them (and 0, -1) at the row, before
  // any solver or engine sees the value.
  for (const std::string bad : {"nan", "inf", "0", "-1"}) {
    const std::string csv =
        "server,time,items\n0,1.0,1\n1," + bad + ",2\n0,3.0,1\n";
    try {
      (void)trace_from_csv(csv, 0, 0, {}, "hostile.csv");
      FAIL() << "expected IoError for " << bad;
    } catch (const IoError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("hostile.csv: row 2 (byte offset 26)"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("finite and > 0"), std::string::npos) << what;
    }
    std::istringstream in(csv);
    CsvStreamReader reader(in, "hostile.csv");
    CsvStreamRow row;
    ASSERT_TRUE(reader.next(row));
    EXPECT_THROW((void)reader.next(row), IoError) << bad;
  }
}

}  // namespace
}  // namespace dpg
