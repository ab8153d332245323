/// Tests for obs/trace.hpp: span recording and ordering, the
/// disabled-path no-op, drop-don't-grow buffers, recording from several
/// threads at once, trace-event JSON shape, and the golden span-name
/// transcript of a single-threaded balancer run (the deterministic
/// control-flow contract of the instrumentation).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lbmem/gen/paper_example.hpp"
#include "lbmem/lb/load_balancer.hpp"
#include "lbmem/obs/trace.hpp"
#include "lbmem/util/parallel_for.hpp"

#ifndef LBMEM_GOLDEN_DIR
#error "LBMEM_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

namespace lbmem::obs {
namespace {

TEST(ObsTrace, RecordsSpansInBeginOrder) {
  Tracer tracer;
  {
    TracerScope scope(&tracer);
    LBMEM_TRACE_SPAN("outer");
    {
      LBMEM_TRACE_SPAN("inner.a");
    }
    { LBMEM_TRACE_SPAN("inner.b"); }
  }
  const std::vector<std::string> names = tracer.span_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "outer");  // begin order, not close order
  EXPECT_EQ(names[1], "inner.a");
  EXPECT_EQ(names[2], "inner.b");
  EXPECT_EQ(tracer.span_count(), 3u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(ObsTrace, DisabledTracerRecordsNothing) {
  ASSERT_EQ(Tracer::current(), nullptr);
  {
    LBMEM_TRACE_SPAN("never.recorded");
  }
  Tracer tracer;
  EXPECT_EQ(tracer.span_count(), 0u);
}

TEST(ObsTrace, UnclosedSpansAreSkippedOnEmit) {
  Tracer tracer;
  TracerScope scope(&tracer);
  Span* open = tracer.begin("left.open", "test");
  ASSERT_NE(open, nullptr);
  { LBMEM_TRACE_SPAN("closed"); }
  EXPECT_EQ(tracer.span_count(), 1u);
  const std::vector<std::string> names = tracer.span_names();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "closed");
  tracer.end(open);
  EXPECT_EQ(tracer.span_count(), 2u);
}

TEST(ObsTrace, FullBufferDropsAndCounts) {
  Tracer tracer(/*capacity_per_thread=*/2);
  TracerScope scope(&tracer);
  for (int i = 0; i < 5; ++i) {
    LBMEM_TRACE_SPAN("span");
  }
  EXPECT_EQ(tracer.span_count(), 2u);
  EXPECT_EQ(tracer.dropped(), 3u);
}

TEST(ObsTrace, WriteJsonEmitsTraceEventShape) {
  Tracer tracer;
  {
    TracerScope scope(&tracer);
    LBMEM_TRACE_SPAN("alpha");
  }
  std::ostringstream out;
  tracer.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  // Build-info provenance rides along under otherData.
  EXPECT_NE(json.find("\"otherData\""), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_spans\": 0"), std::string::npos);
}

TEST(ObsTrace, RecordsFromEverySweepThread) {
  // The sweep's threads record into their own buffers of one tracer: every
  // span is kept or counted as dropped, whether the buffers have room for
  // all of them or each fills after eight.
  constexpr std::size_t kSpans = 256;
  const std::string name_field = "\"name\": \"sweep.cell\"";
  for (const std::size_t capacity : {kSpans, std::size_t{8}}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    Tracer tracer(capacity);
    {
      TracerScope scope(&tracer);
      parallel_for(4, kSpans,
                   [](std::size_t) { LBMEM_TRACE_SPAN("sweep.cell"); });
    }
    EXPECT_EQ(tracer.span_count() + tracer.dropped(), kSpans);
    if (capacity == kSpans) {
      EXPECT_EQ(tracer.dropped(), 0u);
    } else {
      // At most four buffers of eight; the busiest thread fills its own.
      EXPECT_GE(tracer.span_count(), 8u);
      EXPECT_LE(tracer.span_count(), 32u);
    }
    const std::vector<std::string> names = tracer.span_names();
    EXPECT_EQ(names.size(), tracer.span_count());
    EXPECT_TRUE(std::all_of(names.begin(), names.end(),
                            [](const std::string& n) {
                              return n == "sweep.cell";
                            }));
    std::ostringstream out;
    tracer.write_json(out);
    const std::string json = out.str();
    std::size_t emitted = 0;
    for (std::size_t at = json.find(name_field); at != std::string::npos;
         at = json.find(name_field, at + 1)) {
      ++emitted;
    }
    EXPECT_EQ(emitted, tracer.span_count());
    EXPECT_NE(json.find("\"dropped_spans\": " +
                        std::to_string(tracer.dropped())),
              std::string::npos);
  }
}

// ---- golden span-name transcript ------------------------------------------

bool update_mode() {
  const char* flag = std::getenv("LBMEM_UPDATE_GOLDEN");
  return flag != nullptr && *flag != '\0' && std::string(flag) != "0";
}

/// The paper's worked example balanced at threads=1 under a tracer: the
/// span-name sequence is a transcript of the balancer's control flow and
/// must stay byte-identical. Regenerate with LBMEM_UPDATE_GOLDEN=1 after
/// an intentional instrumentation change and review the diff.
TEST(ObsTrace, GoldenSpanNames) {
  const TaskGraph graph = paper_example_graph();
  const Schedule before = paper_example_schedule(graph);

  Tracer tracer;
  {
    TracerScope scope(&tracer);
    BalanceOptions options;  // threads=1: deterministic span order
    const BalanceResult result = LoadBalancer(options).balance(before);
    ASSERT_FALSE(result.stats.fell_back);
  }
  EXPECT_EQ(tracer.dropped(), 0u);

  std::ostringstream actual;
  for (const std::string& name : tracer.span_names()) actual << name << "\n";

  const std::string path =
      std::string(LBMEM_GOLDEN_DIR) + "/obs_span_names.txt";
  if (update_mode()) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual.str();
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "cannot read " << path
                  << " (run with LBMEM_UPDATE_GOLDEN=1 to create it)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual.str())
      << "span transcript drifted — regenerate with LBMEM_UPDATE_GOLDEN=1 "
         "if the instrumentation change is intentional";
}

}  // namespace
}  // namespace lbmem::obs
