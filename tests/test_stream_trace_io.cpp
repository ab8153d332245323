/// Tests for the trace text format (stream/trace_io.hpp): round-trips,
/// comment/blank handling, and loud failure on malformed input.

#include <gtest/gtest.h>

#include <string>
#include <variant>

#include "lbmem/gen/event_trace.hpp"
#include "lbmem/gen/paper_example.hpp"
#include "lbmem/stream/trace_io.hpp"
#include "lbmem/util/check.hpp"

namespace lbmem {
namespace {

TEST(StreamTraceIo, RoundTripsAGeneratedTrace) {
  const TaskGraph graph = paper_example_graph();
  const Architecture arch = paper_example_architecture();
  EventTraceParams params;
  params.events = 60;
  params.arrival = ArrivalModel::Poisson;
  const EventTrace trace = random_event_trace(graph, arch, params, 7);

  const std::string text = trace_to_string(trace);
  const EventTrace parsed = parse_trace(text);
  ASSERT_EQ(parsed.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(parsed[i].at, trace[i].at) << "event " << i;
    EXPECT_EQ(to_string(parsed[i]), to_string(trace[i])) << "event " << i;
  }
  // Producers survive the round trip (to_string only counts them).
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].kind() != EventKind::TaskArrival) continue;
    const auto& before = std::get<TaskArrival>(trace[i].payload).spec;
    const auto& after = std::get<TaskArrival>(parsed[i].payload).spec;
    ASSERT_EQ(after.producers.size(), before.producers.size());
    for (std::size_t d = 0; d < before.producers.size(); ++d) {
      EXPECT_EQ(after.producers[d].task, before.producers[d].task);
      EXPECT_EQ(after.producers[d].data_size, before.producers[d].data_size);
    }
  }
}

TEST(StreamTraceIo, SkipsCommentsAndBlankLines) {
  const EventTrace parsed = parse_trace(
      "# lbmem-trace v1\n"
      "\n"
      "3 wcet a 2\n"
      "   \n"
      "# interlude\n"
      "9 failure 1\n");
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].at, 3);
  EXPECT_EQ(std::get<WcetChange>(parsed[0].payload).task, "a");
  EXPECT_EQ(std::get<ProcessorFailure>(parsed[1].payload).proc, 1);
}

TEST(StreamTraceIo, ParsesArrivalWithProducers) {
  const EventTrace parsed = parse_trace("5 arrival dyn0 12 2 5 a:3 b:1\n");
  ASSERT_EQ(parsed.size(), 1u);
  const NewTaskSpec& spec = std::get<TaskArrival>(parsed[0].payload).spec;
  EXPECT_EQ(spec.name, "dyn0");
  EXPECT_EQ(spec.period, 12);
  EXPECT_EQ(spec.wcet, 2);
  EXPECT_EQ(spec.memory, 5);
  ASSERT_EQ(spec.producers.size(), 2u);
  EXPECT_EQ(spec.producers[0].task, "a");
  EXPECT_EQ(spec.producers[0].data_size, 3);
  EXPECT_EQ(spec.producers[1].task, "b");
  EXPECT_EQ(spec.producers[1].data_size, 1);
}

TEST(StreamTraceIo, RejectsMalformedInputWithLineNumbers) {
  // Each bad input names its 1-based line in the error.
  const std::pair<const char*, const char*> cases[] = {
      {"x wcet a 2\n", "line 1"},
      {"3 wcet a\n", "line 1"},
      {"3 teleport a\n", "line 1"},
      {"3 wcet a 2\n1 wcet a 3\n", "line 2"},         // decreasing ticks
      {"-1 wcet a 2\n", "line 1"},                     // negative tick
      {"3 failure -2\n", "line 1"},                    // negative proc
      {"0 failure 4294967297\n", "line 1"},            // proc beyond ProcId
      {"3 arrival dyn0 12 2 5 broken\n", "line 1"},    // producer sans ':'
      {"3 arrival dyn0 12 2\n", "line 1"},             // short arrival
  };
  for (const auto& [text, needle] : cases) {
    try {
      parse_trace(std::string(text));
      FAIL() << "accepted malformed trace: " << text;
    } catch (const ModelError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "error for '" << text << "' was: " << e.what();
    }
  }
}

TEST(StreamTraceIo, WriterRejectsUnrepresentableNames) {
  Event event;
  event.at = 1;
  event.payload = WcetChange{"has space", 2};
  EXPECT_THROW(trace_to_string({event}), ModelError);
  event.payload = TaskRemoval{"has:colon"};
  EXPECT_THROW(trace_to_string({event}), ModelError);
}

}  // namespace
}  // namespace lbmem
