/// Tests for the online event model (online/event.hpp) and the seeded
/// random trace generator (gen/event_trace.hpp): determinism, structural
/// well-formedness, and the event-mix knobs.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "lbmem/gen/event_trace.hpp"
#include "lbmem/gen/paper_example.hpp"
#include "lbmem/gen/random_graph.hpp"
#include "lbmem/util/check.hpp"

namespace lbmem {
namespace {

TEST(EventModel, KindMatchesPayload) {
  Event event;
  event.payload = WcetChange{"a", 2};
  EXPECT_EQ(event.kind(), EventKind::WcetChange);
  event.payload = ProcessorFailure{1};
  EXPECT_EQ(event.kind(), EventKind::ProcessorFailure);
  event.payload = TaskRemoval{"a"};
  EXPECT_EQ(event.kind(), EventKind::TaskRemoval);
  event.payload = TaskArrival{};
  EXPECT_EQ(event.kind(), EventKind::TaskArrival);
}

TEST(EventModel, ToStringIsReadable) {
  Event event;
  event.at = 7;
  event.payload = WcetChange{"imu", 3};
  EXPECT_EQ(to_string(event), "t=7 wcet imu -> E=3");
  event.payload = ProcessorFailure{1};
  EXPECT_EQ(to_string(event), "t=7 failure P2");
  event.payload = TaskRemoval{"imu"};
  EXPECT_EQ(to_string(event), "t=7 removal imu");
  NewTaskSpec spec;
  spec.name = "dyn0";
  spec.period = 8;
  spec.wcet = 2;
  spec.memory = 5;
  spec.producers.push_back(NewTaskSpec::Producer{"imu", 1});
  event.payload = TaskArrival{spec};
  EXPECT_EQ(to_string(event), "t=7 arrival dyn0 (T=8 E=2 m=5, 1 deps)");
}

TEST(EventTraceGenerator, DeterministicPerSeed) {
  const TaskGraph graph = paper_example_graph();
  const Architecture arch = paper_example_architecture();
  EventTraceParams params;
  params.events = 30;
  const EventTrace a = random_event_trace(graph, arch, params, 42);
  const EventTrace b = random_event_trace(graph, arch, params, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(to_string(a[i]), to_string(b[i])) << "event " << i;
    EXPECT_EQ(a[i].at, b[i].at);
  }
  const EventTrace c = random_event_trace(graph, arch, params, 43);
  bool differs = false;
  for (std::size_t i = 0; i < std::min(a.size(), c.size()); ++i) {
    if (to_string(a[i]) != to_string(c[i])) differs = true;
  }
  EXPECT_TRUE(differs) << "different seeds should give different traces";
}

TEST(EventTraceGenerator, StructurallyWellFormed) {
  RandomGraphParams graph_params;
  graph_params.tasks = 20;
  const TaskGraph graph = random_task_graph(graph_params, 5);
  const Architecture arch(4);
  EventTraceParams params;
  params.events = 60;
  params.max_failures = 2;
  const EventTrace trace = random_event_trace(graph, arch, params, 9);
  ASSERT_EQ(trace.size(), 60u);

  // Simulate the alive set the generator promises to respect.
  std::set<std::string> alive;
  for (const Task& task : graph.tasks()) alive.insert(task.name);
  int failures = 0;
  Time last = 0;
  for (const Event& event : trace) {
    EXPECT_GT(event.at, last) << "timestamps must strictly increase";
    last = event.at;
    switch (event.kind()) {
      case EventKind::TaskArrival: {
        const NewTaskSpec& spec = std::get<TaskArrival>(event.payload).spec;
        EXPECT_EQ(alive.count(spec.name), 0u) << spec.name;
        EXPECT_GT(spec.period, 0);
        EXPECT_GT(spec.wcet, 0);
        EXPECT_LE(spec.wcet, spec.period);
        for (const NewTaskSpec::Producer& producer : spec.producers) {
          EXPECT_EQ(alive.count(producer.task), 1u) << producer.task;
        }
        alive.insert(spec.name);
        break;
      }
      case EventKind::TaskRemoval: {
        const std::string& name = std::get<TaskRemoval>(event.payload).task;
        EXPECT_EQ(alive.count(name), 1u) << name;
        alive.erase(name);
        EXPECT_FALSE(alive.empty());
        break;
      }
      case EventKind::WcetChange: {
        const WcetChange& change = std::get<WcetChange>(event.payload);
        EXPECT_EQ(alive.count(change.task), 1u) << change.task;
        EXPECT_GT(change.wcet, 0);
        break;
      }
      case EventKind::ProcessorFailure: {
        const ProcId p = std::get<ProcessorFailure>(event.payload).proc;
        EXPECT_GE(p, 0);
        EXPECT_LT(p, arch.processor_count());
        ++failures;
        break;
      }
    }
  }
  EXPECT_LE(failures, 2);
}

TEST(EventTraceGenerator, WeightsSelectTheMix) {
  const TaskGraph graph = paper_example_graph();
  const Architecture arch = paper_example_architecture();
  EventTraceParams params;
  params.events = 25;
  params.arrival_weight = 0;
  params.removal_weight = 0;
  params.failure_weight = 0;
  params.wcet_weight = 1;
  const EventTrace trace = random_event_trace(graph, arch, params, 3);
  for (const Event& event : trace) {
    EXPECT_EQ(event.kind(), EventKind::WcetChange);
  }
}

TEST(EventTraceGenerator, ArrivalTicksAreNonDecreasingForEveryModel) {
  const TaskGraph graph = paper_example_graph();
  const Architecture arch = paper_example_architecture();
  for (const ArrivalModel model :
       {ArrivalModel::UniformGap, ArrivalModel::Poisson,
        ArrivalModel::Bursty}) {
    EventTraceParams params;
    params.events = 80;
    params.arrival = model;
    const EventTrace trace = random_event_trace(graph, arch, params, 5);
    ASSERT_EQ(trace.size(), 80u);
    for (std::size_t i = 1; i < trace.size(); ++i) {
      ASSERT_GE(trace[i].at, trace[i - 1].at)
          << "model " << static_cast<int>(model) << " event " << i;
    }
    EXPECT_GT(trace.back().at, 0);
  }
}

TEST(EventTraceGenerator, ArrivalModelsAreDeterministicAndDistinct) {
  const TaskGraph graph = paper_example_graph();
  const Architecture arch = paper_example_architecture();
  EventTraceParams params;
  params.events = 40;

  auto stamps = [&](ArrivalModel model, std::uint64_t seed) {
    params.arrival = model;
    std::vector<Time> at;
    for (const Event& e : random_event_trace(graph, arch, params, seed)) {
      at.push_back(e.at);
    }
    return at;
  };
  // Deterministic per (model, seed).
  EXPECT_EQ(stamps(ArrivalModel::Poisson, 9),
            stamps(ArrivalModel::Poisson, 9));
  EXPECT_EQ(stamps(ArrivalModel::Bursty, 9),
            stamps(ArrivalModel::Bursty, 9));
  // The models actually change the arrival process.
  EXPECT_NE(stamps(ArrivalModel::UniformGap, 9),
            stamps(ArrivalModel::Poisson, 9));
  EXPECT_NE(stamps(ArrivalModel::Poisson, 9),
            stamps(ArrivalModel::Bursty, 9));
}

TEST(EventTraceGenerator, BurstyAlternatesDenseRunsAndIdleGaps) {
  const TaskGraph graph = paper_example_graph();
  const Architecture arch = paper_example_architecture();
  EventTraceParams params;
  params.events = 120;
  params.arrival = ArrivalModel::Bursty;
  params.burst_gap = 1;
  params.idle_gap_min = 64;
  params.idle_gap_max = 256;
  const EventTrace trace = random_event_trace(graph, arch, params, 11);
  int tight = 0, idle = 0;
  for (std::size_t i = 1; i < trace.size(); ++i) {
    const Time gap = trace[i].at - trace[i - 1].at;
    if (gap <= params.burst_gap) ++tight;
    if (gap >= params.idle_gap_min) ++idle;
  }
  // Most gaps are intra-burst, and idle separators actually occur.
  EXPECT_GT(tight, idle);
  EXPECT_GE(idle, 3);
}

// The UniformGap default must make the exact same Rng draws as the
// pre-arrival-model generator, so seeded traces (and the replay goldens
// built on them) are stable across the feature: the gap knobs live in the
// same params struct and default to the legacy [1, 64].
TEST(EventTraceGenerator, UniformGapKeepsLegacyTracesByteIdentical) {
  const TaskGraph graph = paper_example_graph();
  const Architecture arch = paper_example_architecture();
  EventTraceParams params;
  params.events = 30;
  const EventTrace defaulted = random_event_trace(graph, arch, params, 42);
  params.arrival = ArrivalModel::UniformGap;  // explicit == default
  const EventTrace explicit_uniform =
      random_event_trace(graph, arch, params, 42);
  ASSERT_EQ(defaulted.size(), explicit_uniform.size());
  for (std::size_t i = 0; i < defaulted.size(); ++i) {
    EXPECT_EQ(defaulted[i].at, explicit_uniform[i].at);
    EXPECT_EQ(to_string(defaulted[i]), to_string(explicit_uniform[i]));
  }
}

TEST(EventTraceGenerator, ArrivalClockOverflowIsRejected) {
  // A mean gap of 1e18 ticks carries the clock past the largest tick
  // within a few events; one of 1e308 draws gaps no tick count can hold.
  // Both are rejected, naming the event, instead of wrapping.
  const TaskGraph graph = paper_example_graph();
  const Architecture arch = paper_example_architecture();
  EventTraceParams params;
  params.arrival = ArrivalModel::Poisson;
  const auto error = [&](double mean_gap, int events) {
    params.mean_gap = mean_gap;
    params.events = events;
    try {
      random_event_trace(graph, arch, params, 1);
    } catch (const PreconditionError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const std::string wrapped = error(1e18, 40);
  EXPECT_NE(wrapped.find("random_event_trace: event "), std::string::npos)
      << wrapped;
  EXPECT_NE(wrapped.find(" of 40 carries the arrival clock past the largest "
                         "tick"),
            std::string::npos)
      << wrapped;
  const std::string huge = error(1e308, 5);
  EXPECT_NE(huge.find("random_event_trace: event 1 of 5 draws a Poisson gap"),
            std::string::npos)
      << huge;
  EXPECT_NE(huge.find("not a representable tick count"), std::string::npos)
      << huge;
}

}  // namespace
}  // namespace lbmem
