/// Tests for the streaming event service (stream/service.hpp): the
/// coalesced-batch ≡ surviving-events-one-by-one property, order
/// preservation vs the replay harness, bounded-queue shedding, the
/// failure-flush and min-progress drain rules, overload escalation, and
/// determinism across balancer thread counts.

#include <gtest/gtest.h>

#include <memory>
#include <variant>

#include "lbmem/gen/event_trace.hpp"
#include "lbmem/gen/random_graph.hpp"
#include "lbmem/lb/load_balancer.hpp"
#include "lbmem/online/runner.hpp"
#include "lbmem/report/export.hpp"
#include "lbmem/report/stream.hpp"
#include "lbmem/sched/scheduler.hpp"
#include "lbmem/stream/service.hpp"
#include "lbmem/validate/validator.hpp"

namespace lbmem {
namespace {

Event at(Time when,
         std::variant<TaskArrival, TaskRemoval, WcetChange, ProcessorFailure>
             payload) {
  Event event;
  event.at = when;
  event.payload = std::move(payload);
  return event;
}

struct World {
  EventTrace trace;
  Rebalancer system;
};

/// A generated, scheduled, balanced system plus a timestamped trace —
/// deterministic in (seed, trace_seed), so building it twice yields twin
/// systems for equivalence tests.
World make_world(std::uint64_t seed, std::uint64_t trace_seed,
                 int events = 40,
                 ArrivalModel arrivals = ArrivalModel::Poisson,
                 RebalancerOptions options = {}) {
  RandomGraphParams params;
  params.tasks = 24;
  params.intended_processors = 3;
  auto graph = std::make_unique<TaskGraph>(random_task_graph(params, seed));
  const Architecture arch(3);
  const CommModel comm = CommModel::flat(2);
  Schedule before = build_initial_schedule(*graph, arch, comm);
  BalanceResult balanced = LoadBalancer().balance(before);

  EventTraceParams trace_params;
  trace_params.events = events;
  trace_params.arrival = arrivals;
  trace_params.mean_gap = 4.0;  // dense traffic: coalescing opportunities
  EventTrace trace =
      random_event_trace(*graph, arch, trace_params, trace_seed);

  Rebalancer system(std::move(graph), std::move(balanced.schedule),
                    std::move(options));
  return World{std::move(trace), std::move(system)};
}

/// StreamOptions that put the whole trace into one admission window with
/// no caps — the configuration under which one serve() coalescing pass
/// sees exactly the full trace.
StreamOptions one_window() {
  StreamOptions options;
  options.cycle_ticks = 1'000'000'000;
  options.queue_capacity = 0;  // unbounded
  options.batch_max = 1'000'000;
  options.budget_us = 0;
  return options;
}

// The PR's acceptance property: applying the coalesced batch is
// result-identical to applying the *surviving* events one by one. serve()
// with one giant window coalesces the full trace in a single pass and
// drains it through the engine; the twin system applies
// coalesce_events(trace) event by event. Same sequence, same engine state
// => byte-identical final schedule.
TEST(StreamService, CoalescedBatchMatchesSurvivorsAppliedOneByOne) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    World served = make_world(seed, seed + 100);
    World twin = make_world(seed, seed + 100);

    const StreamService service(one_window());
    const StreamReport report = service.serve(served.system, served.trace);
    EXPECT_GT(report.coalesced, 0) << "seed " << seed
        << ": trace produced no coalescing — property vacuous";

    const std::vector<Event> survivors = coalesce_events(twin.trace);
    ASSERT_EQ(static_cast<std::int64_t>(survivors.size()),
              report.admitted - report.coalesced);
    for (const Event& event : survivors) twin.system.apply(event);

    EXPECT_EQ(schedule_to_json(served.system.schedule()),
              schedule_to_json(twin.system.schedule()))
        << "seed " << seed;
    EXPECT_EQ(report.final_violations, 0) << "seed " << seed;
  }
}

// With coalescing off, serve() is an order-preserving pump: however the
// cycle/batch/budget knobs slice the trace into batches, the engine sees
// the events in trace order, so the final state matches the replay
// harness applying the trace directly.
TEST(StreamService, WithoutCoalescingMatchesReplayForAnyBatching) {
  for (const Time cycle_ticks : {Time{1}, Time{16}, Time{4096}}) {
    World served = make_world(7, 70);
    World twin = make_world(7, 70);

    StreamOptions options;
    options.cycle_ticks = cycle_ticks;
    options.queue_capacity = 0;
    options.batch_max = 3;  // force multi-cycle drains
    options.coalesce = false;
    const StreamReport report =
        StreamService(options).serve(served.system, served.trace);
    EXPECT_EQ(report.coalesced, 0);
    EXPECT_EQ(report.admitted, report.events_in);

    const OnlineRunner runner;
    runner.replay(twin.system, twin.trace);
    EXPECT_EQ(schedule_to_json(served.system.schedule()),
              schedule_to_json(twin.system.schedule()))
        << "cycle_ticks " << cycle_ticks;
  }
}

TEST(StreamService, DeterministicAcrossBalancerThreadCounts) {
  std::string baseline;
  for (const int threads : {1, 2, 4}) {
    RebalancerOptions online;
    online.balance.threads = threads;
    World world = make_world(11, 110, 60, ArrivalModel::Bursty,
                             std::move(online));
    StreamOptions options;
    options.cycle_ticks = 32;
    options.batch_max = 8;
    const StreamReport report =
        StreamService(options).serve(world.system, world.trace);
    const std::string rendered =
        stream_report_to_json(report, /*include_timing=*/false) +
        schedule_to_json(world.system.schedule());
    if (baseline.empty()) baseline = rendered;
    EXPECT_EQ(rendered, baseline) << "threads " << threads;
  }
}

TEST(StreamService, BoundedQueueShedsDeterministically) {
  World first = make_world(3, 33, 60);
  World second = make_world(3, 33, 60);
  StreamOptions options = one_window();
  options.queue_capacity = 8;
  const StreamReport a = StreamService(options).serve(first.system,
                                                      first.trace);
  const StreamReport b = StreamService(options).serve(second.system,
                                                      second.trace);
  EXPECT_GT(a.shed_overflow, 0);
  EXPECT_EQ(a.events_in, a.admitted + a.shed_overflow);
  EXPECT_EQ(stream_report_to_json(a, /*include_timing=*/false),
            stream_report_to_json(b, /*include_timing=*/false));
  EXPECT_EQ(schedule_to_json(first.system.schedule()),
            schedule_to_json(second.system.schedule()));
  EXPECT_EQ(a.final_violations, 0);
}

TEST(StreamService, FailureIsNeverShedAndAlwaysFlushes) {
  World world = make_world(5, 0, /*events=*/0);
  ASSERT_TRUE(world.trace.empty());
  // Five re-estimates crowd a capacity-4 queue; the failure arrives last
  // and must be admitted anyway, and the drain (batch_max 1) must flush
  // through it in the first cycle.
  const std::string victim = world.system.graph().task(0).name;
  EventTrace trace;
  for (int i = 0; i < 5; ++i) {
    trace.push_back(at(i, WcetChange{victim, 1 + i % 2}));
  }
  trace.push_back(at(5, ProcessorFailure{2}));

  StreamOptions options = one_window();
  options.queue_capacity = 4;
  options.batch_max = 1;
  const StreamReport report =
      StreamService(options).serve(world.system, world.trace = trace);
  EXPECT_EQ(report.shed_overflow, 1);  // the fifth wcet change
  EXPECT_EQ(report.admitted, 5);       // 4 changes + the failure
  // One batch drained everything: the queued failure overrides batch_max.
  EXPECT_EQ(report.batches, 1);
  EXPECT_EQ(report.batch_events.max(), report.admitted - report.coalesced);
  EXPECT_TRUE(world.system.failed_procs()[2]);
  EXPECT_TRUE(world.system.schedule().instances_on(2).empty());
  EXPECT_EQ(report.final_violations, 0);
}

TEST(StreamService, BudgetCutsCyclesButAlwaysMakesProgress) {
  World world = make_world(9, 90, 60);
  StreamOptions options;
  options.cycle_ticks = 1'000'000'000;  // everything pending at once
  options.queue_capacity = 0;
  options.batch_max = 1'000'000;
  options.budget_us = 1;  // exhausted by any real repair
  const StreamReport report =
      StreamService(options).serve(world.system, world.trace);
  // Every admitted-and-surviving event still drained (one per cycle).
  EXPECT_EQ(report.applied + report.rejected,
            report.admitted - report.coalesced);
  EXPECT_GT(report.budget_exhausted, 0);
  EXPECT_GT(report.cycles, 1);
  EXPECT_EQ(report.final_violations, 0);
}

TEST(StreamService, OverloadArmsTheLadderAndRestoresIt) {
  RebalancerOptions online;
  online.degraded = false;
  World world = make_world(13, 130, 60, ArrivalModel::Bursty,
                           std::move(online));
  StreamOptions options;
  options.cycle_ticks = 1'000'000'000;
  options.queue_capacity = 0;
  options.batch_max = 4;  // slow drain: backlog builds immediately
  options.overload_backlog = 16;
  const StreamReport report =
      StreamService(options).serve(world.system, world.trace);
  EXPECT_GE(report.escalations, 1);
  // The configured (off) state is restored once the run ends.
  EXPECT_FALSE(world.system.degraded_enabled());
  EXPECT_EQ(report.final_violations, 0);
}

TEST(StreamService, RegistryCountersMirrorTheReport) {
  obs::Registry registry;
  World world = make_world(2, 20, 40);
  StreamOptions options;
  options.cycle_ticks = 64;
  options.metrics = &registry;
  const StreamReport report =
      StreamService(options).serve(world.system, world.trace);

  const obs::Snapshot snap = registry.snapshot();
  const auto counter = [&](const char* name) {
    const obs::SnapshotEntry* entry = snap.find(name);
    return entry == nullptr ? std::int64_t{-1} : entry->value;
  };
  EXPECT_EQ(counter("stream.events_in"), report.events_in);
  EXPECT_EQ(counter("stream.admitted"), report.admitted);
  EXPECT_EQ(counter("stream.coalesced"), report.coalesced);
  EXPECT_EQ(counter("stream.batches"), report.batches);
  EXPECT_EQ(counter("stream.shed_on_overflow"), report.shed_overflow);
  EXPECT_EQ(counter("stream.cycles"), report.cycles);
  EXPECT_EQ(counter("stream.escalations"), report.escalations);

  const obs::SnapshotEntry* batch = snap.find("stream.batch_events");
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->cls, obs::MetricClass::Deterministic);
  EXPECT_EQ(batch->histogram.count(), report.batch_events.count());
  const obs::SnapshotEntry* delay_cycles =
      snap.find("stream.queue_delay_cycles");
  ASSERT_NE(delay_cycles, nullptr);
  EXPECT_EQ(delay_cycles->cls, obs::MetricClass::Deterministic);
  // Wall-clock histograms sit in the Timing class (stripped by
  // --timing=off), never in the deterministic subtree.
  const obs::SnapshotEntry* delay_us = snap.find("stream.queue_delay_us");
  ASSERT_NE(delay_us, nullptr);
  EXPECT_EQ(delay_us->cls, obs::MetricClass::Timing);
  EXPECT_EQ(delay_us->histogram.count(), report.queue_delay_us.count());
  const obs::SnapshotEntry* repair_us = snap.find("stream.batch_repair_us");
  ASSERT_NE(repair_us, nullptr);
  EXPECT_EQ(repair_us->cls, obs::MetricClass::Timing);
}

TEST(StreamService, ValidatesOptions) {
  StreamOptions bad;
  bad.cycle_ticks = 0;
  EXPECT_THROW(StreamService{bad}, Error);
  bad = StreamOptions{};
  bad.batch_max = 0;
  EXPECT_THROW(StreamService{bad}, Error);
  bad = StreamOptions{};
  bad.budget_us = -1;
  EXPECT_THROW(StreamService{bad}, Error);
}

TEST(StreamService, RejectsDecreasingArrivalTicks) {
  World world = make_world(4, 0, /*events=*/0);
  EventTrace bad;
  bad.push_back(at(10, WcetChange{world.system.graph().task(0).name, 2}));
  bad.push_back(at(5, WcetChange{world.system.graph().task(0).name, 3}));
  EXPECT_THROW(StreamService(one_window()).serve(world.system, bad), Error);
}

}  // namespace
}  // namespace lbmem
