/// End-to-end replay tests for the online subsystem: generated workloads,
/// generated traces, every post-event schedule validated — the subsystem's
/// acceptance bar (zero violations, deterministic replays).

#include <gtest/gtest.h>

#include <memory>

#include "lbmem/gen/event_trace.hpp"
#include "lbmem/gen/random_graph.hpp"
#include "lbmem/lb/load_balancer.hpp"
#include "lbmem/online/runner.hpp"
#include "lbmem/report/online.hpp"
#include "lbmem/sched/scheduler.hpp"

namespace lbmem {
namespace {

struct World {
  std::unique_ptr<TaskGraph> graph;
  Architecture arch;
  EventTrace trace;
  Rebalancer system;
};

/// A generated, scheduled, balanced system plus a trace, all deterministic
/// in (seed, trace_seed).
World make_world(std::uint64_t seed, std::uint64_t trace_seed,
                 int events = 20, Mem capacity = kUnlimitedMemory,
                 RebalancerOptions options = {}) {
  RandomGraphParams params;
  params.tasks = 24;
  params.intended_processors = 3;
  auto graph = std::make_unique<TaskGraph>(random_task_graph(params, seed));
  const Architecture arch(3, capacity);
  const CommModel comm = CommModel::flat(2);
  Schedule before = build_initial_schedule(*graph, arch, comm);
  BalanceOptions balance_options;
  balance_options.enforce_memory_capacity = capacity != kUnlimitedMemory;
  options.balance.enforce_memory_capacity =
      capacity != kUnlimitedMemory || options.balance.enforce_memory_capacity;
  BalanceResult balanced = LoadBalancer(balance_options).balance(before);

  EventTraceParams trace_params;
  trace_params.events = events;
  trace_params.max_failures = 1;
  EventTrace trace =
      random_event_trace(*graph, arch, trace_params, trace_seed);

  Rebalancer system(std::move(graph), std::move(balanced.schedule),
                    std::move(options));
  return World{nullptr, arch, std::move(trace), std::move(system)};
}

TEST(OnlineRunner, EveryPostEventScheduleValidates) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    World world = make_world(seed, seed + 100);
    const OnlineRunner runner;
    const OnlineReport report = runner.replay(world.system, world.trace);
    EXPECT_EQ(report.total_violations, 0) << "seed " << seed;
    EXPECT_EQ(report.events.size(), world.trace.size());
    EXPECT_EQ(report.applied + report.rejected,
              static_cast<int>(world.trace.size()));
    // A healthy engine applies the overwhelming majority of a generated
    // trace (rejections are legal but should be rare).
    EXPECT_GE(report.applied, static_cast<int>(world.trace.size()) / 2)
        << "seed " << seed;
  }
}

TEST(OnlineRunner, ReplayIsDeterministic) {
  World first = make_world(5, 55);
  World second = make_world(5, 55);
  const OnlineRunner runner;
  const OnlineReport a = runner.replay(first.system, first.trace);
  const OnlineReport b = runner.replay(second.system, second.trace);
  EXPECT_EQ(online_report_to_json(a, /*include_timing=*/false),
            online_report_to_json(b, /*include_timing=*/false));
  EXPECT_EQ(first.system.schedule().makespan(),
            second.system.schedule().makespan());
}

TEST(OnlineRunner, IncrementalAndFullModesBothValidateEverywhere) {
  RebalancerOptions full;
  full.incremental = false;
  World inc = make_world(7, 77);
  World ref = make_world(7, 77, 20, kUnlimitedMemory, full);
  const OnlineRunner runner;
  const OnlineReport inc_report = runner.replay(inc.system, inc.trace);
  const OnlineReport ref_report = runner.replay(ref.system, ref.trace);
  EXPECT_EQ(inc_report.total_violations, 0);
  EXPECT_EQ(ref_report.total_violations, 0);
}

TEST(OnlineRunner, MigrationPenaltyDampsChurn) {
  RebalancerOptions pricey;
  pricey.balance.migration_penalty = 1000;
  World cheap = make_world(11, 111, 30);
  World damped = make_world(11, 111, 30, kUnlimitedMemory, pricey);
  const OnlineRunner runner;
  const OnlineReport cheap_report = runner.replay(cheap.system, cheap.trace);
  const OnlineReport damped_report =
      runner.replay(damped.system, damped.trace);
  EXPECT_EQ(damped_report.total_violations, 0);
  // Pricing migrations must not increase balance-stage movement.
  EXPECT_LE(damped_report.total_balance_moves,
            cheap_report.total_balance_moves);
}

TEST(OnlineRunner, CapacityTightReplayStaysWithinBudget) {
  // A finite memory capacity turns validator rule V5 on; the engine
  // (repair capacity guard + enforce_memory_capacity in the balance stage)
  // must keep every post-event schedule within budget.
  World world = make_world(13, 131, 20, /*capacity=*/220);
  const OnlineRunner runner;
  const OnlineReport report = runner.replay(world.system, world.trace);
  EXPECT_EQ(report.total_violations, 0);
  EXPECT_LE(report.peak_max_memory, 220);
}

TEST(OnlineRunner, ReportRenderingsAreConsistent) {
  World world = make_world(2, 22, 12);
  const OnlineRunner runner;
  const OnlineReport report = runner.replay(world.system, world.trace);
  const std::string summary = summarize_online(report);
  EXPECT_NE(summary.find("events: 12"), std::string::npos) << summary;
  EXPECT_NE(summary.find("final makespan"), std::string::npos);
  const std::string json = online_report_to_json(report);
  EXPECT_NE(json.find("\"events\": ["), std::string::npos);
  EXPECT_NE(json.find("\"summary\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_seconds\""), std::string::npos);
  const std::string stable = online_report_to_json(report, false);
  EXPECT_EQ(stable.find("wall_seconds"), std::string::npos);
}

}  // namespace
}  // namespace lbmem
