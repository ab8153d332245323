/// Dedicated coverage for BalanceOptions::enforce_memory_capacity — the
/// optional branch that rejects otherwise-best destinations whose resident
/// memory would overrun the architecture's finite capacity. The suite
/// finds a capacity-tight generated workload where the unconstrained
/// balancer provably overruns the budget, then asserts (against the
/// validator, rule V5) that enforcement repairs exactly that.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "lbmem/gen/random_graph.hpp"
#include "lbmem/lb/load_balancer.hpp"
#include "lbmem/sched/scheduler.hpp"
#include "lbmem/validate/validator.hpp"

namespace lbmem {
namespace {

struct TightCase {
  std::uint64_t seed = 0;
  Mem capacity = 0;
  // Heap-allocated: the schedule holds a pointer to the graph, so its
  // address must survive the moves out of the scan loop.
  std::unique_ptr<TaskGraph> graph;
  std::optional<Schedule> before;
};

/// Deterministically scan seeds for a workload where, under a budget one
/// unit below the unconstrained balancer's peak memory, the blind balancer
/// keeps choosing over-budget destinations (its validation ladder then
/// rejects every attempt and falls back to the input), while the enforcing
/// balancer still produces a real, budget-respecting balance. That makes
/// the enforce_memory_capacity branch observably load-bearing.
std::optional<TightCase> find_tight_case() {
  RandomGraphParams params;
  params.tasks = 18;
  params.intended_processors = 3;
  params.mem_min = 2;
  params.mem_max = 24;
  const CommModel comm = CommModel::flat(2);
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    auto graph =
        std::make_unique<TaskGraph>(random_task_graph(params, seed));
    const Architecture unlimited(3);
    std::optional<Schedule> maybe_before;
    try {
      maybe_before.emplace(build_initial_schedule(*graph, unlimited, comm));
    } catch (const ScheduleError&) {
      continue;
    }
    const Schedule& before = *maybe_before;

    const BalanceResult loose = LoadBalancer().balance(before);
    if (loose.stats.fell_back) continue;
    const Mem peak = loose.schedule.max_memory();

    // Budget one unit below the unconstrained peak: the unconstrained
    // result violates it; can an enforcing run stay within it?
    const Mem budget = peak - 1;
    const Architecture capped(3, budget);
    Schedule capped_before(*graph, capped, comm);
    for (TaskId t = 0; t < static_cast<TaskId>(graph->task_count()); ++t) {
      capped_before.set_first_start(t, before.first_start(t));
      const InstanceIdx n = graph->instance_count(t);
      for (InstanceIdx k = 0; k < n; ++k) {
        capped_before.assign(TaskInstance{t, k},
                             before.proc(TaskInstance{t, k}));
      }
    }
    if (!validate(capped_before).ok()) {
      continue;  // the input itself busts the budget; pick a cleaner case
    }
    BalanceOptions blind;
    blind.enforce_memory_capacity = false;
    const BalanceResult loose_capped =
        LoadBalancer(blind).balance(capped_before);
    if (!loose_capped.stats.fell_back) {
      continue;  // the blind balancer dodged the budget by luck
    }
    BalanceOptions enforce;
    enforce.enforce_memory_capacity = true;
    const BalanceResult tight = LoadBalancer(enforce).balance(capped_before);
    if (!validate(tight.schedule).ok() || tight.stats.fell_back) continue;
    if (tight.stats.moves_off_home == 0) continue;  // want a real balance

    TightCase found;
    found.seed = seed;
    found.capacity = budget;
    found.graph = std::move(graph);
    found.before.emplace(std::move(capped_before));
    return found;
  }
  return std::nullopt;
}

TEST(MemoryCapacity, EnforcementIsLoadBearingAndValidatorClean) {
  const std::optional<TightCase> tight = find_tight_case();
  ASSERT_TRUE(tight.has_value())
      << "no capacity-tight workload found in the seed range";
  const Schedule& before = *tight->before;

  // Without enforcement the balancer keeps choosing over-budget
  // destinations: every attempt fails V5 validation internally and the run
  // collapses to the fallback (input returned unchanged, no improvement).
  BalanceOptions loose_options;
  loose_options.enforce_memory_capacity = false;
  const BalanceResult loose = LoadBalancer(loose_options).balance(before);
  EXPECT_TRUE(loose.stats.fell_back)
      << "seed " << tight->seed << ": unconstrained balance stayed within "
      << tight->capacity << " — the case is not tight";
  EXPECT_EQ(loose.stats.gain_total, 0);
  // The fallback comes after exactly two attempts: gains as configured,
  // then gains disabled.
  EXPECT_EQ(loose.stats.attempts_used, 2);

  // With enforcement the result is V5-clean and still a real balance.
  BalanceOptions enforce;
  enforce.enforce_memory_capacity = true;
  const BalanceResult result = LoadBalancer(enforce).balance(before);
  const ValidationReport report = validate(result.schedule);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_LE(result.schedule.max_memory(), tight->capacity);
  EXPECT_GT(result.stats.moves_off_home, 0);
  EXPECT_FALSE(result.stats.fell_back);
}

TEST(MemoryCapacity, RejectionsAreVisibleInTheTrace) {
  const std::optional<TightCase> tight = find_tight_case();
  ASSERT_TRUE(tight.has_value());
  BalanceOptions enforce;
  enforce.enforce_memory_capacity = true;
  enforce.record_trace = true;
  const BalanceResult result =
      LoadBalancer(enforce).balance(*tight->before);
  bool saw_capacity_reject = false;
  for (const StepRecord& step : result.trace) {
    for (const DestinationScore& candidate : step.candidates) {
      if (std::string(candidate.reject_reason) == "memory capacity exceeded") {
        saw_capacity_reject = true;
      }
    }
  }
  EXPECT_TRUE(saw_capacity_reject)
      << "enforcement never rejected a destination on this workload";
}

TEST(MemoryCapacity, UnlimitedArchitectureIgnoresTheFlag) {
  RandomGraphParams params;
  params.tasks = 14;
  params.intended_processors = 3;
  const TaskGraph graph = random_task_graph(params, 4);
  const Schedule before =
      build_initial_schedule(graph, Architecture(3), CommModel::flat(2));
  BalanceOptions enforce;
  enforce.enforce_memory_capacity = true;
  const BalanceResult with = LoadBalancer(enforce).balance(before);
  const BalanceResult without = LoadBalancer().balance(before);
  // With no finite capacity the flag must not change any decision.
  EXPECT_EQ(with.schedule.makespan(), without.schedule.makespan());
  for (const TaskInstance inst : before.all_instances()) {
    EXPECT_EQ(with.schedule.proc(inst), without.schedule.proc(inst));
  }
}

}  // namespace
}  // namespace lbmem
