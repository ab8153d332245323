/// Unit tests for the initial distributed scheduler (lbmem/sched/scheduler).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "lbmem/gen/paper_example.hpp"
#include "lbmem/gen/random_graph.hpp"
#include "lbmem/sched/scheduler.hpp"
#include "lbmem/util/check.hpp"
#include "lbmem/util/rng.hpp"
#include "lbmem/validate/validator.hpp"

namespace lbmem {
namespace {

TEST(Scheduler, PeriodClusterReproducesFigure3) {
  const TaskGraph g = paper_example_graph();
  SchedulerOptions options;
  options.policy = PlacementPolicy::PeriodCluster;
  const Schedule s = build_initial_schedule(
      g, paper_example_architecture(), paper_example_comm(), options);
  validate_or_throw(s);
  EXPECT_EQ(s.makespan(), 15);
  EXPECT_EQ(s.memory_on(0), 16);
  EXPECT_EQ(s.memory_on(1), 4);
  EXPECT_EQ(s.memory_on(2), 4);
}

TEST(Scheduler, MinStartTimeIsValidAndNoSlower) {
  const TaskGraph g = paper_example_graph();
  SchedulerOptions options;
  options.policy = PlacementPolicy::MinStartTime;
  const Schedule s = build_initial_schedule(
      g, paper_example_architecture(), paper_example_comm(), options);
  validate_or_throw(s);
  // Greedy earliest-start places b next to a (no comm): strictly earlier
  // completion than the PeriodCluster schedule.
  EXPECT_LE(s.makespan(), 15);
}

TEST(Scheduler, SingleProcessorSerializes) {
  TaskGraph g;
  const TaskId a = g.add_task("a", 4, 1, 1);
  const TaskId b = g.add_task("b", 4, 1, 1);
  g.add_dependence(a, b);
  g.freeze();
  const Schedule s = build_initial_schedule(g, Architecture(1),
                                            CommModel::flat(1), {});
  validate_or_throw(s);
  // Same processor: no communication delay.
  EXPECT_EQ(s.first_start(a), 0);
  EXPECT_EQ(s.first_start(b), 1);
}

TEST(Scheduler, CommunicationDelaysRemoteConsumer) {
  TaskGraph g;
  const TaskId a = g.add_task("a", 8, 4, 1);   // hog: fills half of P
  const TaskId b = g.add_task("b", 8, 4, 1);
  const TaskId c = g.add_task("c", 8, 1, 1);
  g.add_dependence(a, c, /*data_size=*/1);
  g.freeze();
  (void)b;
  const Schedule s = build_initial_schedule(
      g, Architecture(2), CommModel::flat(3), {});
  validate_or_throw(s);
  const ProcId pa = s.proc(TaskInstance{a, 0});
  const ProcId pc = s.proc(TaskInstance{c, 0});
  if (pa == pc) {
    EXPECT_GE(s.first_start(c), s.end(TaskInstance{a, 0}));
  } else {
    EXPECT_GE(s.first_start(c), s.end(TaskInstance{a, 0}) + 3);
  }
}

TEST(Scheduler, ThrowsWhenUnschedulable) {
  // Two tasks each needing the whole period cannot share one processor.
  TaskGraph g;
  g.add_task("a", 4, 4, 1);
  g.add_task("b", 4, 4, 1);
  g.freeze();
  EXPECT_THROW(
      build_initial_schedule(g, Architecture(1), CommModel::flat(1), {}),
      ScheduleError);
}

TEST(Scheduler, FitsExactlyOnTwoProcessors) {
  TaskGraph g;
  g.add_task("a", 4, 4, 1);
  g.add_task("b", 4, 4, 1);
  g.freeze();
  const Schedule s = build_initial_schedule(g, Architecture(2),
                                            CommModel::flat(1), {});
  validate_or_throw(s);
  EXPECT_NE(s.proc(TaskInstance{0, 0}), s.proc(TaskInstance{1, 0}));
}

TEST(Scheduler, PrecedenceLowerBoundMultiRate) {
  const TaskGraph g = paper_example_graph();
  Schedule s(g, paper_example_architecture(), paper_example_comm());
  const TaskId a = g.find("a");
  const TaskId b = g.find("b");
  s.set_first_start(a, 0);
  s.assign_all(a, 0);
  // b0 needs a0,a1 (ready 4 local / 5 remote); b1 needs a2,a3 (ready 10
  // local / 11 remote). Lower bound on the first start of b:
  // max(ready_k - k*T_b).
  std::vector<Time> bounds;
  precedence_lower_bounds(s, b, bounds);
  EXPECT_EQ(bounds, (std::vector<Time>{4, 5, 5}));
}

/// The definition precedence_lower_bounds() computes in one pass: per
/// processor, the latest data_ready of an instance less its offset k*T.
Time bound_by_data_ready(const Schedule& s, TaskId t, ProcId p) {
  const TaskGraph& g = s.graph();
  Time lb = 0;
  for (InstanceIdx k = 0; k < g.instance_count(t); ++k) {
    lb = std::max(lb, s.data_ready(TaskInstance{t, k}, p) -
                          g.task(t).period * static_cast<Time>(k));
  }
  return lb;
}

TEST(Scheduler, OnePassBoundsMatchTheDataReadyReference) {
  // Multi-rate graphs with data sizes 1..8 under an affine model (and a
  // flat one), every instance on its own random processor, and starts in
  // a narrow window so that equal arrivals are common.
  int tied = 0;       // consumer instances whose two latest remote
                      // arrivals, on distinct processors, are equal
  int colocated = 0;  // consumer instances with two producers on one proc
  std::vector<Time> bounds;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    RandomGraphParams params;
    params.tasks = 30;
    params.edge_probability = 0.4;
    const TaskGraph g = random_task_graph(params, seed);
    const int procs = 2 + static_cast<int>(seed % 3);
    const CommModel comm =
        seed % 2 == 0 ? CommModel::affine(1, 2) : CommModel::flat(2);
    Schedule s(g, Architecture(procs), comm);
    Rng rng(seed);
    for (TaskId t = 0; t < static_cast<TaskId>(g.task_count()); ++t) {
      s.set_first_start(t, rng.uniform(0, 3));
      for (InstanceIdx k = 0; k < g.instance_count(t); ++k) {
        s.assign(TaskInstance{t, k},
                 static_cast<ProcId>(rng.uniform(0, procs - 1)));
      }
    }
    for (TaskId t = 0; t < static_cast<TaskId>(g.task_count()); ++t) {
      precedence_lower_bounds(s, t, bounds);
      ASSERT_EQ(bounds.size(), static_cast<std::size_t>(procs));
      for (ProcId p = 0; p < procs; ++p) {
        EXPECT_EQ(bounds[static_cast<std::size_t>(p)],
                  bound_by_data_ready(s, t, p))
            << "seed " << seed << " task " << t << " proc " << p;
      }
      for (InstanceIdx k = 0; k < g.instance_count(t); ++k) {
        std::vector<Time> arrival(static_cast<std::size_t>(procs), -1);
        int producers = 0;
        for (const std::int32_t e : g.deps_in(t)) {
          const Dependence& dep = g.dependences()[static_cast<std::size_t>(e)];
          const ConsumedRange range = g.consumed_range(e, k);
          for (InstanceIdx i = 0; i < range.count; ++i) {
            const TaskInstance producer{dep.producer, range.first + i};
            Time& a = arrival[static_cast<std::size_t>(s.proc(producer))];
            a = std::max(a, s.end(producer) + comm.transfer_time(dep.data_size));
            ++producers;
          }
        }
        const auto distinct = std::count_if(
            arrival.begin(), arrival.end(), [](Time a) { return a >= 0; });
        if (producers > distinct) ++colocated;
        std::sort(arrival.rbegin(), arrival.rend());
        if (distinct >= 2 && arrival[0] == arrival[1]) ++tied;
      }
    }
  }
  EXPECT_GT(tied, 0);
  EXPECT_GT(colocated, 0);
}

TEST(Scheduler, ForcedScheduleHonoursAssignment) {
  const TaskGraph g = paper_example_graph();
  std::vector<ProcId> assignment(g.task_count(), 0);
  assignment[static_cast<std::size_t>(g.find("d"))] = 2;
  assignment[static_cast<std::size_t>(g.find("e"))] = 2;
  const Schedule s = build_forced_schedule(
      g, paper_example_architecture(), paper_example_comm(), assignment);
  validate_or_throw(s);
  for (TaskId t = 0; t < static_cast<TaskId>(g.task_count()); ++t) {
    for (InstanceIdx k = 0; k < g.instance_count(t); ++k) {
      EXPECT_EQ(s.proc(TaskInstance{t, k}),
                assignment[static_cast<std::size_t>(t)]);
    }
  }
}

TEST(Scheduler, ForcedScheduleThrowsWhenOverloaded) {
  TaskGraph g;
  g.add_task("a", 4, 3, 1);
  g.add_task("b", 4, 3, 1);
  g.freeze();
  const std::vector<ProcId> all_on_p1(g.task_count(), 0);
  EXPECT_THROW(build_forced_schedule(g, Architecture(2), CommModel::flat(1),
                                     all_on_p1),
               ScheduleError);
}

TEST(Scheduler, ClusterFallbackRescuesOverflow) {
  // Three equal-period hogs: the period cluster targets one processor but
  // only two fit; fallback must spread them.
  TaskGraph g;
  g.add_task("a", 4, 2, 1);
  g.add_task("b", 4, 2, 1);
  g.add_task("c", 4, 2, 1);
  g.freeze();
  SchedulerOptions options;
  options.policy = PlacementPolicy::PeriodCluster;
  const Schedule s =
      build_initial_schedule(g, Architecture(2), CommModel::flat(1), options);
  validate_or_throw(s);
}

TEST(Scheduler, RandomGraphsScheduleAndValidate) {
  RandomGraphParams params;
  params.tasks = 40;
  params.intended_processors = 4;
  int scheduled = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const TaskGraph g = random_task_graph(params, seed);
    try {
      const Schedule s = build_initial_schedule(g, Architecture(4),
                                                CommModel::flat(2), {});
      validate_or_throw(s);
      ++scheduled;
    } catch (const ScheduleError&) {
      // acceptable for some seeds
    }
  }
  EXPECT_GE(scheduled, 5) << "generator produces mostly schedulable systems";
}

}  // namespace
}  // namespace lbmem
