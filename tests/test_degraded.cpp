/// Tests for the degraded-mode repair ladder (DESIGN.md F28), concurrent
/// failure streams, and the miss-rate-driven selector (DESIGN.md F30):
/// rung escalation order, per-rung rollback (F14), load shedding
/// determinism, and the harness-level multi-failure recovery.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lbmem/api/problem.hpp"
#include "lbmem/api/solvers.hpp"
#include "lbmem/online/rebalancer.hpp"
#include "lbmem/sim/robustness.hpp"

namespace lbmem {
namespace {

/// The capacity-starved pair: one fat task per processor, capacity that
/// fits exactly one — any failure makes the survivor's memory bust, so
/// without the ladder the event rejects (test_robustness pins that).
struct FatPair {
  TaskGraph graph;
  TaskId t1;
  TaskId t2;
  Schedule make_schedule() const {
    Schedule s(graph, Architecture(2, /*memory_capacity=*/100),
               CommModel::flat(1));
    s.set_first_start(t1, 0);
    s.assign_all(t1, 0);
    s.set_first_start(t2, 0);
    s.assign_all(t2, 1);
    return s;
  }
};

FatPair fat_pair() {
  FatPair f;
  f.t1 = f.graph.add_task("t1", 4, 1, 60);
  f.t2 = f.graph.add_task("t2", 4, 1, 60);
  f.graph.freeze();
  return f;
}

RebalancerOptions degraded_options() {
  RebalancerOptions opts;
  opts.balance.enforce_memory_capacity = true;
  opts.degraded = true;
  return opts;
}

/// A balanced 12-task / 3-processor workload (the CLI smoke scenario):
/// known schedulable, and known repairable when one processor dies.
Outcome solved_workload() {
  WorkloadSpec spec;
  spec.graph.tasks = 12;
  spec.graph.intended_processors = 3;
  spec.processors = 3;
  spec.seed = 7;
  const Problem problem = Problem::generate(spec);
  Outcome outcome = HeuristicSolver().solve(problem);
  EXPECT_TRUE(outcome.feasible());
  return outcome;
}

TEST(Degraded, AllFailuresMergesLegacyAndList) {
  // The list comes back sorted by (at, proc); a processor only dies
  // once — the earliest time wins.
  PerturbSpec spec;
  spec.failures = {{1, 9}, {0, 3}, {1, 5}};
  EXPECT_TRUE(spec.any_failure());
  const std::vector<ProcessorFault> all = spec.all_failures();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].proc, 0);
  EXPECT_EQ(all[0].at, 3);
  EXPECT_EQ(all[1].proc, 1);
  EXPECT_EQ(all[1].at, 5);  // the t=9 entry deduplicated away
}

TEST(Degraded, FailureListAloneActivatesTheSpec) {
  PerturbSpec spec;
  EXPECT_FALSE(spec.any_failure());
  spec.failures = {{0, 0}};
  EXPECT_TRUE(spec.any_failure());
  EXPECT_TRUE(spec.active());
  const std::vector<ProcessorFault> all = spec.all_failures();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].proc, 0);
}

TEST(Degraded, SelectorExploresUnobservedCandidatesFirst) {
  MissRateSelector sel({"x", "y", "z"});
  EXPECT_EQ(sel.size(), 3);
  EXPECT_EQ(sel.pick(), 0);
  sel.observe(0, 0.5);
  EXPECT_EQ(sel.pick(), 1);
  sel.observe(1, 0.1);
  EXPECT_EQ(sel.pick(), 2);
  sel.observe(2, 0.3);
  // All observed: exploit the lowest pooled mean.
  EXPECT_EQ(sel.pick(), 1);
  EXPECT_EQ(sel.name(sel.pick()), "y");
}

TEST(Degraded, SelectorPoolsObservationsAndBreaksTiesEarlier) {
  MissRateSelector sel({"x", "y"});
  sel.observe(0, 0.2);
  sel.observe(1, 0.2);
  EXPECT_EQ(sel.pick(), 0);  // equal pooled means -> earlier candidate
  sel.observe(0, 0.8);       // pools to 0.5, y now strictly better
  EXPECT_EQ(sel.pick(), 1);
  EXPECT_DOUBLE_EQ(sel.pooled(0), 0.5);
  EXPECT_EQ(sel.observations(0), 2);
  EXPECT_EQ(sel.observations(1), 1);
}

TEST(DegradedLadder, ShedRungRecoversCapacityStarvedFailure) {
  // The whole ladder fails until rung 3: the survivor cannot host both
  // fat tasks, so the lowest-priority one is explicitly dropped and the
  // event applies instead of rejecting.
  const FatPair f = fat_pair();
  Rebalancer system =
      Rebalancer::adopt(f.graph, f.make_schedule(), degraded_options());
  const EventOutcome out = system.fail_processor(1, 2);
  EXPECT_TRUE(out.applied);
  EXPECT_EQ(out.degraded_rung, 3);
  ASSERT_EQ(out.shed.size(), 1u);
  EXPECT_EQ(out.shed[0], "t1");  // period/memory tie -> name order
  EXPECT_EQ(system.shed_tasks(), out.shed);
  EXPECT_EQ(system.graph().task_count(), 1);
  EXPECT_EQ(system.graph().task(0).name, "t2");
  EXPECT_EQ(system.alive_processor_count(), 1);
  EXPECT_LE(system.schedule().memory_on(0), 100);
}

TEST(DegradedLadder, ShedSetIsDeterministic) {
  const FatPair f = fat_pair();
  std::vector<std::string> first;
  for (int run = 0; run < 2; ++run) {
    Rebalancer system =
        Rebalancer::adopt(f.graph, f.make_schedule(), degraded_options());
    const EventOutcome out = system.fail_processor(1, 2);
    EXPECT_TRUE(out.applied);
    if (run == 0) {
      first = out.shed;
    } else {
      EXPECT_EQ(out.shed, first);
    }
  }
}

TEST(DegradedLadder, ExhaustedLadderRollsBackCompletely) {
  // b fills a whole processor (period = WCET = 4), so only an empty one
  // can take it over: when P1 dies, all five period-8 tasks on P2 would
  // have to go — one more than the shed rung's cap of four. The whole
  // ladder fails, and per DESIGN.md F14 the reject must leave no trace:
  // schedule, graph, failed-processor set all exactly as before.
  TaskGraph g;
  const TaskId a = g.add_task("a", 4, 4, 1);
  const TaskId b = g.add_task("b", 4, 4, 1);
  std::vector<TaskId> light;
  for (const char* name : {"c", "d", "e", "f", "g"}) {
    light.push_back(g.add_task(name, 8, 1, 1));
  }
  g.freeze();
  Schedule s(g, Architecture(3), CommModel::flat(1));
  s.set_first_start(a, 0);
  s.assign_all(a, 0);
  s.set_first_start(b, 0);
  s.assign_all(b, 1);
  for (std::size_t i = 0; i < light.size(); ++i) {
    s.set_first_start(light[i], static_cast<Time>(i));
    s.assign_all(light[i], 2);
  }

  Rebalancer system = Rebalancer::adopt(g, s, degraded_options());
  const EventOutcome out = system.fail_processor(1, 2);
  EXPECT_FALSE(out.applied);
  EXPECT_FALSE(out.reject_reason.empty());
  EXPECT_EQ(out.degraded_rung, 0);
  EXPECT_TRUE(out.shed.empty());
  EXPECT_EQ(system.graph().task_count(), 7);
  EXPECT_EQ(system.alive_processor_count(), 3);
  EXPECT_TRUE(system.shed_tasks().empty());
  for (TaskId t = 0; t < static_cast<TaskId>(g.task_count()); ++t) {
    EXPECT_EQ(system.schedule().first_start(t), s.first_start(t));
    for (InstanceIdx k = 0; k < g.instance_count(t); ++k) {
      EXPECT_EQ(system.schedule().proc(TaskInstance{t, k}),
                s.proc(TaskInstance{t, k}));
    }
  }
}

TEST(DegradedLadder, BackToBackFailuresKeepEveryRollbackContract) {
  // Two ProcessorFailures at the same timestamp, applied back to back:
  // each runs the full ladder against the state the previous one left —
  // the first sheds t1, the second (on the shrunken graph) sheds t2 —
  // and nothing leaks between the rungs (the regression the per-rung
  // pre-event snapshots exist for).
  TaskGraph g;
  const TaskId t1 = g.add_task("t1", 4, 1, 60);
  const TaskId t2 = g.add_task("t2", 4, 1, 60);
  const TaskId t3 = g.add_task("t3", 4, 1, 60);
  g.freeze();
  Schedule s(g, Architecture(3, /*memory_capacity=*/100), CommModel::flat(1));
  s.set_first_start(t1, 0);
  s.assign_all(t1, 0);
  s.set_first_start(t2, 0);
  s.assign_all(t2, 1);
  s.set_first_start(t3, 0);
  s.assign_all(t3, 2);

  Rebalancer system = Rebalancer::adopt(g, s, degraded_options());
  const EventOutcome first = system.fail_processor(1, 2);
  EXPECT_TRUE(first.applied);
  EXPECT_EQ(first.degraded_rung, 3);
  ASSERT_EQ(first.shed.size(), 1u);
  EXPECT_EQ(first.shed[0], "t1");
  EXPECT_EQ(system.graph().task_count(), 2);

  const EventOutcome second = system.fail_processor(2, 2);
  EXPECT_TRUE(second.applied);
  EXPECT_EQ(second.degraded_rung, 3);
  ASSERT_EQ(second.shed.size(), 1u);
  EXPECT_EQ(second.shed[0], "t2");
  // Accumulated across events, in shed order.
  EXPECT_EQ(system.shed_tasks(),
            (std::vector<std::string>{"t1", "t2"}));
  EXPECT_EQ(system.graph().task_count(), 1);
  EXPECT_EQ(system.graph().task(0).name, "t3");
  EXPECT_EQ(system.alive_processor_count(), 1);
  EXPECT_LE(system.schedule().memory_on(0), 100);
}

TEST(DegradedLadder, HarnessRecoversConcurrentFailuresThroughTheLadder) {
  // End to end: two concurrent failures on the solved workload, degraded
  // mode on — every failure repairs (one through a deep rung), the
  // per-failure outcomes are reported in injection order, and the run is
  // deterministic.
  const Outcome outcome = solved_workload();
  RobustnessOptions rob;
  rob.sim.hyperperiods = 4;
  rob.replications = 2;
  rob.perturb.failures = {{0, 3}, {1, 9}};
  rob.repair.degraded = true;
  const RobustnessReport report = run_robustness(*outcome.schedule, rob);
  EXPECT_TRUE(report.failure_injected);
  EXPECT_TRUE(report.recovered);
  ASSERT_EQ(report.failures.size(), 2u);
  EXPECT_EQ(report.failures[0].proc, 0);
  EXPECT_EQ(report.failures[0].at, 3);
  EXPECT_TRUE(report.failures[0].repaired);
  EXPECT_EQ(report.failures[1].proc, 1);
  EXPECT_EQ(report.failures[1].at, 9);
  EXPECT_TRUE(report.failures[1].repaired);
  // The second failure leaves one survivor: deep-rung recovery.
  EXPECT_GT(report.failures[1].degraded_rung, 0);
  EXPECT_GT(report.recovery_latency, 0);
  // recovery_latency rolls up the slowest repair.
  Time worst = 0;
  for (const FailureOutcome& fo : report.failures) {
    if (fo.recovery_latency > worst) worst = fo.recovery_latency;
  }
  EXPECT_EQ(report.recovery_latency, worst);

  const RobustnessReport again = run_robustness(*outcome.schedule, rob);
  ASSERT_EQ(again.failures.size(), report.failures.size());
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    EXPECT_EQ(again.failures[i].repaired, report.failures[i].repaired);
    EXPECT_EQ(again.failures[i].degraded_rung,
              report.failures[i].degraded_rung);
    EXPECT_EQ(again.failures[i].shed, report.failures[i].shed);
  }
  ASSERT_EQ(again.replications.size(), report.replications.size());
  for (std::size_t r = 0; r < report.replications.size(); ++r) {
    EXPECT_DOUBLE_EQ(again.replications[r].miss_rate,
                     report.replications[r].miss_rate);
  }
}

TEST(DegradedLadder, UnrepairedFailureLeavesRecoveredFalse) {
  // Multi-failure semantics: recovered means *every* failure repaired.
  // The fat pair cannot survive a failure without shedding, and the
  // harness's repair has the ladder off — so the report must say so.
  const FatPair f = fat_pair();
  const Schedule s = f.make_schedule();
  RobustnessOptions rob;
  rob.sim.hyperperiods = 2;
  rob.replications = 1;
  rob.perturb.failures = {{1, 2}};
  rob.repair.balance.enforce_memory_capacity = true;
  const RobustnessReport report = run_robustness(s, rob);
  EXPECT_TRUE(report.failure_injected);
  EXPECT_FALSE(report.recovered);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_FALSE(report.failures[0].repaired);
  EXPECT_EQ(report.failures[0].recovery_latency, 0);
  EXPECT_FALSE(report.failures[0].detail.empty());
}

}  // namespace
}  // namespace lbmem
