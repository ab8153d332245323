/// Additional load-balancer coverage: overlap-rule variants, affine
/// communication models, failure-injection-style edge cases.

#include <gtest/gtest.h>

#include "lbmem/gen/paper_example.hpp"
#include "lbmem/gen/suites.hpp"
#include "lbmem/lb/load_balancer.hpp"
#include "lbmem/sim/bus.hpp"
#include "lbmem/util/check.hpp"
#include "lbmem/validate/validator.hpp"

namespace lbmem {
namespace {

TEST(OverlapRules, MovedOnlyAlsoReproducesFigure4) {
  // The paper's literal overlap semantics (moved prefix only) still walks
  // the example to the Figure-4 result — the example never trips over an
  // unmoved block.
  const TaskGraph g = paper_example_graph();
  const Schedule before = paper_example_schedule(g);
  BalanceOptions options;
  options.overlap_rule = OverlapRule::MovedOnly;
  const BalanceResult r = LoadBalancer(options).balance(before);
  validate_or_throw(r.schedule);
  EXPECT_EQ(r.schedule.makespan(), 14);
  EXPECT_EQ(r.schedule.memory_on(0), 10);
  EXPECT_EQ(r.schedule.memory_on(1), 6);
  EXPECT_EQ(r.schedule.memory_on(2), 8);
}

TEST(OverlapRules, AllInstancesMarksStep3P1Infeasible) {
  // Under the strict rule, P1 is infeasible for [b1-c1] (c1 would land on
  // the unmoved a3) — the only trace-visible difference from the paper's
  // walkthrough, which prints λ=1/4 there (DESIGN.md F8). The chosen
  // destination (P2) is unchanged.
  const TaskGraph g = paper_example_graph();
  const Schedule before = paper_example_schedule(g);
  BalanceOptions options;
  options.record_trace = true;
  const BalanceResult r = LoadBalancer(options).balance(before);
  const StepRecord& step3 = r.trace[2];
  EXPECT_FALSE(step3.candidates[0].feasible);
  EXPECT_EQ(step3.chosen, 1);
}

TEST(OverlapRules, BothRulesAlwaysReturnValidSchedules) {
  SuiteSpec spec;
  spec.params.tasks = 35;
  spec.processors = 4;
  spec.count = 6;
  spec.base_seed = 4242;
  const auto suite = make_suite(spec);
  ASSERT_FALSE(suite.empty());
  for (const OverlapRule rule :
       {OverlapRule::AllInstances, OverlapRule::MovedOnly}) {
    BalanceOptions options;
    options.overlap_rule = rule;
    const LoadBalancer balancer(options);
    for (const SuiteInstance& instance : suite) {
      const BalanceResult r = balancer.balance(instance.schedule);
      EXPECT_TRUE(validate(r.schedule).ok())
          << "rule=" << static_cast<int>(rule) << " seed=" << instance.seed;
      EXPECT_GE(r.stats.gain_total, 0);
    }
  }
}

TEST(AffineComm, BalancerHonoursSizeDependentDelays) {
  // Two consumers with different data sizes: the big edge pays more comm,
  // so co-locating it yields the larger gain.
  TaskGraph g;
  const TaskId src = g.add_task("src", 32, 2, 4);
  const TaskId big = g.add_task("big", 32, 2, 4);
  const TaskId small = g.add_task("small", 32, 2, 4);
  g.add_dependence(src, big, /*data_size=*/16);  // 1 + 16/2 = 9 ticks
  g.add_dependence(src, small, /*data_size=*/2); // 1 + 1 = 2 ticks
  g.freeze();
  const CommModel comm = CommModel::affine(1, 2);
  Schedule s(g, Architecture(3), comm);
  s.set_first_start(src, 0);
  s.assign_all(src, 0);
  s.set_first_start(big, 11);   // 2 + 9
  s.assign_all(big, 1);
  s.set_first_start(small, 4);  // 2 + 2
  s.assign_all(small, 2);
  validate_or_throw(s);

  BalanceOptions options;
  options.policy = CostPolicy::GainOnly;
  const BalanceResult r = LoadBalancer(options).balance(s);
  validate_or_throw(r.schedule);
  // Blocks are processed by start time: small (start 4) claims the slot
  // right after src; big then joins P1 behind it — its nine-tick
  // communication disappears, bounded by the processor becoming free at 4.
  EXPECT_EQ(r.schedule.proc(TaskInstance{small, 0}), 0);
  EXPECT_EQ(r.schedule.first_start(small), 2);
  EXPECT_EQ(r.schedule.proc(TaskInstance{big, 0}), 0);
  EXPECT_EQ(r.schedule.first_start(big), 4);
  EXPECT_EQ(r.stats.gain_total, 7);
}

TEST(AffineComm, SuitesBalanceValidUnderAffineModel) {
  SuiteSpec spec;
  spec.params.tasks = 30;
  spec.processors = 3;
  spec.count = 4;
  spec.base_seed = 515;
  // make_suite uses flat comm; rebuild schedules under an affine model.
  const auto suite = make_suite(spec);
  for (const SuiteInstance& instance : suite) {
    const CommModel comm = CommModel::affine(1, 3);
    try {
      const Schedule before = build_initial_schedule(
          *instance.graph, Architecture(3), comm, {});
      const BalanceResult r = LoadBalancer().balance(before);
      EXPECT_TRUE(validate(r.schedule).ok()) << "seed " << instance.seed;
      EXPECT_LE(r.schedule.makespan(), before.makespan());
    } catch (const ScheduleError&) {
      // some seeds are unschedulable under the slower comm model: fine
    }
  }
}

TEST(Robustness, BalancerOnAlreadyPackedProcessor) {
  // A fully saturated single processor leaves no freedom: the balancer
  // must return the identical schedule.
  TaskGraph g;
  g.add_task("x", 4, 2, 3);
  g.add_task("y", 4, 2, 5);
  g.freeze();
  Schedule s(g, Architecture(1), CommModel::flat(1));
  s.set_first_start(0, 0);
  s.set_first_start(1, 2);
  s.assign_all(0, 0);
  s.assign_all(1, 0);
  validate_or_throw(s);
  const BalanceResult r = LoadBalancer().balance(s);
  validate_or_throw(r.schedule);
  EXPECT_EQ(r.schedule.first_start(0), 0);
  EXPECT_EQ(r.schedule.first_start(1), 2);
  EXPECT_EQ(r.stats.gain_total, 0);
}

TEST(Robustness, ZeroMemoryTasksStillBalance) {
  TaskGraph g;
  const TaskId u = g.add_task("u", 8, 1, 0);
  const TaskId v = g.add_task("v", 8, 1, 0);
  g.add_dependence(u, v);
  g.freeze();
  Schedule s(g, Architecture(2), CommModel::flat(2));
  s.set_first_start(u, 0);
  s.set_first_start(v, 3);
  s.assign_all(u, 0);
  s.assign_all(v, 1);
  const BalanceResult r = LoadBalancer().balance(s);
  validate_or_throw(r.schedule);
  EXPECT_GE(r.stats.gain_total, 0);
}

TEST(BusIntegration, BalancedSuiteSchedulesAnalyzable) {
  SuiteSpec spec;
  spec.params.tasks = 25;
  spec.processors = 3;
  spec.count = 5;
  spec.base_seed = 616;
  const LoadBalancer balancer;
  for (const SuiteInstance& instance : make_suite(spec)) {
    const BalanceResult r = balancer.balance(instance.schedule);
    const BusReport report = analyze_single_bus(r.schedule);
    if (report.verdict == BusVerdict::Fits) {
      // Every scheduled transfer respects its window.
      for (const TransferJob& job : report.jobs) {
        EXPECT_GE(job.scheduled_at, job.release);
        EXPECT_LE(job.scheduled_at + job.length, job.deadline);
      }
    }
  }
}

}  // namespace
}  // namespace lbmem
