/// A/B property test for bound-and-prune destination selection
/// (DESIGN.md F15): the pruned hot path and the exhaustive (trace-
/// recording) path must pick bit-identical destinations and gains — the
/// pruning is an admissible-bound accelerator, never a heuristic.
///
/// Each case runs LoadBalancer twice on the same input, once with
/// record_trace=true (exhaustive, one candidate per processor) and once
/// with the default pruned selection, then asserts the resulting schedules
/// and decision stats are equal. The pruning counters are additionally
/// checked against their structural invariant: every open destination of
/// every block is either evaluated or skipped by the bound, never both.
///
/// The same discipline covers the moved-set validation the balancer's
/// retry gate uses: is_valid_around() must agree with the full validate()
/// referee (DESIGN.md F35).

#include <gtest/gtest.h>

#include <vector>

#include "lbmem/gen/suites.hpp"
#include "lbmem/lb/block_builder.hpp"
#include "lbmem/lb/load_balancer.hpp"
#include "lbmem/util/rng.hpp"
#include "lbmem/validate/validator.hpp"

namespace lbmem {
namespace {

std::vector<SuiteInstance> suite(int tasks, int procs, std::uint64_t seed,
                                 Mem capacity = kUnlimitedMemory) {
  SuiteSpec spec;
  spec.params.tasks = tasks;
  spec.params.period_levels = 3;
  spec.params.edge_probability = 0.2;
  spec.processors = procs;
  spec.comm_cost = 2;
  spec.memory_capacity = capacity;
  spec.count = 3;
  spec.base_seed = seed;
  return make_suite(spec);
}

void expect_equal_schedules(const Schedule& a, const Schedule& b) {
  for (const TaskInstance inst : a.all_instances()) {
    ASSERT_EQ(a.proc(inst), b.proc(inst))
        << "processor diverged for task " << inst.task << " k=" << inst.k;
    ASSERT_EQ(a.start(inst), b.start(inst))
        << "start diverged for task " << inst.task << " k=" << inst.k;
  }
}

void expect_equivalent(const Schedule& input, BalanceOptions options) {
  options.record_trace = true;
  const BalanceResult exhaustive = LoadBalancer(options).balance(input);
  options.record_trace = false;
  const BalanceResult pruned = LoadBalancer(options).balance(input);

  expect_equal_schedules(exhaustive.schedule, pruned.schedule);
  EXPECT_EQ(exhaustive.stats.makespan_after, pruned.stats.makespan_after);
  EXPECT_EQ(exhaustive.stats.gain_total, pruned.stats.gain_total);
  EXPECT_EQ(exhaustive.stats.max_memory_after, pruned.stats.max_memory_after);
  EXPECT_EQ(exhaustive.stats.moves_off_home, pruned.stats.moves_off_home);
  EXPECT_EQ(exhaustive.stats.gains_applied, pruned.stats.gains_applied);
  EXPECT_EQ(exhaustive.stats.forced_stays, pruned.stats.forced_stays);
  EXPECT_EQ(exhaustive.stats.attempts_used, pruned.stats.attempts_used);
  EXPECT_EQ(exhaustive.stats.fell_back, pruned.stats.fell_back);

  // Structural counter invariant: per popped block every open destination
  // is either evaluated or skipped (exhaustive mode never skips). Closed
  // processors are excluded from both counters.
  const int open =
      input.architecture().processor_count() -
      static_cast<int>(std::count(options.closed_procs.begin(),
                                  options.closed_procs.end(), 1));
  const auto per_block = static_cast<std::int64_t>(open);
  EXPECT_EQ(exhaustive.stats.dest_evaluated,
            per_block * exhaustive.stats.blocks_total);
  EXPECT_EQ(exhaustive.stats.dest_skipped_by_bound, 0);
  EXPECT_EQ(exhaustive.stats.dest_cut_by_incumbent, 0);
  EXPECT_EQ(pruned.stats.dest_evaluated + pruned.stats.dest_skipped_by_bound,
            per_block * pruned.stats.blocks_total);
  EXPECT_LE(pruned.stats.dest_evaluated, exhaustive.stats.dest_evaluated);
}

TEST(PruneEquivalence, AllPoliciesOnRandomSuites) {
  const CostPolicy policies[] = {
      CostPolicy::Lexicographic, CostPolicy::PaperFormula,
      CostPolicy::PaperLiteral, CostPolicy::GainOnly, CostPolicy::MemoryOnly};
  for (const auto& instance : suite(40, 4, 1000)) {
    for (const CostPolicy policy : policies) {
      BalanceOptions options;
      options.policy = policy;
      expect_equivalent(instance.schedule, options);
    }
  }
}

TEST(PruneEquivalence, WiderArchitectures) {
  for (const auto& instance : suite(80, 8, 2000)) {
    BalanceOptions options;
    expect_equivalent(instance.schedule, options);
  }
}

TEST(PruneEquivalence, MemoryCapacityScreen) {
  // A finite capacity makes the O(1) capacity screen part of the bound;
  // the pruned and exhaustive paths must still agree move for move.
  for (const auto& instance : suite(40, 4, 3000, /*capacity=*/400)) {
    BalanceOptions options;
    options.enforce_memory_capacity = true;
    expect_equivalent(instance.schedule, options);
  }
}

TEST(PruneEquivalence, MigrationPenaltyGate) {
  // The gate consumes the home candidate's exact score; the pruned path
  // must evaluate home unconditionally so the gate sees identical inputs.
  for (const auto& instance : suite(40, 4, 4000)) {
    BalanceOptions options;
    options.migration_penalty = 3;
    expect_equivalent(instance.schedule, options);
  }
}

TEST(PruneEquivalence, MaxGainClamp) {
  for (const auto& instance : suite(40, 4, 5000)) {
    BalanceOptions options;
    options.max_gain = 1;
    expect_equivalent(instance.schedule, options);
    options.max_gain = 0;  // pure memory spreading
    expect_equivalent(instance.schedule, options);
  }
}

TEST(PruneEquivalence, ScopedRebalance) {
  // The warm-start rebalance path runs the same selection machinery over a
  // partial decomposition; pruned and exhaustive must agree there too.
  for (const auto& instance : suite(40, 4, 6000)) {
    const BlockDecomposition dec = build_blocks(instance.schedule);
    const auto run = [&](bool record_trace, Schedule& sched) {
      BalanceOptions options;
      options.record_trace = record_trace;
      std::vector<ProcTimeline> occupancy = build_occupancy(sched);
      return LoadBalancer(options).rebalance(sched, occupancy, dec).stats;
    };
    Schedule exhaustive = instance.schedule;
    Schedule pruned = instance.schedule;
    const BalanceStats exhaustive_stats = run(true, exhaustive);
    const BalanceStats pruned_stats = run(false, pruned);
    expect_equal_schedules(exhaustive, pruned);
    EXPECT_EQ(exhaustive_stats.moves_off_home, pruned_stats.moves_off_home);
    EXPECT_EQ(exhaustive_stats.gain_total, pruned_stats.gain_total);
  }
}

/// \p sched on the same processors with a finite memory capacity at
/// \p factor_percent of its own peak, so the copy is valid and the cap binds.
Schedule capped(const Schedule& sched, int factor_percent) {
  const int procs = sched.architecture().processor_count();
  Schedule out(sched.graph(),
               Architecture(procs, sched.max_memory() * factor_percent / 100),
               sched.comm());
  for (TaskId t = 0; t < static_cast<TaskId>(sched.graph().task_count());
       ++t) {
    out.set_first_start(t, sched.first_start(t));
  }
  for (const TaskInstance inst : sched.all_instances()) {
    out.assign(inst, sched.proc(inst));
  }
  return out;
}

/// validate() finds no violation other than an overlap — the verdict
/// is_valid_around() owes, since its caller proves overlap freedom.
bool valid_but_for_overlaps(const Schedule& sched) {
  for (const Violation& v : validate(sched).violations) {
    if (v.kind != Violation::Kind::Overlap) return false;
  }
  return true;
}

TEST(MovedSetValidation, AgreesWithRefereeUnderRandomMutations) {
  // Valid inputs, then random whole-task processor moves and first-start
  // shifts; moved holds every instance of a changed task.
  int verdicts[2] = {0, 0};
  EpochSet seen;  // reused across calls and graphs, as the balancer does
  for (const bool cap : {false, true}) {
    for (const auto& instance : suite(40, 4, 8000)) {
      const Schedule input =
          cap ? capped(instance.schedule, 100) : instance.schedule;
      ASSERT_TRUE(validate(input).ok());
      ASSERT_TRUE(is_valid_around(input, {}, seen));
      const TaskGraph& graph = input.graph();
      const int procs = input.architecture().processor_count();
      Rng rng(instance.seed);
      for (int round = 0; round < 60; ++round) {
        Schedule mutated = input;
        std::vector<TaskInstance> moved;
        const int changes = static_cast<int>(rng.uniform(1, 3));
        for (int c = 0; c < changes; ++c) {
          const auto t = static_cast<TaskId>(rng.uniform(
              0, static_cast<std::int64_t>(graph.task_count()) - 1));
          if (rng.chance(0.5)) {
            mutated.assign_all(t,
                               static_cast<ProcId>(rng.uniform(0, procs - 1)));
          }
          if (rng.chance(0.5)) {
            const Time shifted = mutated.first_start(t) + rng.uniform(-6, 6);
            mutated.set_first_start(t, std::max<Time>(shifted, 0));
          }
          for (InstanceIdx k = 0; k < graph.instance_count(t); ++k) {
            moved.push_back(TaskInstance{t, k});
          }
        }
        const bool verdict = is_valid_around(mutated, moved, seen);
        ASSERT_EQ(verdict, valid_but_for_overlaps(mutated))
            << "seed " << instance.seed << " round " << round;
        ++verdicts[verdict ? 1 : 0];
      }
    }
  }
  // Both verdicts occur, so neither branch is vacuous.
  EXPECT_GT(verdicts[0], 0);
  EXPECT_GT(verdicts[1], 0);
}

TEST(MovedSetValidation, ScopedRebalanceSweepStaysValid) {
  // rebalance() around each single seed task, on the generated schedule
  // and on its balanced successor (the online engine's usual input),
  // validates through the moved set. Every result must satisfy the
  // referee, and the sweep must include first attempts the moved-set check
  // rejected, so the gain-disabled retry runs.
  int retried = 0;
  int runs = 0;
  EpochSet visited;
  for (const bool cap : {false, true}) {
    for (const auto& instance : suite(40, 4, 9000)) {
      const Schedule input =
          cap ? capped(instance.schedule, 110) : instance.schedule;
      ASSERT_TRUE(validate(input).ok());
      BalanceOptions options;
      options.enforce_memory_capacity = cap;
      const LoadBalancer balancer(options);
      const BalanceResult balanced = balancer.balance(input);
      for (const Schedule* base : {&input, &balanced.schedule}) {
        for (TaskId seed = 0;
             seed < static_cast<TaskId>(base->graph().task_count()); ++seed) {
          const BlockDecomposition dec = build_blocks_around(
              *base, std::span<const TaskId>(&seed, 1), visited);
          Schedule result = *base;
          std::vector<ProcTimeline> occupancy = build_occupancy(result);
          const RebalanceResult run =
              balancer.rebalance(result, occupancy, dec);
          ASSERT_TRUE(validate(result).ok())
              << "seed " << instance.seed << " task " << seed << "\n"
              << validate(result).to_string();
          // The occupancy edited in place still mirrors the result, after
          // a rolled-back first attempt too; a fallback is the input.
          const std::vector<ProcTimeline> cold = build_occupancy(result);
          for (std::size_t p = 0; p < cold.size(); ++p) {
            ASSERT_TRUE(occupancy[p].same_pieces(cold[p]));
          }
          if (run.stats.fell_back) expect_equal_schedules(result, *base);
          if (run.stats.attempts_used == 2) ++retried;
          ++runs;
        }
      }
    }
  }
  EXPECT_GT(retried, 0) << "over " << runs << " scoped rebalances";
}

}  // namespace
}  // namespace lbmem
