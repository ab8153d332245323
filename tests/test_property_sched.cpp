/// Property tests for the scheduler substrate and the block decomposition
/// over random workloads: every produced schedule validates, executes
/// cleanly in the simulator, and block boundaries respect the paper's
/// Eqs. (1)-(2) slack property.

#include <gtest/gtest.h>

#include "lbmem/gen/suites.hpp"
#include "lbmem/lb/block_builder.hpp"
#include "lbmem/sim/engine.hpp"
#include "lbmem/validate/validator.hpp"

namespace lbmem {
namespace {

struct SchedCase {
  PlacementPolicy policy;
  int processors;
  int tasks;
  int period_levels;
  std::uint64_t base_seed;
};

std::string sched_case_name(const ::testing::TestParamInfo<SchedCase>& info) {
  const SchedCase& c = info.param;
  return std::string(c.policy == PlacementPolicy::PeriodCluster ? "Cluster"
                                                                : "MinStart") +
         "_M" + std::to_string(c.processors) + "_N" +
         std::to_string(c.tasks) + "_L" + std::to_string(c.period_levels) +
         "_s" + std::to_string(c.base_seed);
}

class SchedulerProperty : public ::testing::TestWithParam<SchedCase> {};

TEST_P(SchedulerProperty, SchedulesValidateAndExecute) {
  const SchedCase& param = GetParam();
  SuiteSpec spec;
  spec.params.tasks = param.tasks;
  spec.params.period_levels = param.period_levels;
  spec.processors = param.processors;
  spec.policy = param.policy;
  spec.count = 5;
  spec.base_seed = param.base_seed;
  const auto suite = make_suite(spec);
  ASSERT_FALSE(suite.empty());

  for (const SuiteInstance& instance : suite) {
    const ValidationReport report = validate(instance.schedule);
    EXPECT_TRUE(report.ok())
        << "seed " << instance.seed << "\n" << report.to_string();

    const SimMetrics metrics = simulate(instance.schedule, SimOptions{2});
    EXPECT_EQ(metrics.violations, 0)
        << "seed " << instance.seed << ": "
        << (metrics.violation_details.empty()
                ? ""
                : metrics.violation_details.front());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchedulerProperty,
    ::testing::Values(
        SchedCase{PlacementPolicy::PeriodCluster, 3, 30, 3, 10},
        SchedCase{PlacementPolicy::PeriodCluster, 4, 60, 2, 20},
        SchedCase{PlacementPolicy::PeriodCluster, 8, 100, 4, 30},
        SchedCase{PlacementPolicy::MinStartTime, 3, 30, 3, 10},
        SchedCase{PlacementPolicy::MinStartTime, 4, 60, 2, 20},
        SchedCase{PlacementPolicy::MinStartTime, 6, 80, 3, 40}),
    sched_case_name);

/// Block decomposition invariants on random schedules.
class BlockProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BlockProperty, DecompositionInvariants) {
  SuiteSpec spec;
  spec.params.tasks = 50;
  spec.processors = 4;
  spec.comm_cost = 2;
  spec.count = 4;
  spec.base_seed = GetParam();
  const auto suite = make_suite(spec);
  ASSERT_FALSE(suite.empty());

  for (const SuiteInstance& instance : suite) {
    const Schedule& sched = instance.schedule;
    const TaskGraph& graph = sched.graph();
    const BlockDecomposition dec = build_blocks(sched);

    // Every instance belongs to exactly one block on its own processor.
    std::size_t members_total = 0;
    for (const Block& block : dec.blocks) {
      members_total += block.members.size();
      for (const TaskInstance& inst : block.members) {
        EXPECT_EQ(sched.proc(inst), block.home);
        EXPECT_EQ(dec.block_containing(inst).id, block.id);
      }
      // Category rule: 1 iff all members are first instances.
      const bool all_first =
          std::all_of(block.members.begin(), block.members.end(),
                      [](const TaskInstance& i) { return i.k == 0; });
      EXPECT_EQ(block.category == 1, all_first);
    }
    EXPECT_EQ(members_total, graph.total_instances());

    // Paper Eqs. (1)-(2): any same-processor dependence crossing a block
    // boundary has slack >= its communication time, so separating the
    // blocks never breaks timing.
    for (std::int32_t e = 0;
         e < static_cast<std::int32_t>(graph.dependence_count()); ++e) {
      const Dependence& dep =
          graph.dependences()[static_cast<std::size_t>(e)];
      const Time comm = sched.comm().transfer_time(dep.data_size);
      for (InstanceIdx k = 0; k < graph.instance_count(dep.consumer); ++k) {
        const TaskInstance consumer{dep.consumer, k};
        const ConsumedRange range = graph.consumed_range(e, k);
        for (InstanceIdx pk = range.first; pk < range.first + range.count;
             ++pk) {
          const TaskInstance producer{dep.producer, pk};
          if (sched.proc(producer) != sched.proc(consumer)) continue;
          const bool same_block = dec.block_containing(producer).id ==
                                  dec.block_containing(consumer).id;
          if (!same_block) {
            EXPECT_GE(sched.start(consumer) - sched.end(producer), comm)
                << "seed " << instance.seed;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockProperty,
                         ::testing::Values(1000, 2000, 3000, 4000),
                         [](const ::testing::TestParamInfo<std::uint64_t>& pinfo) {
                           return "s" + std::to_string(pinfo.param);
                         });

}  // namespace
}  // namespace lbmem
