/// Unit tests for block construction (lbmem/lb/block_builder.hpp).

#include <gtest/gtest.h>

#include <vector>

#include "lbmem/gen/paper_example.hpp"
#include "lbmem/gen/suites.hpp"
#include "lbmem/lb/block_builder.hpp"

namespace lbmem {
namespace {

/// Helper: a small two-processor system with adjustable comm cost.
struct Fixture {
  explicit Fixture(Time comm_cost, Time gap) {
    TaskGraph builder;
    const TaskId u = builder.add_task("u", 12, 1, 2);
    const TaskId v = builder.add_task("v", 12, 1, 3);
    builder.add_dependence(u, v);
    builder.freeze();
    graph = std::make_unique<TaskGraph>(std::move(builder));
    sched = std::make_unique<Schedule>(*graph, Architecture(2),
                                       CommModel::flat(comm_cost));
    sched->set_first_start(u, 0);
    sched->set_first_start(v, 1 + gap);  // slack = gap
    sched->assign_all(u, 0);
    sched->assign_all(v, 0);
  }
  std::unique_ptr<TaskGraph> graph;
  std::unique_ptr<Schedule> sched;
};

TEST(BlockBuilder, TightDependenceMerges) {
  const Fixture f(/*comm_cost=*/2, /*gap=*/1);  // slack 1 < C 2
  const BlockDecomposition dec = build_blocks(*f.sched);
  ASSERT_EQ(dec.blocks.size(), 1u);
  EXPECT_EQ(dec.blocks[0].members.size(), 2u);
  EXPECT_EQ(dec.blocks[0].exec_sum, 2);
  EXPECT_EQ(dec.blocks[0].mem_sum, 5);
  EXPECT_EQ(dec.blocks[0].category, 1);
}

TEST(BlockBuilder, SlackDependenceSeparates) {
  const Fixture f(/*comm_cost=*/2, /*gap=*/2);  // slack 2 >= C 2
  const BlockDecomposition dec = build_blocks(*f.sched);
  EXPECT_EQ(dec.blocks.size(), 2u);
}

TEST(BlockBuilder, CrossProcessorNeverMerges) {
  TaskGraph g;
  const TaskId u = g.add_task("u", 12, 1, 1);
  const TaskId v = g.add_task("v", 12, 1, 1);
  g.add_dependence(u, v);
  g.freeze();
  Schedule s(g, Architecture(2), CommModel::flat(2));
  s.set_first_start(u, 0);
  s.set_first_start(v, 3);
  s.assign_all(u, 0);
  s.assign_all(v, 1);
  const BlockDecomposition dec = build_blocks(s);
  EXPECT_EQ(dec.blocks.size(), 2u);
}

TEST(BlockBuilder, TransitiveChainMerges) {
  TaskGraph g;
  const TaskId a = g.add_task("a", 12, 1, 1);
  const TaskId b = g.add_task("b", 12, 1, 1);
  const TaskId c = g.add_task("c", 12, 1, 1);
  g.add_dependence(a, b);
  g.add_dependence(b, c);
  g.freeze();
  Schedule s(g, Architecture(1), CommModel::flat(1));
  s.set_first_start(a, 0);
  s.set_first_start(b, 1);
  s.set_first_start(c, 2);
  s.assign_all(a, 0);
  s.assign_all(b, 0);
  s.assign_all(c, 0);
  const BlockDecomposition dec = build_blocks(s);
  ASSERT_EQ(dec.blocks.size(), 1u);
  EXPECT_EQ(dec.blocks[0].members.size(), 3u);
}

TEST(BlockBuilder, DiamondMergesThroughTwoParents) {
  // v tight against two producers in *different* tentative groups must
  // merge all three (union-find closure).
  TaskGraph g;
  const TaskId w = g.add_task("w", 12, 1, 1);
  const TaskId u = g.add_task("u", 12, 1, 1);
  const TaskId v = g.add_task("v", 12, 1, 1);
  g.add_dependence(w, v);
  g.add_dependence(u, v);
  g.freeze();
  Schedule s(g, Architecture(1), CommModel::flat(2));
  s.set_first_start(w, 0);  // ends 1; v@2: slack 1 < 2 -> tight
  s.set_first_start(u, 1);  // ends 2; v@2: slack 0 < 2 -> tight
  s.set_first_start(v, 2);
  s.assign_all(w, 0);
  s.assign_all(u, 0);
  s.assign_all(v, 0);
  const BlockDecomposition dec = build_blocks(s);
  ASSERT_EQ(dec.blocks.size(), 1u);
  EXPECT_EQ(dec.blocks[0].members.size(), 3u);
}

TEST(BlockBuilder, InstancesOfSameTaskStaySeparate) {
  // No dependence links instances of one task: each is its own block
  // (the paper: "Each task ai constitutes a block"). Task z stretches the
  // hyper-period to 12 so a gets four instances.
  TaskGraph g;
  const TaskId a = g.add_task("a", 3, 1, 4);
  const TaskId z = g.add_task("z", 12, 1, 1);
  g.freeze();
  Schedule s(g, Architecture(2), CommModel::flat(1));
  s.set_first_start(a, 0);
  s.assign_all(a, 0);
  s.set_first_start(z, 0);
  s.assign_all(z, 1);
  const BlockDecomposition dec = build_blocks(s);
  EXPECT_EQ(dec.blocks.size(), 5u);
  for (InstanceIdx k = 0; k < 4; ++k) {
    const Block& blk = dec.block_containing(TaskInstance{a, k});
    EXPECT_EQ(blk.members.size(), 1u);
    EXPECT_EQ(blk.category, k == 0 ? 1 : 2);
  }
}

TEST(BlockBuilder, MultiRateTightEdgeMerges) {
  // Slow consumer right after the last producing instance.
  TaskGraph g;
  const TaskId p = g.add_task("p", 3, 1, 1);
  const TaskId c = g.add_task("c", 12, 1, 1);
  g.add_dependence(p, c);
  g.freeze();
  Schedule s(g, Architecture(1), CommModel::flat(2));
  s.set_first_start(p, 0);   // instances end 1,4,7,10
  s.set_first_start(c, 11);  // slack vs p3: 11-10 = 1 < 2 -> tight
  s.assign_all(p, 0);
  s.assign_all(c, 0);
  const BlockDecomposition dec = build_blocks(s);
  // p3 and c merge; p0..p2 stay singletons.
  ASSERT_EQ(dec.blocks.size(), 4u);
  const Block& merged = dec.block_containing(TaskInstance{c, 0});
  EXPECT_EQ(merged.members.size(), 2u);
  EXPECT_TRUE(merged.contains(TaskInstance{p, 3}));
  EXPECT_EQ(merged.category, 2);  // contains instance p[3]
}

TEST(BlockBuilder, PaperExampleBlockSums) {
  const TaskGraph g = paper_example_graph();
  const Schedule s = paper_example_schedule(g);
  const BlockDecomposition dec = build_blocks(s);
  const Block& b1c1 = dec.block_containing(TaskInstance{g.find("b"), 0});
  EXPECT_EQ(b1c1.exec_sum, 2);
  EXPECT_EQ(b1c1.mem_sum, 2);
  const Block& de = dec.block_containing(TaskInstance{g.find("d"), 0});
  EXPECT_EQ(de.mem_sum, 4);
  EXPECT_EQ(de.start(s), 13);
  EXPECT_EQ(de.end(s), 15);
}

TEST(BlockBuilder, BlockOfIndexIsConsistent) {
  const TaskGraph g = paper_example_graph();
  const Schedule s = paper_example_schedule(g);
  const BlockDecomposition dec = build_blocks(s);
  for (const Block& block : dec.blocks) {
    for (const TaskInstance& inst : block.members) {
      EXPECT_EQ(dec.block_containing(inst).id, block.id);
    }
  }
}

TEST(BlockBuilder, BlockContainingOutsideAPartialDecompositionThrows) {
  // Slack 2 >= C 2 keeps u and v in separate blocks, so a decomposition
  // grown from u alone never reaches v.
  const Fixture f(/*comm_cost=*/2, /*gap=*/2);
  const TaskId u = f.graph->find("u");
  const TaskId v = f.graph->find("v");
  EpochSet visited;
  const BlockDecomposition dec =
      build_blocks_around(*f.sched, std::span<const TaskId>(&u, 1), visited);
  ASSERT_EQ(dec.blocks.size(), 1u);
  EXPECT_EQ(dec.find(TaskInstance{v, 0}), -1);
  EXPECT_EQ(dec.block_containing(TaskInstance{u, 0}).id, 0);
  EXPECT_THROW((void)dec.block_containing(TaskInstance{v, 0}),
               PreconditionError);
  EXPECT_THROW((void)dec.block_containing(TaskInstance{u, 1}),
               PreconditionError);
}

TEST(BlockBuilder, BothIndexFormsMatchTheFullDecomposition) {
  // A generated system; decompositions around one seed task reach a few
  // instances (the sparse index), around every other task most of them
  // (the dense table). Either way each reached instance's block holds the
  // members of its block in the full decomposition, and find() reports -1
  // exactly for the instances the decomposition never reached.
  SuiteSpec spec;
  spec.params.tasks = 300;
  spec.params.period_levels = 3;
  spec.params.edge_probability = 0.15;
  spec.params.max_in_degree = 2;
  spec.processors = 4;
  spec.comm_cost = 2;
  spec.count = 1;
  spec.base_seed = 31;
  const auto suite = make_suite(spec);
  ASSERT_FALSE(suite.empty());
  const Schedule& sched = suite.front().schedule;
  const BlockDecomposition full = build_blocks(sched);
  const auto tasks = static_cast<TaskId>(sched.graph().task_count());
  std::vector<TaskId> every_other;
  for (TaskId t = 0; t < tasks; t += 2) every_other.push_back(t);
  EpochSet visited;  // reused across decompositions, as the engine does
  int forms[2] = {0, 0};
  for (TaskId seed = 0; seed <= tasks; seed += 30) {
    const BlockDecomposition dec =
        seed < tasks
            ? build_blocks_around(sched, std::span<const TaskId>(&seed, 1),
                                  visited)
            : build_blocks_around(sched, every_other, visited);
    ++forms[dec.block_of.empty() ? 0 : 1];
    std::size_t reached = 0;
    for (const TaskInstance inst : sched.all_instances()) {
      const BlockId id = dec.find(inst);
      if (id < 0) {
        EXPECT_THROW((void)dec.block_containing(inst), PreconditionError);
        continue;
      }
      ++reached;
      EXPECT_EQ(dec.blocks[static_cast<std::size_t>(id)].members,
                full.block_containing(inst).members);
    }
    std::size_t members = 0;
    for (const Block& block : dec.blocks) members += block.members.size();
    EXPECT_EQ(reached, members);
  }
  EXPECT_GT(forms[0], 0) << "no decomposition used the sparse index";
  EXPECT_GT(forms[1], 0) << "no decomposition used the dense table";
}

TEST(BlockBuilder, MembersShareProcessor) {
  const TaskGraph g = paper_example_graph();
  const Schedule s = paper_example_schedule(g);
  for (const Block& block : build_blocks(s).blocks) {
    for (const TaskInstance& inst : block.members) {
      EXPECT_EQ(s.proc(inst), block.home);
    }
  }
}

}  // namespace
}  // namespace lbmem
