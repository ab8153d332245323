/// Allocation-tracking test for the balancer hot path.
///
/// This binary replaces global operator new/delete with counting wrappers
/// and runs LoadBalancer::balance over a generated mid-size system. The
/// heuristic evaluates every block against every processor (M * Nblocks
/// evaluations); with the scratch-buffer hot path an evaluation performs
/// zero heap allocations, so the total allocation count of a balance run is
/// O(total instances) and — crucially — far below one allocation per
/// evaluation. The pre-optimization implementation allocated several
/// vectors per evaluation (shifted layouts, consumed-instance lists,
/// per-candidate reject strings), i.e. hundreds of thousands of allocations
/// on this workload; the bounds below fail loudly if that behaviour
/// regresses.
///
/// A second case pins build_blocks_around(): growing a decomposition from
/// one seed task allocates a constant number of times, whatever the size
/// of the graph around it.
///
/// Skipped under sanitizers: ASan and TSan interpose the allocator and
/// this counting definition would fight their bookkeeping.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "lbmem/gen/suites.hpp"
#include "lbmem/lb/block_builder.hpp"
#include "lbmem/lb/load_balancer.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LBMEM_ALLOC_TEST_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define LBMEM_ALLOC_TEST_DISABLED 1
#endif
#endif

#ifndef LBMEM_ALLOC_TEST_DISABLED

namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // !LBMEM_ALLOC_TEST_DISABLED

namespace lbmem {
namespace {

TEST(BalancerAllocations, EvaluationIsAllocationFree) {
#ifdef LBMEM_ALLOC_TEST_DISABLED
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#else
  SuiteSpec spec;
  spec.params.tasks = 1000;
  spec.params.period_levels = 3;
  spec.params.edge_probability = 0.15;
  spec.params.max_in_degree = 2;
  spec.processors = 8;
  spec.comm_cost = 2;
  spec.count = 1;
  spec.base_seed = 99'000 + 1000ull * 31 + 8;
  spec.max_seed_attempts = 400;
  const auto suite = make_suite(spec);
  ASSERT_FALSE(suite.empty());
  const Schedule& input = suite.front().schedule;

  const LoadBalancer balancer;
  // Warm-up run (first-touch effects), then the measured run.
  const BalanceResult warmup = balancer.balance(input);
  ASSERT_GT(warmup.stats.blocks_total, 0);

  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  const BalanceResult result = balancer.balance(input);
  const std::size_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;

  const auto evaluations =
      static_cast<std::size_t>(result.stats.blocks_total) *
      static_cast<std::size_t>(input.architecture().processor_count()) *
      static_cast<std::size_t>(result.stats.attempts_used);
  const std::size_t instances = input.graph().total_instances();

  // Zero allocations per evaluation: the run's total must stay well below
  // one allocation per block x destination evaluation…
  EXPECT_LT(allocs, evaluations / 2)
      << allocs << " allocations over " << evaluations << " evaluations";
  // …and bounded by the O(instances) setup work (schedule copies, block
  // decomposition, occupancy population) with generous slack.
  EXPECT_LT(allocs, 24 * instances)
      << allocs << " allocations for " << instances << " instances";

  // Determinism sanity for the counter itself: a third run allocates
  // exactly as much as the second.
  const std::size_t again = g_alloc_count.load(std::memory_order_relaxed);
  const BalanceResult result2 = balancer.balance(input);
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed) - again, allocs);
  EXPECT_EQ(result2.stats.makespan_after, result.stats.makespan_after);
#endif
}

#ifndef LBMEM_ALLOC_TEST_DISABLED
/// Allocations of build_blocks_around() seeded by task 0 of a valid
/// schedule of \p tasks independent tasks plus one tight edge 0 -> 1, so
/// the seed's neighborhood is the same two-instance block at every size.
std::size_t allocs_around_one_seed(int tasks) {
  TaskGraph graph;
  for (int i = 0; i < tasks; ++i) {
    graph.add_task("t" + std::to_string(i), 1024, 1, 1);
  }
  graph.add_dependence(0, 1);
  graph.freeze();
  Schedule sched(graph, Architecture(8), CommModel::flat(2));
  for (TaskId t = 0; t < tasks; ++t) {
    sched.set_first_start(t, 2 * (t / 8));
    sched.assign_all(t, t % 8);
  }
  sched.set_first_start(1, 1);  // right after task 0 on P0: tight
  sched.assign_all(1, 0);

  const TaskId seed = 0;
  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  const BlockDecomposition dec =
      build_blocks_around(sched, std::span<const TaskId>(&seed, 1));
  const std::size_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(dec.blocks.size(), 1u);
  EXPECT_EQ(dec.blocks.front().members.size(), 2u);
  return allocs;
}
#endif

TEST(BlockBuilderAllocations, AroundOneSeedIsIndependentOfGraphSize) {
#ifdef LBMEM_ALLOC_TEST_DISABLED
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#else
  const std::size_t small = allocs_around_one_seed(1000);
  const std::size_t large = allocs_around_one_seed(4000);
  EXPECT_EQ(small, large);
  EXPECT_LT(large, 32u) << "one allocation per task is back";
#endif
}

}  // namespace
}  // namespace lbmem
