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
/// one seed task allocates a constant number of times and bytes, whatever
/// the size of the graph around it. A third pins the two searches of a
/// local event, TaskGraph::try_find and ProcTimeline::earliest_fit, at
/// zero. A fourth pins build_occupancy() at one reservation per non-empty
/// bucket plus a few allocations per processor (DESIGN.md F40).
///
/// The Rebalancer cases extend the discipline to the online engine: a
/// local WCET event edits the state in place (DESIGN.md F36), so its bytes
/// allocated stay far below one copy of the schedule or the occupancy, and
/// on a warm engine they barely grow from N=1000 to N=8000 (F41); and
/// apply() gives the strong exception guarantee, probed by making the k-th
/// allocation inside it throw std::bad_alloc, for every k (every few k for
/// the events that swap a new state in mid-ladder). After each throw the
/// occupancy must still mirror the schedule, which optimized builds do not
/// check inside apply().
///
/// Skipped under sanitizers: ASan and TSan interpose the allocator and
/// this counting definition would fight their bookkeeping. The injected-
/// failure sweep therefore runs in the plain builds only (in Debug ones
/// with LBMEM_TIMELINE_VERIFY's occupancy cross-checks on).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "lbmem/gen/suites.hpp"
#include "lbmem/lb/block_builder.hpp"
#include "lbmem/lb/load_balancer.hpp"
#include "lbmem/obs/metrics.hpp"
#include "lbmem/online/rebalancer.hpp"
#include "lbmem/sched/journal.hpp"

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
std::atomic<std::size_t> g_alloc_bytes{0};
/// When non-zero, the allocation that brings g_alloc_count to this value
/// throws std::bad_alloc instead.
std::atomic<std::size_t> g_fail_at{0};

// Out of line, so the compiler cannot pair an inlined new with the free()
// below and warn about a malloc/delete mismatch that is not one.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  const std::size_t n =
      g_alloc_count.fetch_add(1, std::memory_order_relaxed) + 1;
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (n == g_fail_at.load(std::memory_order_relaxed)) throw std::bad_alloc();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }

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
/// Allocation count and bytes of one call.
struct Allocated {
  std::size_t count = 0;
  std::size_t bytes = 0;
  bool operator==(const Allocated&) const = default;
};

/// What build_blocks_around() allocates when seeded by task 0 of a valid
/// schedule of \p tasks independent tasks plus one tight edge 0 -> 1, so
/// the seed's neighborhood is the same two-instance block at every size.
/// Measured on the second call, once the visited set has grown to the
/// graph, as the online engine's scratch has after its first event.
Allocated allocs_around_one_seed(int tasks) {
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
  EpochSet visited;
  (void)build_blocks_around(sched, std::span<const TaskId>(&seed, 1), visited);
  const std::size_t count = g_alloc_count.load(std::memory_order_relaxed);
  const std::size_t bytes = g_alloc_bytes.load(std::memory_order_relaxed);
  const BlockDecomposition dec =
      build_blocks_around(sched, std::span<const TaskId>(&seed, 1), visited);
  const Allocated used{g_alloc_count.load(std::memory_order_relaxed) - count,
                       g_alloc_bytes.load(std::memory_order_relaxed) - bytes};
  EXPECT_EQ(dec.blocks.size(), 1u);
  EXPECT_EQ(dec.blocks.front().members.size(), 2u);
  return used;
}
#endif

TEST(BlockBuilderAllocations, AroundOneSeedIsIndependentOfGraphSize) {
#ifdef LBMEM_ALLOC_TEST_DISABLED
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#else
  const Allocated small = allocs_around_one_seed(1000);
  const Allocated large = allocs_around_one_seed(4000);
  EXPECT_EQ(small.count, large.count);
  EXPECT_EQ(small.bytes, large.bytes) << "an array over every instance";
  EXPECT_LT(large.count, 32u) << "one allocation per task is back";
#endif
}

#ifndef LBMEM_ALLOC_TEST_DISABLED
/// A balanced instance of the bench_throughput family (M = 8).
SuiteInstance balanced_instance(int tasks) {
  SuiteSpec spec;
  spec.params.tasks = tasks;
  spec.params.period_levels = 3;
  spec.params.edge_probability = 0.15;
  spec.params.max_in_degree = 2;
  spec.processors = 8;
  spec.comm_cost = 2;
  spec.count = 1;
  spec.base_seed = 88'000 + static_cast<std::uint64_t>(tasks) * 31 + 8;
  spec.max_seed_attempts = 400;
  auto suite = make_suite(spec);
  EXPECT_FALSE(suite.empty());
  SuiteInstance instance = std::move(suite.front());
  instance.schedule = LoadBalancer().balance(instance.schedule).schedule;
  return instance;
}

/// Everything an event may change: the state a reject or a throw must
/// leave as it was.
struct EngineState {
  std::vector<Time> starts;
  std::vector<ProcId> procs;
  std::vector<Mem> memory;
  std::vector<Time> busy;
  std::vector<Time> wcets;
  std::size_t tasks = 0;
  std::vector<std::uint8_t> failed;
  bool operator==(const EngineState&) const = default;
};

EngineState capture(const Rebalancer& engine) {
  EngineState state;
  const Schedule& sched = engine.schedule();
  const TaskGraph& graph = engine.graph();
  state.tasks = graph.task_count();
  for (TaskId t = 0; t < static_cast<TaskId>(graph.task_count()); ++t) {
    state.starts.push_back(sched.first_start(t));
    state.wcets.push_back(graph.task(t).wcet);
    for (InstanceIdx k = 0; k < graph.instance_count(t); ++k) {
      state.procs.push_back(sched.proc(TaskInstance{t, k}));
    }
  }
  for (ProcId p = 0; p < sched.architecture().processor_count(); ++p) {
    state.memory.push_back(sched.memory_on(p));
    state.busy.push_back(sched.busy_on(p));
  }
  state.failed = engine.failed_procs();
  return state;
}

/// Does the engine's occupancy hold exactly the pieces of its schedule?
/// Optimized builds skip the check apply() runs under LBMEM_TIMELINE_VERIFY.
bool occupancy_mirrors(const Rebalancer& engine) {
  const std::vector<ProcTimeline> fresh = build_occupancy(engine.schedule());
  const std::vector<ProcTimeline>& occ = engine.occupancy();
  return std::equal(occ.begin(), occ.end(), fresh.begin(), fresh.end(),
                    [](const ProcTimeline& a, const ProcTimeline& b) {
                      return a.same_pieces(b);
                    });
}
#endif

#if !defined(LBMEM_ALLOC_TEST_DISABLED) && !LBMEM_TIMELINE_VERIFY
/// Bytes allocated per applied local WCET event on a warm engine.
struct LocalEventBytes {
  std::size_t mean = 0;
  std::size_t instances = 0;
};

/// Re-estimate one task at a time, +1 then -1 alternately, over tasks
/// spread across the balanced instance of \p tasks tasks; only events
/// applied without a full re-place are local. The first one lets the
/// engine's scratch grow; the next 20 are measured.
LocalEventBytes local_wcet_bytes(int tasks) {
  const SuiteInstance instance = balanced_instance(tasks);
  Rebalancer engine = Rebalancer::adopt(*instance.graph, instance.schedule);
  const auto count = static_cast<TaskId>(engine.graph().task_count());
  const TaskId stride = count / 41;
  std::size_t bytes = 0;
  int local = 0;
  bool warm = false;
  for (TaskId t = 0; t < count && local < 20; t += stride) {
    const Task& task = engine.graph().task(t);
    const Time wcet = (t / stride) % 2 == 0 ? task.wcet + 1 : task.wcet - 1;
    if (wcet < 1 || wcet > task.period) continue;
    const Event event{0, WcetChange{task.name, wcet}};
    const std::size_t before = g_alloc_bytes.load(std::memory_order_relaxed);
    const EventOutcome out = engine.apply(event);
    const std::size_t used =
        g_alloc_bytes.load(std::memory_order_relaxed) - before;
    if (!out.applied || out.full_replace) continue;
    if (!warm) {
      warm = true;
      continue;
    }
    bytes += used;
    ++local;
  }
  EXPECT_EQ(local, 20);
  return LocalEventBytes{bytes / static_cast<std::size_t>(std::max(local, 1)),
                         engine.graph().total_instances()};
}
#endif

TEST(RebalancerAllocations, LocalWcetEventCopiesNoState) {
#ifdef LBMEM_ALLOC_TEST_DISABLED
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#elif LBMEM_TIMELINE_VERIFY
  GTEST_SKIP() << "verify builds rebuild the occupancy after every apply()";
#else
  // One occupancy copy alone costs about 100 B per instance, one schedule
  // copy about 8 B per instance plus its per-task vectors, and the balance
  // stage's per-instance arrays 14 B per instance; those live in the engine
  // (DESIGN.md F41), so a warm engine allocates none of them.
  const LocalEventBytes used = local_wcet_bytes(4000);
  EXPECT_LT(used.mean, 4 * used.instances)
      << used.mean << " bytes per local event for " << used.instances
      << " instances";
#endif
}

#ifndef LBMEM_ALLOC_TEST_DISABLED
/// Makes the k-th allocation inside one apply() throw, for every k the
/// event allocates (strided to at most \p probes points), on a fresh copy
/// of \p base (with the ladder on when \p degraded) each time. After each
/// throw the state and its occupancy must be the pre-event ones, and
/// applying the event again must end where an untouched twin does. Returns
/// the twin's outcome and the number of injection points that threw.
struct Sweep {
  EventOutcome reference;
  int threw = 0;
};
Sweep sweep_injected_failures(const Rebalancer& base, const Event& event,
                              std::size_t probes, bool degraded = false) {
  const auto copy = [&](obs::Registry& registry) {
    RebalancerOptions options;
    options.metrics = &registry;
    options.degraded = degraded;
    return Rebalancer::adopt(base.graph(), base.schedule(), options);
  };
  obs::Registry twin_registry;
  Rebalancer twin = copy(twin_registry);
  const std::size_t start = g_alloc_count.load(std::memory_order_relaxed);
  const EventOutcome reference = twin.apply(event);
  const std::size_t allocations =
      g_alloc_count.load(std::memory_order_relaxed) - start;
  EXPECT_TRUE(reference.applied) << reference.reject_reason;
  const EngineState pre = capture(base);
  const EngineState post = capture(twin);

  Sweep sweep{reference};
  const std::size_t stride = std::max<std::size_t>(1, allocations / probes);
  for (std::size_t k = 1; k <= allocations; k += stride) {
    obs::Registry registry;
    Rebalancer engine = copy(registry);
    g_fail_at.store(g_alloc_count.load(std::memory_order_relaxed) + k,
                    std::memory_order_relaxed);
    bool thrown = false;
    try {
      engine.apply(event);
    } catch (const std::bad_alloc&) {
      thrown = true;
    }
    g_fail_at.store(0, std::memory_order_relaxed);
    if (!thrown) continue;
    ++sweep.threw;
    EXPECT_TRUE(capture(engine) == pre)
        << to_string(event.kind()) << ": allocation " << k << " of "
        << allocations << " left a changed state";
    EXPECT_TRUE(occupancy_mirrors(engine))
        << to_string(event.kind()) << ": allocation " << k << " of "
        << allocations << " left the occupancy behind the schedule";
    const EventOutcome again = engine.apply(event);
    EXPECT_EQ(again.applied, reference.applied);
    EXPECT_TRUE(capture(engine) == post)
        << to_string(event.kind()) << ": the retry after allocation " << k
        << " diverged from the twin";
  }
  return sweep;
}
#endif

TEST(RebalancerAllocations, LocalWcetEventBytesStayFlatInN) {
#ifdef LBMEM_ALLOC_TEST_DISABLED
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#elif LBMEM_TIMELINE_VERIFY
  GTEST_SKIP() << "verify builds rebuild the occupancy after every apply()";
#else
  // A local event allocates for what it visits: its journal, its blocks and
  // their scratch vectors. The balance stage's per-instance arrays live in
  // the engine (DESIGN.md F41), so 8x the instances may not double it.
  const std::size_t small = local_wcet_bytes(1000).mean;
  const std::size_t large = local_wcet_bytes(8000).mean;
  EXPECT_LE(large, 2 * small)
      << large << " bytes per local event at N=8000 against " << small
      << " at N=1000";
#endif
}

TEST(RebalancerAllocations, InjectedFailureLeavesStateUntouched) {
#ifdef LBMEM_ALLOC_TEST_DISABLED
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#else
  const SuiteInstance instance = balanced_instance(200);
  const Rebalancer base = Rebalancer::adopt(*instance.graph,
                                            instance.schedule);
  const TaskGraph& graph = base.graph();
  // One applied event of each kind: a re-estimate of a task spread across
  // the graph, the failure of P0, a new consumer of that task, and the
  // removal of another task. Then two re-estimates (WCET = period) whose
  // repair fails, so the engine swaps in a new state mid-ladder: one
  // escalates to a full re-place, one (with the ladder on) sheds.
  const TaskId t = static_cast<TaskId>(graph.task_count() / 2);
  const Task& task = graph.task(t);
  const Time wcet = task.wcet < task.period ? task.wcet + 1 : task.wcet - 1;
  NewTaskSpec spec;
  spec.name = "arrival";
  spec.period = task.period;
  spec.wcet = 1;
  spec.memory = 1;
  spec.producers.push_back({task.name, 1});
  const std::vector<Event> events = {
      Event{0, WcetChange{task.name, wcet}},
      Event{0, ProcessorFailure{0}},
      Event{0, TaskArrival{spec}},
      Event{0, TaskRemoval{graph.task(t / 2).name}},
  };
  // Every injection point in optimized builds; a stride keeps verify
  // builds, which rebuild the occupancy after every apply(), near 10 s.
  const std::size_t probes = LBMEM_TIMELINE_VERIFY ? 250 : 2000;
  for (const Event& event : events) {
    const Sweep sweep = sweep_injected_failures(base, event, probes);
    EXPECT_GT(sweep.threw, 50) << to_string(event.kind());
  }
  const auto saturate = [&](const char* name) {
    const Task& task = graph.task(graph.find(name));
    return Event{0, WcetChange{task.name, task.period}};
  };
  // These allocate 1.8k and 2.5k times: every third to fifth point keeps
  // both sweeps near a second.
  const std::size_t ladder_probes = LBMEM_TIMELINE_VERIFY ? 150 : 500;
  const Sweep replaced =
      sweep_injected_failures(base, saturate("t0"), ladder_probes);
  EXPECT_TRUE(replaced.reference.full_replace);
  EXPECT_TRUE(replaced.reference.shed.empty());
  EXPECT_GT(replaced.threw, 50);
  const Sweep shed = sweep_injected_failures(base, saturate("t134"),
                                             ladder_probes, /*degraded=*/true);
  EXPECT_EQ(shed.reference.degraded_rung, 3);
  EXPECT_FALSE(shed.reference.shed.empty());
  EXPECT_GT(shed.threw, 50);
#endif
}

TEST(LookupAllocations, NameLookupAndEarliestFitAllocateNothing) {
#ifdef LBMEM_ALLOC_TEST_DISABLED
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#else
  // The two searches of a local event: the engine resolves the event's task
  // by name (TaskGraph::try_find, DESIGN.md F39) and re-places it with
  // earliest_fit's leapfrog over its instances.
  const SuiteInstance instance = balanced_instance(2000);
  const TaskGraph& graph = *instance.graph;
  const std::vector<ProcTimeline> occ = build_occupancy(instance.schedule);
  std::vector<std::string> absent;
  for (int i = 0; i < 200; ++i) {
    absent.push_back("absent-task-with-a-long-name-" + std::to_string(i));
  }

  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  std::int64_t found = 0;
  std::int64_t fits = 0;
  for (TaskId t = 0; t < static_cast<TaskId>(graph.task_count()); ++t) {
    const Task& task = graph.task(t);
    found += graph.try_find(task.name) == t;
    const ProcTimeline& timeline =
        occ[static_cast<std::size_t>(t) % occ.size()];
    fits += timeline
                .earliest_fit(t, task.period, task.wcet,
                              graph.instance_count(t))
                .has_value();
  }
  for (const std::string& name : absent) found += graph.try_find(name) < 0;
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_EQ(found, static_cast<std::int64_t>(graph.task_count()) + 200);
  EXPECT_GT(fits, 0);
#endif
}

TEST(OccupancyAllocations, BuildReservesEachBucketOnce) {
#ifdef LBMEM_ALLOC_TEST_DISABLED
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#else
  // A removal, a hyper-period-changing arrival, the engine's construction
  // and LoadBalancer::balance build the occupancy from nothing. One pass
  // per timeline reserves each non-empty bucket once, where growing it
  // piece by piece reallocates it, and keeps no table beside the pieces
  // (DESIGN.md F42).
  const SuiteInstance instance = balanced_instance(2000);
  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  const std::vector<ProcTimeline> occ = build_occupancy(instance.schedule);
  const std::size_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;
  std::size_t buckets = 0;
  std::size_t pieces = 0;
  for (const ProcTimeline& timeline : occ) {
    buckets += timeline.nonempty_buckets();
    pieces += timeline.piece_count();
  }
  ASSERT_GT(pieces, 2 * buckets) << "buckets too sparse to tell regrowth";
  // Per processor: the bucket array; plus the timeline vector and two
  // scratch arrays.
  EXPECT_LE(allocs, buckets + occ.size() + 3)
      << allocs << " allocations for " << buckets << " non-empty buckets on "
      << occ.size() << " processors";
#endif
}

}  // namespace
}  // namespace lbmem
