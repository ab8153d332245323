/// Unit tests for the validated multi-rate task graph (lbmem/model).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lbmem/model/task_graph.hpp"
#include "lbmem/online/rebalancer.hpp"
#include "lbmem/sched/scheduler.hpp"
#include "lbmem/util/check.hpp"
#include "lbmem/util/rng.hpp"

namespace lbmem {
namespace {

/// The producer instances a consumed range covers, in order.
std::vector<InstanceIdx> indices(ConsumedRange range) {
  std::vector<InstanceIdx> out;
  for (InstanceIdx i = 0; i < range.count; ++i) out.push_back(range.first + i);
  return out;
}

TaskGraph two_task_graph(Time tp, Time tc) {
  TaskGraph g;
  const TaskId p = g.add_task("p", tp, 1, 1);
  const TaskId c = g.add_task("c", tc, 1, 1);
  g.add_dependence(p, c);
  g.freeze();
  return g;
}

TEST(TaskGraph, AddTaskValidation) {
  TaskGraph g;
  EXPECT_THROW(g.add_task("", 4, 1, 1), ModelError);       // empty name
  EXPECT_THROW(g.add_task("t", 0, 1, 1), ModelError);      // period <= 0
  EXPECT_THROW(g.add_task("t", 4, 0, 1), ModelError);      // wcet <= 0
  EXPECT_THROW(g.add_task("t", 4, 5, 1), ModelError);      // wcet > period
  EXPECT_THROW(g.add_task("t", 4, 1, -1), ModelError);     // negative memory
  g.add_task("t", 4, 1, 0);
  EXPECT_THROW(g.add_task("t", 8, 1, 1), ModelError);      // duplicate name
}

TEST(TaskGraph, DependenceValidation) {
  TaskGraph g;
  const TaskId a = g.add_task("a", 4, 1, 1);
  const TaskId b = g.add_task("b", 8, 1, 1);
  const TaskId c = g.add_task("c", 6, 1, 1);
  EXPECT_THROW(g.add_dependence(a, a), ModelError);        // self-loop
  EXPECT_THROW(g.add_dependence(a, 99), ModelError);       // unknown id
  EXPECT_THROW(g.add_dependence(a, b, 0), ModelError);     // data size <= 0
  EXPECT_THROW(g.add_dependence(a, c), ModelError);        // 4 vs 6 not harmonic
  g.add_dependence(a, b);
  EXPECT_THROW(g.add_dependence(a, b), ModelError);        // duplicate
}

TEST(TaskGraph, CycleDetection) {
  TaskGraph g;
  const TaskId a = g.add_task("a", 4, 1, 1);
  const TaskId b = g.add_task("b", 4, 1, 1);
  const TaskId c = g.add_task("c", 4, 1, 1);
  g.add_dependence(a, b);
  g.add_dependence(b, c);
  g.add_dependence(c, a);
  EXPECT_THROW(g.freeze(), ModelError);
}

TEST(TaskGraph, EmptyGraphRejected) {
  TaskGraph g;
  EXPECT_THROW(g.freeze(), ModelError);
}

TEST(TaskGraph, FrozenGraphIsImmutable) {
  TaskGraph g;
  g.add_task("a", 4, 1, 1);
  g.freeze();
  EXPECT_THROW(g.add_task("b", 4, 1, 1), PreconditionError);
  EXPECT_THROW(g.add_dependence(0, 0), PreconditionError);
  EXPECT_THROW(g.freeze(), PreconditionError);
}

TEST(TaskGraph, QueriesRequireFreeze) {
  TaskGraph g;
  g.add_task("a", 4, 1, 1);
  EXPECT_THROW(g.hyperperiod(), PreconditionError);
  EXPECT_THROW(g.topological_order(), PreconditionError);
  EXPECT_THROW((void)g.instance_count(0), PreconditionError);
}

TEST(TaskGraph, HyperperiodAndInstances) {
  TaskGraph g;
  const TaskId a = g.add_task("a", 3, 1, 1);
  const TaskId b = g.add_task("b", 4, 1, 1);
  g.freeze();
  EXPECT_EQ(g.hyperperiod(), 12);
  EXPECT_EQ(g.instance_count(a), 4);
  EXPECT_EQ(g.instance_count(b), 3);
  EXPECT_EQ(g.total_instances(), 7u);
}

TEST(TaskGraph, FreezeRejectsInstanceCountsPastTheInstanceIndex) {
  // Trace text is untrusted: a period coprime to the others blows H up
  // until H / period no longer fits InstanceIdx.
  TaskGraph g;
  g.add_task("fast", 16, 1, 1);
  g.add_task("big", 4294967311, 1, 1);
  try {
    g.freeze();
    FAIL() << "froze with " << g.total_instances() << " instances";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("task fast"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(g.frozen());
}

TEST(TaskGraph, FreezeRejectsMoreThanTheInstanceCeiling) {
  const auto ceiling = static_cast<Time>(TaskGraph::kMaxTotalInstances);
  TaskGraph over;
  over.add_task("dense", 1, 1, 1);
  over.add_task("sparse", 2 * ceiling, 1, 1);
  try {
    over.freeze();
    FAIL() << "froze with " << over.total_instances() << " instances";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("task dense"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(over.frozen());

  TaskGraph under;  // ceiling / 2 + 1 instances: admitted
  under.add_task("dense", 2, 1, 1);
  under.add_task("sparse", ceiling, 1, 1);
  under.freeze();
  EXPECT_EQ(under.total_instances(), TaskGraph::kMaxTotalInstances / 2 + 1);
}

TEST(TaskGraph, TopologicalRankInvertsTheOrder) {
  TaskGraph g;
  const TaskId a = g.add_task("a", 4, 1, 1);
  const TaskId b = g.add_task("b", 4, 1, 1);
  const TaskId c = g.add_task("c", 4, 1, 1);
  g.add_dependence(c, a);
  g.add_dependence(a, b);
  g.freeze();
  const std::span<const TaskId> order = g.topological_order();
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(g.topological_rank(order[i]), static_cast<std::int32_t>(i));
  }
  EXPECT_LT(g.topological_rank(c), g.topological_rank(a));
  EXPECT_LT(g.topological_rank(a), g.topological_rank(b));
}

TEST(TaskGraph, TopologicalOrderRespectsEdges) {
  TaskGraph g;
  const TaskId a = g.add_task("a", 4, 1, 1);
  const TaskId b = g.add_task("b", 4, 1, 1);
  const TaskId c = g.add_task("c", 8, 1, 1);
  g.add_dependence(a, b);
  g.add_dependence(b, c);
  g.freeze();
  const auto order = g.topological_order();
  std::vector<TaskId> pos(g.task_count());
  for (std::size_t i = 0; i < order.size(); ++i) {
    pos[static_cast<std::size_t>(order[i])] = static_cast<TaskId>(i);
  }
  for (const Dependence& d : g.dependences()) {
    EXPECT_LT(pos[static_cast<std::size_t>(d.producer)],
              pos[static_cast<std::size_t>(d.consumer)]);
  }
}

TEST(TaskGraph, FindByName) {
  TaskGraph g;
  g.add_task("alpha", 4, 1, 1);
  g.add_task("beta", 4, 1, 1);
  g.freeze();
  EXPECT_EQ(g.find("beta"), 1);
  EXPECT_THROW(g.find("gamma"), ModelError);
}

TEST(TaskGraph, SlowConsumerGathersN) {
  // T_c = 3*T_p: consumer instance k consumes producers 3k, 3k+1, 3k+2
  // (the Figure-1 semantics).
  const TaskGraph g = two_task_graph(2, 6);
  EXPECT_EQ(indices(g.consumed_range(0, 0)),
            (std::vector<InstanceIdx>{0, 1, 2}));
  // Hyper-period 6: consumer has exactly one instance.
  EXPECT_EQ(g.instance_count(g.find("c")), 1);
}

TEST(TaskGraph, FastConsumerSamples) {
  // T_p = 4*T_c: consumer instances 0..3 all consume producer instance 0.
  const TaskGraph g = two_task_graph(8, 2);
  for (InstanceIdx k = 0; k < 4; ++k) {
    EXPECT_EQ(indices(g.consumed_range(0, k)),
              (std::vector<InstanceIdx>{0})) << "k=" << k;
  }
}

TEST(TaskGraph, SamePeriodOneToOne) {
  const TaskGraph g = two_task_graph(6, 6);
  EXPECT_EQ(indices(g.consumed_range(0, 0)), (std::vector<InstanceIdx>{0}));
}

TEST(TaskGraph, MultiRateConsumptionCoversAllProducers) {
  // Every producer instance is consumed by exactly one consumer instance
  // when T_c = n*T_p.
  const TaskGraph g = two_task_graph(3, 12);
  std::vector<int> consumed(4, 0);
  for (InstanceIdx k = 0; k < g.instance_count(g.find("c")); ++k) {
    for (const InstanceIdx pk : indices(g.consumed_range(0, k))) {
      ++consumed[static_cast<std::size_t>(pk)];
    }
  }
  for (const int c : consumed) EXPECT_EQ(c, 1);
}

TEST(TaskGraph, Utilization) {
  TaskGraph g;
  g.add_task("a", 4, 1, 1);   // 0.25
  g.add_task("b", 8, 2, 1);   // 0.25
  g.freeze();
  EXPECT_DOUBLE_EQ(g.utilization(), 0.5);
}

TEST(TaskGraph, AdjacencySpans) {
  TaskGraph g;
  const TaskId a = g.add_task("a", 4, 1, 1);
  const TaskId b = g.add_task("b", 4, 1, 1);
  const TaskId c = g.add_task("c", 8, 1, 1);
  g.add_dependence(a, b);
  g.add_dependence(a, c);
  g.add_dependence(b, c);
  g.freeze();
  EXPECT_EQ(g.deps_out(a).size(), 2u);
  EXPECT_EQ(g.deps_in(c).size(), 2u);
  EXPECT_EQ(g.deps_in(a).size(), 0u);
}

/// Reference topological order: Kahn's algorithm with every ready id in
/// one min-heap, over adjacency lists built edge by edge. Empty when the
/// graph has a cycle.
std::vector<TaskId> min_heap_kahn(std::size_t n,
                                  const std::vector<Dependence>& deps) {
  std::vector<std::vector<TaskId>> out(n);
  std::vector<int> indegree(n, 0);
  for (const Dependence& d : deps) {
    out[static_cast<std::size_t>(d.producer)].push_back(d.consumer);
    ++indegree[static_cast<std::size_t>(d.consumer)];
  }
  std::priority_queue<TaskId, std::vector<TaskId>, std::greater<>> ready;
  for (std::size_t t = 0; t < n; ++t) {
    if (indegree[t] == 0) ready.push(static_cast<TaskId>(t));
  }
  std::vector<TaskId> order;
  while (!ready.empty()) {
    const TaskId t = ready.top();
    ready.pop();
    order.push_back(t);
    for (const TaskId c : out[static_cast<std::size_t>(t)]) {
      if (--indegree[static_cast<std::size_t>(c)] == 0) ready.push(c);
    }
  }
  if (order.size() != n) order.clear();
  return order;
}

/// A random graph on \p n tasks: edges follow a shuffled hidden order, so
/// they point both up and down in id and the graph is acyclic.
std::vector<Dependence> random_dag_edges(Rng& rng, std::size_t n) {
  std::vector<TaskId> hidden(n);
  for (std::size_t i = 0; i < n; ++i) hidden[i] = static_cast<TaskId>(i);
  rng.shuffle(hidden);
  std::set<std::pair<TaskId, TaskId>> seen;
  std::vector<Dependence> deps;
  const auto edges = rng.uniform(0, static_cast<std::int64_t>(2 * n));
  for (std::int64_t e = 0; e < edges && n > 1; ++e) {
    auto a = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(n) - 1));
    auto b = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(n) - 1));
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    const std::pair<TaskId, TaskId> edge{hidden[a], hidden[b]};
    if (seen.insert(edge).second) {
      deps.push_back(Dependence{edge.first, edge.second, 1});
    }
  }
  return deps;
}

TaskGraph build(std::size_t n, const std::vector<Dependence>& deps) {
  TaskGraph g;
  for (std::size_t t = 0; t < n; ++t) {
    g.add_task("t" + std::to_string(t), 4, 1, 1);
  }
  for (const Dependence& d : deps) g.add_dependence(d.producer, d.consumer);
  return g;
}

TEST(TaskGraph, FreezeMatchesTheMinHeapKahnOrderAndSortedAdjacency) {
  // Every repair order depends on the smallest-ready-id-first tie-break:
  // freeze() must reproduce it exactly, and list each task's edge ids in
  // ascending order, on graphs whose edges point both ways in id.
  Rng rng(20);
  for (int round = 0; round < 300; ++round) {
    const auto n = static_cast<std::size_t>(rng.uniform(1, 40));
    const std::vector<Dependence> deps = random_dag_edges(rng, n);
    SCOPED_TRACE("round " + std::to_string(round));
    TaskGraph g = build(n, deps);
    g.freeze();
    const std::vector<TaskId> expected = min_heap_kahn(n, deps);
    ASSERT_EQ(expected.size(), n);
    const std::span<const TaskId> order = g.topological_order();
    ASSERT_EQ(std::vector<TaskId>(order.begin(), order.end()), expected);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(g.topological_rank(expected[i]), static_cast<std::int32_t>(i));
    }
    for (std::size_t t = 0; t < n; ++t) {
      std::vector<std::int32_t> in;
      std::vector<std::int32_t> out;
      for (std::size_t e = 0; e < deps.size(); ++e) {
        if (deps[e].consumer == static_cast<TaskId>(t)) {
          in.push_back(static_cast<std::int32_t>(e));
        }
        if (deps[e].producer == static_cast<TaskId>(t)) {
          out.push_back(static_cast<std::int32_t>(e));
        }
      }
      const auto got_in = g.deps_in(static_cast<TaskId>(t));
      const auto got_out = g.deps_out(static_cast<TaskId>(t));
      ASSERT_EQ(std::vector<std::int32_t>(got_in.begin(), got_in.end()), in);
      ASSERT_EQ(std::vector<std::int32_t>(got_out.begin(), got_out.end()),
                out);
    }
  }
}

TEST(TaskGraph, FreezeRejectsRandomCycles) {
  // The same random graphs closed into a cycle through two to four tasks
  // must still throw, wherever in id order the cycle sits.
  Rng rng(21);
  for (int round = 0; round < 200; ++round) {
    const auto n = static_cast<std::size_t>(rng.uniform(2, 40));
    std::vector<Dependence> deps = random_dag_edges(rng, n);
    std::vector<TaskId> ids(n);
    for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<TaskId>(i);
    rng.shuffle(ids);
    const auto len = static_cast<std::size_t>(rng.uniform(
        2, std::min<std::int64_t>(4, static_cast<std::int64_t>(n))));
    for (std::size_t i = 0; i < len; ++i) {
      const TaskId p = ids[i];
      const TaskId c = ids[(i + 1) % len];
      const bool present = std::any_of(
          deps.begin(), deps.end(), [&](const Dependence& d) {
            return d.producer == p && d.consumer == c;
          });
      if (!present) deps.push_back(Dependence{p, c, 1});
    }
    SCOPED_TRACE("round " + std::to_string(round));
    ASSERT_TRUE(min_heap_kahn(n, deps).empty());
    TaskGraph g = build(n, deps);
    EXPECT_THROW(g.freeze(), ModelError);
  }
}

TEST(TaskGraph, WithoutCompactsIdsInOrderAndDropsTouchingEdges) {
  TaskGraph g;
  const TaskId a = g.add_task("a", 4, 1, 1);
  const TaskId b = g.add_task("b", 8, 1, 2);
  const TaskId c = g.add_task("c", 8, 2, 3);
  const TaskId d = g.add_task("d", 16, 1, 4);
  g.add_dependence(a, b, 2);
  g.add_dependence(b, d, 3);
  g.add_dependence(a, c, 4);
  g.add_dependence(c, d, 5);
  g.freeze();

  std::vector<TaskId> remap;
  const std::vector<TaskId> drop{b};
  const TaskGraph out = g.without(drop, remap);
  EXPECT_EQ(remap, (std::vector<TaskId>{0, -1, 1, 2}));
  ASSERT_EQ(out.task_count(), 3u);
  EXPECT_EQ(out.task(0).name, "a");
  EXPECT_EQ(out.task(1).name, "c");
  EXPECT_EQ(out.task(2).name, "d");
  EXPECT_EQ(out.task(1).wcet, 2);
  EXPECT_EQ(out.task(2).memory, 4);
  ASSERT_EQ(out.dependence_count(), 2u);  // a->b and b->d are gone
  EXPECT_EQ(out.dependences()[0].producer, 0);
  EXPECT_EQ(out.dependences()[0].consumer, 1);
  EXPECT_EQ(out.dependences()[0].data_size, 4);
  EXPECT_EQ(out.dependences()[1].producer, 1);
  EXPECT_EQ(out.dependences()[1].consumer, 2);
  EXPECT_EQ(out.dependences()[1].data_size, 5);
  // The source is untouched.
  EXPECT_EQ(g.task_count(), 4u);
  EXPECT_EQ(g.dependence_count(), 4u);
}

TEST(TaskGraph, WithoutIsUnfrozenAndFreezesLikeAFromScratchBuild) {
  // Periods 3/6/12/24, so dropping the period-24 task shrinks H.
  TaskGraph g;
  g.add_task("a", 3, 1, 1);
  g.add_task("b", 6, 1, 1);
  g.add_task("slow", 24, 2, 1);
  g.add_task("c", 12, 1, 1);
  g.add_task("d", 6, 1, 1);
  g.add_dependence(0, 1);
  g.add_dependence(2, 3);
  g.add_dependence(1, 3);
  g.add_dependence(0, 4);
  g.add_dependence(4, 3);
  g.freeze();
  ASSERT_EQ(g.hyperperiod(), 24);

  std::vector<TaskId> remap;
  const std::vector<TaskId> drop{2};
  TaskGraph edited = g.without(drop, remap);
  EXPECT_FALSE(edited.frozen());
  EXPECT_THROW(edited.hyperperiod(), PreconditionError);
  // Still open to additions, which keep every check.
  EXPECT_THROW(edited.add_task("a", 6, 1, 1), ModelError);  // duplicate
  const TaskId e = edited.add_task("e", 12, 1, 1);
  EXPECT_THROW(edited.add_dependence(1, 1), ModelError);    // self-loop
  EXPECT_THROW(edited.add_dependence(0, 1), ModelError);    // duplicate
  edited.add_dependence(remap[3], e);
  edited.freeze();

  TaskGraph scratch;
  scratch.add_task("a", 3, 1, 1);
  scratch.add_task("b", 6, 1, 1);
  scratch.add_task("c", 12, 1, 1);
  scratch.add_task("d", 6, 1, 1);
  scratch.add_task("e", 12, 1, 1);
  scratch.add_dependence(0, 1);
  scratch.add_dependence(1, 2);
  scratch.add_dependence(0, 3);
  scratch.add_dependence(3, 2);
  scratch.add_dependence(2, 4);
  scratch.freeze();

  EXPECT_EQ(edited.hyperperiod(), 12);
  EXPECT_EQ(edited.hyperperiod(), scratch.hyperperiod());
  EXPECT_EQ(edited.total_instances(), scratch.total_instances());
  const auto order = edited.topological_order();
  const auto expected = scratch.topological_order();
  EXPECT_EQ(std::vector<TaskId>(order.begin(), order.end()),
            std::vector<TaskId>(expected.begin(), expected.end()));
  for (TaskId t = 0; t <= static_cast<TaskId>(scratch.task_count()); ++t) {
    EXPECT_EQ(edited.instance_base(t), scratch.instance_base(t)) << t;
  }
  ASSERT_EQ(edited.dependence_count(), scratch.dependence_count());
  for (std::size_t i = 0; i < scratch.dependence_count(); ++i) {
    EXPECT_EQ(edited.dependences()[i].producer,
              scratch.dependences()[i].producer);
    EXPECT_EQ(edited.dependences()[i].consumer,
              scratch.dependences()[i].consumer);
  }
}

TEST(TaskGraph, WithoutNothingIsACopyWithTheIdentityRemap) {
  const TaskGraph g = two_task_graph(2, 6);
  std::vector<TaskId> remap{7, 7, 7};  // overwritten, not appended to
  TaskGraph copy = g.without({}, remap);
  EXPECT_EQ(remap, (std::vector<TaskId>{0, 1}));
  copy.freeze();
  EXPECT_EQ(copy.task_count(), 2u);
  EXPECT_EQ(copy.dependence_count(), 1u);
  EXPECT_EQ(copy.hyperperiod(), g.hyperperiod());
}

TEST(TaskGraph, WithoutPreconditions) {
  const TaskGraph g = two_task_graph(2, 6);
  std::vector<TaskId> remap;
  const std::vector<TaskId> past_end{2};
  const std::vector<TaskId> negative{-1};
  EXPECT_THROW(g.without(past_end, remap), PreconditionError);
  EXPECT_THROW(g.without(negative, remap), PreconditionError);

  TaskGraph unfrozen;
  unfrozen.add_task("a", 4, 1, 1);
  EXPECT_THROW(unfrozen.without({}, remap), PreconditionError);
}

// ---- the name index (DESIGN.md F39) ----------------------------------------

/// Name of task \p i in the index tests: short names, names past the
/// small-string buffer, and names sharing long prefixes.
std::string indexed_name(int i) {
  switch (i % 3) {
    case 0:
      return "t" + std::to_string(i);
    case 1:
      return "a-task-name-longer-than-any-small-string-buffer-" +
             std::to_string(i);
    default:
      return std::string(static_cast<std::size_t>(1 + i % 7), 'x') + "#" +
             std::to_string(i);
  }
}

/// \p n tasks named indexed_name(0..n-1), light enough for two
/// processors, with a chain of dependences over the first ten; frozen.
TaskGraph indexed_graph(int n) {
  TaskGraph g;
  for (int i = 0; i < n; ++i) g.add_task(indexed_name(i), 240, 1, 1);
  for (int i = 1; i < std::min(n, 10); ++i) g.add_dependence(i - 1, i);
  g.freeze();
  return g;
}

/// Every task's name resolves to its id.
void expect_every_name_resolves(const TaskGraph& g) {
  for (TaskId t = 0; t < static_cast<TaskId>(g.task_count()); ++t) {
    ASSERT_EQ(g.try_find(g.task(t).name), t) << g.task(t).name;
    ASSERT_EQ(g.find(g.task(t).name), t);
  }
}

TEST(TaskGraph, NameIndexResolvesAfterEveryAddTask) {
  TaskGraph g;
  EXPECT_EQ(g.try_find("t0"), -1);  // the empty graph has no index yet
  for (int i = 0; i < 300; ++i) {
    const TaskId id = g.add_task(indexed_name(i), 12, 1, 1);
    ASSERT_EQ(id, i);
    // Growth re-inserts every earlier name; check them all there.
    if ((i & (i + 1)) == 0 || i % 37 == 0) expect_every_name_resolves(g);
    ASSERT_EQ(g.try_find(indexed_name(i + 1)), -1);
  }
  expect_every_name_resolves(g);
  EXPECT_EQ(g.try_find(""), -1);
  EXPECT_EQ(g.try_find("t1"), -1);  // task 1 is named indexed_name(1)
  EXPECT_THROW(g.find("missing"), ModelError);
}

TEST(TaskGraph, NameIndexRejectsDuplicatesBeforeAndAfterWithout) {
  // Before: a graph under construction rejects every name it holds, and a
  // rejected add leaves it unchanged.
  TaskGraph open;
  for (int i = 0; i < 40; ++i) open.add_task(indexed_name(i), 12, 1, 1);
  for (int i = 0; i < 40; ++i) {
    EXPECT_THROW(open.add_task(indexed_name(i), 24, 1, 1), ModelError);
  }
  EXPECT_EQ(open.task_count(), 40u);
  expect_every_name_resolves(open);
  open.freeze();

  // After: the survivors of without() are still taken, the dropped names
  // are free once, and taken again once re-added.
  std::vector<TaskId> remap;
  const std::vector<TaskId> drop{3, 4, 17};
  TaskGraph edited = open.without(drop, remap);
  for (TaskId t = 0; t < static_cast<TaskId>(edited.task_count()); ++t) {
    EXPECT_THROW(edited.add_task(edited.task(t).name, 12, 1, 1), ModelError);
  }
  EXPECT_EQ(edited.task_count(), 37u);
  for (const TaskId t : drop) {
    edited.add_task(open.task(t).name, 12, 1, 1);
    EXPECT_THROW(edited.add_task(open.task(t).name, 12, 1, 1), ModelError);
  }
  EXPECT_EQ(edited.task_count(), 40u);
  expect_every_name_resolves(edited);
}

TEST(TaskGraph, NameIndexFollowsTheRemapOfWithout) {
  const TaskGraph g = indexed_graph(200);
  const std::vector<std::vector<TaskId>> drops = {
      {},                            // no drop: the identity remap
      {57},                          // one drop
      {0, 1, 2, 99, 100, 198, 199},  // several, at both ends and adjacent
      {5, 5, 150},                   // a repeated id drops once
  };
  for (const std::vector<TaskId>& drop : drops) {
    SCOPED_TRACE("drops: " + std::to_string(drop.size()));
    std::vector<TaskId> remap;
    TaskGraph out = g.without(drop, remap);
    for (TaskId t = 0; t < 200; ++t) {
      const std::string& name = g.task(t).name;
      ASSERT_EQ(out.try_find(name), remap[static_cast<std::size_t>(t)])
          << name;
    }
    expect_every_name_resolves(out);
    // Dropped names are absent and may come back, at the next id.
    for (const TaskId t : drop) {
      const std::string& name = g.task(t).name;
      if (out.try_find(name) >= 0) continue;  // re-added just before
      const TaskId back = out.add_task(name, 6, 1, 1);
      EXPECT_EQ(back, static_cast<TaskId>(out.task_count()) - 1);
      EXPECT_EQ(out.try_find(name), back);
    }
    expect_every_name_resolves(out);
    out.freeze();
    // A second edit carries the carried index again.
    std::vector<TaskId> again;
    const std::vector<TaskId> first{0};
    const TaskGraph twice = out.without(first, again);
    EXPECT_EQ(twice.try_find(out.task(0).name), -1);
    expect_every_name_resolves(twice);
  }
}

TEST(TaskGraph, NameIndexSurvivesCopyMoveAndAdopt) {
  const TaskGraph g = indexed_graph(120);
  TaskGraph copy(g);
  expect_every_name_resolves(copy);
  TaskGraph assigned;
  assigned = g;
  expect_every_name_resolves(assigned);
  TaskGraph moved(std::move(copy));
  expect_every_name_resolves(moved);
  TaskGraph move_assigned;
  move_assigned = std::move(moved);
  expect_every_name_resolves(move_assigned);
  expect_every_name_resolves(g);  // the source is untouched

  // The engine copies the graph on adopt() and edits that copy through
  // without(); both keep resolving by name.
  const Schedule sched =
      build_initial_schedule(g, Architecture(2), CommModel::flat(1));
  Rebalancer engine = Rebalancer::adopt(g, sched);
  expect_every_name_resolves(engine.graph());
  const std::string victim = g.task(4).name;
  ASSERT_TRUE(engine.apply(Event{0, TaskRemoval{victim}}).applied);
  EXPECT_EQ(engine.graph().try_find(victim), -1);
  expect_every_name_resolves(engine.graph());
  NewTaskSpec spec;
  spec.name = victim;
  spec.period = 240;
  spec.wcet = 1;
  spec.producers.push_back({g.task(0).name, 1});
  ASSERT_TRUE(engine.apply(Event{1, TaskArrival{spec}}).applied);
  EXPECT_EQ(engine.graph().try_find(victim),
            static_cast<TaskId>(engine.graph().task_count()) - 1);
  expect_every_name_resolves(engine.graph());
}

TEST(TaskGraph, NameIndexAtTwentyThousandTasks) {
  TaskGraph g;
  for (int i = 0; i < 20'000; ++i) {
    g.add_task("task-" + std::to_string(i), 16, 1, 1);
  }
  g.freeze();
  expect_every_name_resolves(g);
  for (int i = 20'000; i < 21'000; ++i) {
    ASSERT_EQ(g.try_find("task-" + std::to_string(i)), -1) << i;
  }
}

TEST(TaskGraph, DuplicateEdgesRejectedAtEightThousandTasks) {
  // 8,000 tasks and about 16k edges (each task after the first two takes
  // two producers among the tasks before it): add_dependence checks only
  // the consumer's own in-edges, and still rejects every duplicate, before
  // freeze() and after without() rebuilt the lists.
  constexpr int kTasks = 8000;
  TaskGraph g;
  for (int i = 0; i < kTasks; ++i) {
    g.add_task("t" + std::to_string(i), 16, 1, 1);
  }
  std::size_t edges = 0;
  for (TaskId c = 2; c < kTasks; ++c) {
    g.add_dependence(c - 1, c);
    g.add_dependence(c / 2 == c - 1 ? 0 : c / 2, c);
    edges += 2;
  }
  EXPECT_EQ(g.dependence_count(), edges);
  EXPECT_GT(edges, 15'000u);
  const auto expect_duplicate = [](TaskGraph& graph, TaskId p, TaskId c) {
    try {
      graph.add_dependence(p, c);
      ADD_FAILURE() << "duplicate " << p << " -> " << c << " accepted";
    } catch (const ModelError& e) {
      EXPECT_EQ(std::string(e.what()),
                "duplicate dependence " + graph.task(p).name + " -> " +
                    graph.task(c).name);
    }
  };
  expect_duplicate(g, 4999, 5000);
  expect_duplicate(g, 2500, 5000);
  expect_duplicate(g, 0, 2);
  g.add_dependence(0, 5000);  // a new producer of the same consumer
  g.freeze();

  std::vector<TaskId> remap;
  const TaskId drop = 4999;
  TaskGraph rebuilt = g.without(std::span<const TaskId>(&drop, 1), remap);
  const TaskId c = remap[5000];
  expect_duplicate(rebuilt, remap[2500], c);
  expect_duplicate(rebuilt, 0, c);
  expect_duplicate(rebuilt, remap[7998], remap[7999]);
  // The dropped producer's edge is gone, so an edge from its predecessor
  // is new; a task added after without() takes edges and rejects them twice.
  rebuilt.add_dependence(remap[4998], c);
  const TaskId added = rebuilt.add_task("late", 16, 1, 1);
  rebuilt.add_dependence(c, added);
  expect_duplicate(rebuilt, c, added);
  rebuilt.freeze();
  EXPECT_EQ(rebuilt.dependence_count(), edges + 1 - 3 + 2);
}

}  // namespace
}  // namespace lbmem
