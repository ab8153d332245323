/// Property test for Schedule's incrementally maintained aggregates
/// (memory_on / busy_on / max_memory / complete / makespan): after any
/// randomized sequence of assign and set_first_start calls — including
/// reassignments that move instances between processors — every aggregate
/// must equal the value recomputed from scratch through the public
/// per-instance API. Guards the cache-invalidation logic introduced with
/// the flat CSR storage and the per-chunk makespan (DESIGN.md F38).

#include <gtest/gtest.h>

#include <vector>

#include "lbmem/gen/random_graph.hpp"
#include "lbmem/sched/journal.hpp"
#include "lbmem/sched/schedule.hpp"
#include "lbmem/util/check.hpp"
#include "lbmem/util/rng.hpp"

namespace lbmem {
namespace {

struct Recomputed {
  std::vector<Mem> memory;
  std::vector<Time> busy;
  Mem max_memory = 0;
};

/// Reference aggregates, rebuilt instance by instance.
Recomputed recompute(const Schedule& sched) {
  const TaskGraph& graph = sched.graph();
  const int procs = sched.architecture().processor_count();
  Recomputed out;
  out.memory.assign(static_cast<std::size_t>(procs), Mem{0});
  out.busy.assign(static_cast<std::size_t>(procs), Time{0});
  for (TaskId t = 0; t < static_cast<TaskId>(graph.task_count()); ++t) {
    const InstanceIdx n = graph.instance_count(t);
    for (InstanceIdx k = 0; k < n; ++k) {
      const ProcId p = sched.proc(TaskInstance{t, k});
      if (p == kNoProc) continue;
      out.memory[static_cast<std::size_t>(p)] += graph.task(t).memory;
      out.busy[static_cast<std::size_t>(p)] += graph.task(t).wcet;
    }
  }
  for (const Mem m : out.memory) out.max_memory = std::max(out.max_memory, m);
  return out;
}

void expect_aggregates_match(const Schedule& sched, std::uint64_t seed,
                             int step) {
  const Recomputed ref = recompute(sched);
  for (ProcId p = 0; p < sched.architecture().processor_count(); ++p) {
    EXPECT_EQ(sched.memory_on(p), ref.memory[static_cast<std::size_t>(p)])
        << "seed " << seed << " step " << step << " proc " << p;
    EXPECT_EQ(sched.busy_on(p), ref.busy[static_cast<std::size_t>(p)])
        << "seed " << seed << " step " << step << " proc " << p;
  }
  EXPECT_EQ(sched.max_memory(), ref.max_memory)
      << "seed " << seed << " step " << step;
}

TEST(ScheduleAggregates, MatchRecomputationUnderRandomizedMutation) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    RandomGraphParams params;
    params.tasks = 40;
    params.period_levels = 3;
    TaskGraph graph = random_task_graph(params, seed);

    const int procs = 5;
    Schedule sched(graph, Architecture(procs), CommModel::flat(1));
    Rng rng(seed * 7919);

    // Enumerate all instances once so random picks are uniform.
    std::vector<TaskInstance> instances = sched.all_instances();
    std::vector<bool> started(graph.task_count(), false);

    EXPECT_FALSE(sched.complete());
    for (int step = 0; step < 400; ++step) {
      if (rng.chance(0.2)) {
        const auto t = static_cast<TaskId>(
            rng.uniform(0, static_cast<std::int64_t>(graph.task_count()) - 1));
        sched.set_first_start(t, rng.uniform(0, 50));
        started[static_cast<std::size_t>(t)] = true;
      } else {
        const TaskInstance inst = instances[static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(instances.size()) - 1))];
        sched.assign(inst,
                     static_cast<ProcId>(rng.uniform(0, procs - 1)));
      }
      if (step % 40 == 0) expect_aggregates_match(sched, seed, step);

      // complete() must agree with a brute-force scan at every point.
      bool all_assigned = true;
      for (const TaskInstance& inst : instances) {
        if (sched.proc(inst) == kNoProc) all_assigned = false;
      }
      bool all_started = true;
      for (const bool s : started) {
        if (!s) all_started = false;
      }
      ASSERT_EQ(sched.complete(), all_assigned && all_started)
          << "seed " << seed << " step " << step;
    }
    expect_aggregates_match(sched, seed, 400);

    // Drive to completion and check the aggregates one final time.
    for (TaskId t = 0; t < static_cast<TaskId>(graph.task_count()); ++t) {
      if (!started[static_cast<std::size_t>(t)]) sched.set_first_start(t, 0);
      sched.assign_all(t, static_cast<ProcId>(rng.uniform(0, procs - 1)));
    }
    EXPECT_TRUE(sched.complete());
    expect_aggregates_match(sched, seed, -1);
  }
}

/// Copies must carry their aggregates along (the balancer works on copies).
TEST(ScheduleAggregates, CopiesPreserveAggregates) {
  RandomGraphParams params;
  params.tasks = 12;
  TaskGraph graph = random_task_graph(params, 42);
  Schedule sched(graph, Architecture(3), CommModel::flat(1));
  for (TaskId t = 0; t < static_cast<TaskId>(graph.task_count()); ++t) {
    sched.set_first_start(t, 0);
    sched.assign_all(t, static_cast<ProcId>(t % 3));
  }
  Schedule copy = sched;
  copy.assign(TaskInstance{0, 0}, 1);  // diverge the copy
  expect_aggregates_match(sched, 42, 0);
  expect_aggregates_match(copy, 42, 1);
  EXPECT_NE(copy.memory_on(0), sched.memory_on(0));
}

/// Reference makespan: the latest last-instance end over every task.
Time scanned_makespan(const Schedule& sched) {
  const TaskGraph& graph = sched.graph();
  Time m = 0;
  for (TaskId t = 0; t < static_cast<TaskId>(graph.task_count()); ++t) {
    m = std::max(m, sched.end(TaskInstance{t, graph.instance_count(t) - 1}));
  }
  return m;
}

/// The lowest-id task whose last instance ends at the makespan.
TaskId latest_task(const Schedule& sched) {
  const TaskGraph& graph = sched.graph();
  const Time m = sched.makespan();
  for (TaskId t = 0;; ++t) {
    if (sched.end(TaskInstance{t, graph.instance_count(t) - 1}) == m) {
      return t;
    }
  }
}

/// The maintained makespan (DESIGN.md F38) under journaled start and WCET
/// edits, rollbacks to random marks and diverging copies, on graphs one
/// chunk of task ids wide or less, exactly one, just over one, and about
/// three. The latest task moves earlier (forcing a chunk re-fold) and later.
TEST(ScheduleAggregates, MaintainedMakespanMatchesAScan) {
  for (const int tasks : {1, 63, 64, 65, 200}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      RandomGraphParams params;
      params.tasks = tasks;
      params.period_levels = 3;
      TaskGraph graph = random_task_graph(params, seed);  // set_wcet edits it
      const auto n = static_cast<TaskId>(graph.task_count());
      Schedule sched(graph, Architecture(3), CommModel::flat(1));
      Rng rng(seed * 104729 + static_cast<std::uint64_t>(tasks));

      // An incomplete schedule has no makespan.
      for (TaskId t = 0; t < n; ++t) {
        EXPECT_THROW(sched.makespan(), PreconditionError) << "task " << t;
        sched.set_first_start(t, rng.uniform(0, 40));
        sched.assign_all(t, static_cast<ProcId>(t % 3));
      }
      const Time initial = sched.makespan();
      ASSERT_EQ(initial, scanned_makespan(sched)) << "tasks " << tasks;

      std::vector<ProcTimeline> occ;  // schedule edits only
      ScheduleJournal journal(sched, occ);
      std::vector<ScheduleJournal::Mark> marks;
      for (int step = 0; step < 300; ++step) {
        const double roll = rng.uniform01();
        if (roll < 0.3) {
          const TaskId t = latest_task(sched);
          const Time start = sched.first_start(t);
          journal.set_first_start(
              t, rng.chance(0.6) ? rng.uniform(0, start)
                                 : start + rng.uniform(1, 20));
        } else if (roll < 0.55) {
          journal.set_first_start(
              static_cast<TaskId>(rng.uniform(0, n - 1)), rng.uniform(0, 60));
        } else if (roll < 0.8) {
          const TaskId t = rng.chance(0.5)
                               ? latest_task(sched)
                               : static_cast<TaskId>(rng.uniform(0, n - 1));
          journal.set_wcet(graph, t, rng.uniform(1, graph.task(t).period));
        } else if (roll < 0.9) {
          marks.push_back(journal.mark());
        } else if (!marks.empty()) {
          const auto i = static_cast<std::size_t>(
              rng.uniform(0, static_cast<std::int64_t>(marks.size()) - 1));
          journal.rollback(marks[i]);
          marks.resize(i);
        }
        ASSERT_EQ(sched.makespan(), scanned_makespan(sched))
            << "tasks " << tasks << " seed " << seed << " step " << step;

        if (step % 50 == 0) {
          // A copy carries the aggregate, and the two then diverge.
          Schedule copy = sched;
          EXPECT_EQ(copy.makespan(), sched.makespan());
          const TaskId t = latest_task(copy);
          copy.set_first_start(t, 0);
          EXPECT_EQ(copy.makespan(), scanned_makespan(copy));
          EXPECT_EQ(sched.makespan(), scanned_makespan(sched));
        }
      }
      journal.rollback(0);
      EXPECT_EQ(sched.makespan(), initial) << "tasks " << tasks;
    }
  }
}

}  // namespace
}  // namespace lbmem
