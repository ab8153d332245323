/// Unit tests for the undo journal over a schedule and its occupancy
/// (lbmem/sched/journal.hpp, DESIGN.md F36): rollback to any mark restores
/// the schedule, its aggregates and every occupancy piece exactly; a first
/// placement rolls back to the incomplete schedule; the destructor rolls
/// back unless committed; the WCET edit keeps busy time exact; and a
/// timeline undoes a long add/remove churn exactly, in reverse.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <vector>

#include "lbmem/gen/suites.hpp"
#include "lbmem/sched/journal.hpp"
#include "lbmem/sched/scheduler.hpp"
#include "lbmem/util/rng.hpp"

namespace lbmem {
namespace {

SuiteInstance instance(int tasks, int procs, std::uint64_t seed) {
  SuiteSpec spec;
  spec.params.tasks = tasks;
  spec.params.period_levels = 3;
  spec.params.edge_probability = 0.2;
  spec.processors = procs;
  spec.comm_cost = 2;
  spec.count = 1;
  spec.base_seed = seed;
  auto suite = make_suite(spec);
  EXPECT_FALSE(suite.empty());
  return std::move(suite.front());
}

/// Schedule fields and aggregates, for exact comparison.
struct Snapshot {
  std::vector<Time> starts;
  std::vector<ProcId> procs;
  std::vector<Mem> memory;
  std::vector<Time> busy;
  bool operator==(const Snapshot&) const = default;
};

Snapshot snap(const Schedule& sched) {
  Snapshot s;
  const TaskGraph& graph = sched.graph();
  for (TaskId t = 0; t < static_cast<TaskId>(graph.task_count()); ++t) {
    s.starts.push_back(sched.first_start(t));
  }
  for (const TaskInstance inst : sched.all_instances()) {
    s.procs.push_back(sched.proc(inst));
  }
  for (ProcId p = 0; p < sched.architecture().processor_count(); ++p) {
    s.memory.push_back(sched.memory_on(p));
    s.busy.push_back(sched.busy_on(p));
  }
  return s;
}

bool same_occupancy(const std::vector<ProcTimeline>& a,
                    const std::vector<ProcTimeline>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t p = 0; p < a.size(); ++p) {
    if (!a[p].same_pieces(b[p]) || !a[p].check_index_integrity()) {
      return false;
    }
  }
  return true;
}

/// Busy time per processor recomputed from the placements and the graph's
/// current WCETs.
std::vector<Time> busy_from_scratch(const Schedule& sched) {
  std::vector<Time> busy(
      static_cast<std::size_t>(sched.architecture().processor_count()), 0);
  for (const TaskInstance inst : sched.all_instances()) {
    busy[static_cast<std::size_t>(sched.proc(inst))] +=
        sched.graph().task(inst.task).wcet;
  }
  return busy;
}

/// Moves random instances to random processors where their interval fits,
/// and shifts random first starts, all through \p journal. Every footprint
/// stays where the schedule places its instance, or is dropped where the
/// interval no longer fits, so that a removal names the start of the
/// footprint it releases (DESIGN.md F42).
void random_edits(ScheduleJournal& journal, Rng& rng, int count) {
  const Schedule& sched = journal.schedule();
  const TaskGraph& graph = sched.graph();
  const std::vector<TaskInstance> all = sched.all_instances();
  const int procs = sched.architecture().processor_count();
  const auto fits = [&](ProcId p, TaskInstance inst) {
    return journal.occupancy()[static_cast<std::size_t>(p)].fits(
        sched.start(inst), graph.task(inst.task).wcet);
  };
  const auto add = [&](ProcId p, TaskInstance inst) {
    journal.add(p, sched.start(inst), graph.task(inst.task).wcet, inst);
  };
  const auto remove = [&](TaskInstance inst) {
    journal.remove(sched.proc(inst), inst, sched.start(inst));
  };
  for (int i = 0; i < count; ++i) {
    const TaskInstance inst =
        all[static_cast<std::size_t>(rng.uniform(0, std::ssize(all) - 1))];
    if (rng.uniform(0, 3) == 0) {
      // Every instance of the task shifts along.
      const TaskId t = inst.task;
      const InstanceIdx n = graph.instance_count(t);
      for (InstanceIdx k = 0; k < n; ++k) remove(TaskInstance{t, k});
      journal.set_first_start(t, rng.uniform(0, 50));
      for (InstanceIdx k = 0; k < n; ++k) {
        const TaskInstance shifted{t, k};
        const ProcId p = sched.proc(shifted);
        if (fits(p, shifted)) add(p, shifted);
      }
      continue;
    }
    const ProcId home = sched.proc(inst);
    remove(inst);
    const auto dest = static_cast<ProcId>(rng.uniform(0, procs - 1));
    if (fits(dest, inst)) {
      journal.assign(inst, dest);
      add(dest, inst);
    } else if (fits(home, inst)) {
      add(home, inst);
    }
  }
}

TEST(ScheduleJournal, RollbackToAnyMarkRestoresScheduleAndOccupancy) {
  const SuiteInstance base = instance(60, 4, 17);
  Schedule sched = base.schedule;
  std::vector<ProcTimeline> occ = build_occupancy(sched);
  const Snapshot initial = snap(sched);
  const std::vector<ProcTimeline> initial_occ = occ;

  Rng rng(5);
  ScheduleJournal journal(sched, occ);
  random_edits(journal, rng, 200);
  const ScheduleJournal::Mark middle = journal.mark();
  const Snapshot at_middle = snap(sched);
  const std::vector<ProcTimeline> occ_at_middle = occ;
  random_edits(journal, rng, 400);
  EXPECT_FALSE(snap(sched) == at_middle);

  journal.rollback(middle);
  EXPECT_EQ(journal.mark(), middle);
  EXPECT_TRUE(snap(sched) == at_middle);
  EXPECT_TRUE(same_occupancy(occ, occ_at_middle));

  journal.rollback(0);
  EXPECT_TRUE(snap(sched) == initial);
  EXPECT_TRUE(same_occupancy(occ, initial_occ));
}

TEST(ScheduleJournal, FirstPlacementRollsBackToTheIncompleteState) {
  const SuiteInstance base = instance(40, 4, 53);
  const TaskGraph& graph = *base.graph;
  // Every task placed as in base except the last one, like an arrival the
  // online engine has not admitted yet.
  const auto target = static_cast<TaskId>(graph.task_count() - 1);
  std::vector<TaskId> ids(graph.task_count());
  std::iota(ids.begin(), ids.end(), TaskId{0});
  ids[static_cast<std::size_t>(target)] = -1;
  Schedule sched = carry_over(base.schedule, graph, ids);
  std::vector<ProcTimeline> occ = build_occupancy(sched);
  ASSERT_FALSE(sched.complete());
  const std::vector<ProcTimeline> initial_occ = occ;
  std::vector<Mem> memory;
  std::vector<Time> busy;
  for (ProcId p = 0; p < sched.architecture().processor_count(); ++p) {
    memory.push_back(sched.memory_on(p));
    busy.push_back(sched.busy_on(p));
  }
  Time others = 0;  // the latest end among the placed tasks
  for (TaskId t = 0; t < target; ++t) {
    others = std::max(others,
                      sched.end(TaskInstance{t, graph.instance_count(t) - 1}));
  }

  // Place the target whole, ending after every other task.
  const Task& task = graph.task(target);
  const InstanceIdx n = graph.instance_count(target);
  const Time span = task.period * static_cast<Time>(n - 1) + task.wcet;
  ProcId proc = 0;
  std::optional<Time> start;
  for (; proc < sched.architecture().processor_count() && !start; ++proc) {
    start = occ[static_cast<std::size_t>(proc)].earliest_fit(
        others, task.period, task.wcet, n);
  }
  ASSERT_TRUE(start.has_value());
  --proc;
  ScheduleJournal journal(sched, occ);
  commit_whole_task(journal, target, proc, *start);
  EXPECT_TRUE(sched.complete());
  EXPECT_EQ(sched.makespan(), *start + span);
  EXPECT_GT(*start + span, others);
  EXPECT_EQ(journal.migrations(), 0);  // placed, not moved

  journal.rollback(0);
  EXPECT_FALSE(sched.complete());
  EXPECT_THROW(sched.makespan(), PreconditionError);
  for (InstanceIdx k = 0; k < n; ++k) {
    EXPECT_EQ(sched.proc(TaskInstance{target, k}), kNoProc);
  }
  for (ProcId p = 0; p < sched.architecture().processor_count(); ++p) {
    EXPECT_EQ(sched.memory_on(p), memory[static_cast<std::size_t>(p)]);
    EXPECT_EQ(sched.busy_on(p), busy[static_cast<std::size_t>(p)]);
  }
  EXPECT_TRUE(same_occupancy(occ, initial_occ));
  EXPECT_EQ(journal.migrations(), 0);
  // The makespan chunks forgot the rolled-back end: a start at 0 reports
  // the scanned makespan, not the late end. The instances stay unplaced.
  sched.set_first_start(target, 0);
  EXPECT_EQ(sched.makespan(), std::max(others, span));
  EXPECT_FALSE(sched.complete());
}

TEST(ScheduleJournal, DestructorRollsBackUnlessCommitted) {
  const SuiteInstance base = instance(40, 4, 23);
  Schedule sched = base.schedule;
  std::vector<ProcTimeline> occ = build_occupancy(sched);
  const Snapshot initial = snap(sched);
  Rng rng(9);
  {
    ScheduleJournal journal(sched, occ);
    random_edits(journal, rng, 100);
  }
  EXPECT_TRUE(snap(sched) == initial);
  EXPECT_TRUE(same_occupancy(occ, build_occupancy(sched)));

  Snapshot edited;
  {
    ScheduleJournal journal(sched, occ);
    random_edits(journal, rng, 100);
    edited = snap(sched);
    journal.commit();
    EXPECT_EQ(journal.mark(), 0u);
  }
  EXPECT_TRUE(snap(sched) == edited);
}

TEST(ScheduleJournal, SetWcetKeepsBusyTimeExactAndRollsBack) {
  const SuiteInstance base = instance(40, 4, 31);
  TaskGraph graph = *base.graph;  // a mutable copy for set_wcet
  std::vector<TaskId> ids(graph.task_count());
  std::iota(ids.begin(), ids.end(), TaskId{0});
  Schedule sched = carry_over(base.schedule, graph, ids);
  std::vector<ProcTimeline> occ = build_occupancy(sched);
  const Snapshot initial = snap(sched);
  TaskId target = 0;
  while (graph.task(target).wcet == graph.task(target).period) ++target;
  const Time old_wcet = graph.task(target).wcet;

  ScheduleJournal journal(sched, occ);
  journal.set_wcet(graph, target, old_wcet + 1);
  EXPECT_EQ(graph.task(target).wcet, old_wcet + 1);
  for (ProcId p = 0; p < sched.architecture().processor_count(); ++p) {
    EXPECT_EQ(sched.busy_on(p),
              busy_from_scratch(sched)[static_cast<std::size_t>(p)]);
  }

  // An invalid WCET changes nothing and records nothing.
  const ScheduleJournal::Mark before = journal.mark();
  EXPECT_THROW(journal.set_wcet(graph, target, graph.task(target).period + 1),
               ModelError);
  EXPECT_EQ(journal.mark(), before);
  EXPECT_EQ(graph.task(target).wcet, old_wcet + 1);

  journal.rollback(0);
  EXPECT_EQ(graph.task(target).wcet, old_wcet);
  EXPECT_TRUE(snap(sched) == initial);
}

TEST(ScheduleJournal, MigrationsCompareWithTheFirstRecordedProcessor) {
  const SuiteInstance base = instance(30, 4, 41);
  Schedule sched = base.schedule;
  std::vector<ProcTimeline> occ;  // schedule edits only
  ScheduleJournal journal(sched, occ);
  const TaskInstance a{0, 0};
  const TaskInstance b{1, 0};
  const ProcId home_a = sched.proc(a);
  const ProcId home_b = sched.proc(b);
  const auto other = [](ProcId p) { return static_cast<ProcId>((p + 1) % 4); };
  journal.assign(a, other(home_a));
  journal.assign(a, other(other(home_a)));  // still migrated
  journal.assign(b, other(home_b));
  journal.assign(b, home_b);  // back home: not a migration
  EXPECT_EQ(journal.migrations(), 1);
  journal.rollback(0);
  EXPECT_EQ(journal.migrations(), 0);
  EXPECT_EQ(sched.proc(a), home_a);
}

TEST(ScheduleJournal, TimelineUndoesALongChurnInReverse) {
  // Undo in reverse order after thousands of adds and removals: every
  // removed owner comes back with the pieces it had, every added one
  // leaves from the start it was added at.
  const Time h = 4096;
  ProcTimeline tl(h);
  for (int i = 0; i < 40; ++i) tl.add(i * 8, 3, TaskInstance{i, 0});
  const ProcTimeline initial = tl;

  struct Op {
    bool added;
    TaskInstance owner;
    ProcTimeline::Released released;
  };
  std::vector<Op> ops;
  Rng rng(77);
  int next_owner = 1000;
  for (int step = 0; step < 3000; ++step) {
    if (rng.uniform(0, 2) == 0) {
      // Remove a random present owner.
      const TaskInstance owner{static_cast<TaskId>(rng.uniform(0, 39)), 0};
      const ProcTimeline::Released r = tl.remove(owner, owner.task * 8);
      if (r.len > 0) ops.push_back(Op{false, owner, r});
      continue;
    }
    const Time start = rng.uniform(0, h - 1);
    const Time len = rng.uniform(1, 4);
    if (!tl.fits(start, len)) continue;
    const TaskInstance owner{next_owner++, 0};
    tl.add(start, len, owner);
    ops.push_back(Op{true, owner, {start, len}});
    if (rng.uniform(0, 1) == 0) {  // churn: gone again at once
      ops.push_back(Op{false, owner, tl.remove(owner, start)});
    }
  }
  for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
    if (it->added) {
      ASSERT_EQ(tl.remove(it->owner, it->released.start).len,
                it->released.len);
    } else {
      tl.restore(it->owner, it->released);
    }
    ASSERT_TRUE(tl.check_index_integrity());
  }
  EXPECT_TRUE(tl.same_pieces(initial));
  // The restored owners are back at their starts: each one removes
  // cleanly.
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(tl.remove(TaskInstance{i, 0}, i * 8).len, 3) << i;
  }
  EXPECT_EQ(tl.piece_count(), 0u);
}

TEST(ScheduleJournal, RemoveReturnsTheWrappingIntervalWhole) {
  ProcTimeline tl(12);
  tl.add(10, 4, TaskInstance{0, 0});  // [10,12) and [0,2)
  const ProcTimeline::Released r = tl.remove(TaskInstance{0, 0}, 10);
  EXPECT_EQ(r.start, 10);
  EXPECT_EQ(r.len, 4);
  EXPECT_EQ(tl.piece_count(), 0u);
  tl.restore(TaskInstance{0, 0}, r);
  EXPECT_EQ(tl.piece_count(), 2u);
  EXPECT_FALSE(tl.fits(0, 1));
  EXPECT_FALSE(tl.fits(11, 1));
  EXPECT_TRUE(tl.check_index_integrity());
  EXPECT_THROW(tl.add(5, 1, TaskInstance{0, 0}), PreconditionError);
}

}  // namespace
}  // namespace lbmem
