#include "lbmem/sched/scheduler.hpp"

#include <algorithm>
#include <map>
#include <optional>

#include "lbmem/util/check.hpp"

namespace lbmem {

void precedence_lower_bounds(const Schedule& sched, TaskId t,
                             std::vector<Time>& bounds) {
  const TaskGraph& graph = sched.graph();
  const Time period = graph.task(t).period;
  const InstanceIdx n = graph.instance_count(t);
  const ProcId procs = sched.architecture().processor_count();
  bounds.assign(static_cast<std::size_t>(procs), 0);
  for (InstanceIdx k = 0; k < n; ++k) {
    const Time shift = period * static_cast<Time>(k);
    // data_ready(t_k, p) is the largest of p's colocated producer ends and
    // the end + C arrivals from other processors; the top two arrivals on
    // distinct processors hold the latter for every p.
    Time top1 = 0;
    ProcId top1_proc = kNoProc;
    Time top2 = 0;
    for (const std::int32_t e : graph.deps_in(t)) {
      const Dependence& dep =
          graph.dependences()[static_cast<std::size_t>(e)];
      const Time comm = sched.comm().transfer_time(dep.data_size);
      const ConsumedRange range = graph.consumed_range(e, k);
      for (InstanceIdx i = 0; i < range.count; ++i) {
        const TaskInstance producer{dep.producer, range.first + i};
        const ProcId pp = sched.proc(producer);
        LBMEM_REQUIRE(pp != kNoProc, "producer instance not yet placed");
        const Time end = sched.end(producer);
        Time& colocated = bounds[static_cast<std::size_t>(pp)];
        colocated = std::max(colocated, end - shift);
        const Time remote = end + comm;
        if (pp == top1_proc) {
          top1 = std::max(top1, remote);
        } else if (remote > top1) {
          top2 = top1;
          top1 = remote;
          top1_proc = pp;
        } else {
          top2 = std::max(top2, remote);
        }
      }
    }
    if (top1_proc == kNoProc) continue;  // no producer: ready at 0
    for (ProcId p = 0; p < procs; ++p) {
      Time& bound = bounds[static_cast<std::size_t>(p)];
      bound = std::max(bound, (p == top1_proc ? top2 : top1) - shift);
    }
  }
}

void commit_whole_task(ScheduleJournal& edits, TaskId t, ProcId p,
                       Time start) {
  const TaskGraph& graph = edits.schedule().graph();
  const Task& task = graph.task(t);
  edits.set_first_start(t, start);
  const InstanceIdx n = graph.instance_count(t);
  for (InstanceIdx k = 0; k < n; ++k) edits.assign(TaskInstance{t, k}, p);
  // Every caller commits a start that earliest_fit() just proved free, so
  // the journal's unchecked add skips the conflict re-query on the
  // scheduler and online-repair hot paths; debug builds still verify.
  for (InstanceIdx k = 0; k < n; ++k) {
    edits.add(p, start + task.period * static_cast<Time>(k), task.wcet,
              TaskInstance{t, k});
  }
}

namespace {

struct Candidate {
  ProcId proc;
  Time start;
};

/// Earliest feasible placement of whole task \p t on a processor whose
/// precedence lower bound is \p lb.
std::optional<Time> earliest_on(const TaskGraph& graph,
                                const ProcTimeline& timeline, TaskId t,
                                Time lb) {
  const Task& task = graph.task(t);
  return timeline.earliest_fit(lb, task.period, task.wcet,
                               graph.instance_count(t));
}

/// Round-robin processor per period class, in increasing period order
/// (reproduces the paper's Figure 3 grouping: {a}->P1, {b,c}->P2,
/// {d,e}->P3).
std::map<Time, ProcId> cluster_assignment(const TaskGraph& graph,
                                          const Architecture& arch) {
  std::map<Time, ProcId> cluster_of_period;
  for (const auto& task : graph.tasks()) {
    cluster_of_period.emplace(task.period, kNoProc);
  }
  ProcId next = 0;
  for (auto& [period, proc] : cluster_of_period) {
    proc = next;
    next = static_cast<ProcId>((next + 1) % arch.processor_count());
  }
  return cluster_of_period;
}

}  // namespace

Schedule build_initial_schedule(const TaskGraph& graph,
                                const Architecture& arch,
                                const CommModel& comm,
                                const SchedulerOptions& options) {
  LBMEM_REQUIRE(graph.frozen(), "graph must be frozen");
  Schedule sched(graph, arch, comm);
  std::vector<ProcTimeline> timelines(
      static_cast<std::size_t>(arch.processor_count()),
      ProcTimeline(graph.hyperperiod()));
  ScheduleJournal edits(sched, timelines, /*record=*/false);

  const std::map<Time, ProcId> clusters =
      options.policy == PlacementPolicy::PeriodCluster
          ? cluster_assignment(graph, arch)
          : std::map<Time, ProcId>{};

  std::vector<Time> bounds;
  for (const TaskId t : graph.topological_order()) {
    std::optional<Candidate> chosen;
    precedence_lower_bounds(sched, t, bounds);

    if (options.policy == PlacementPolicy::PeriodCluster) {
      const ProcId home = clusters.at(graph.task(t).period);
      if (const auto s =
              earliest_on(graph, timelines[static_cast<std::size_t>(home)],
                          t, bounds[static_cast<std::size_t>(home)])) {
        chosen = Candidate{home, *s};
      }
    }

    if (!chosen) {
      // MinStartTime policy, or cluster fallback: earliest over all
      // processors; ties broken by lower memory load, then index.
      for (ProcId p = 0; p < arch.processor_count(); ++p) {
        const auto s =
            earliest_on(graph, timelines[static_cast<std::size_t>(p)], t,
                        bounds[static_cast<std::size_t>(p)]);
        if (!s) continue;
        if (!chosen || *s < chosen->start ||
            (*s == chosen->start &&
             sched.memory_on(p) < sched.memory_on(chosen->proc))) {
          chosen = Candidate{p, *s};
        }
      }
    }

    if (!chosen) {
      throw ScheduleError(
          "unschedulable: no feasible strict-periodic start for task " +
          graph.task(t).name);
    }
    commit_whole_task(edits, t, chosen->proc, chosen->start);
  }
  return sched;
}

Schedule build_forced_schedule(const TaskGraph& graph,
                               const Architecture& arch, const CommModel& comm,
                               const std::vector<ProcId>& assignment) {
  LBMEM_REQUIRE(graph.frozen(), "graph must be frozen");
  LBMEM_REQUIRE(assignment.size() == graph.task_count(),
                "assignment must cover every task");
  Schedule sched(graph, arch, comm);
  std::vector<ProcTimeline> timelines(
      static_cast<std::size_t>(arch.processor_count()),
      ProcTimeline(graph.hyperperiod()));
  ScheduleJournal edits(sched, timelines, /*record=*/false);
  std::vector<Time> bounds;
  for (const TaskId t : graph.topological_order()) {
    const ProcId p = assignment[static_cast<std::size_t>(t)];
    LBMEM_REQUIRE(p >= 0 && p < arch.processor_count(),
                  "assignment references an unknown processor");
    precedence_lower_bounds(sched, t, bounds);
    const auto s = earliest_on(graph, timelines[static_cast<std::size_t>(p)],
                               t, bounds[static_cast<std::size_t>(p)]);
    if (!s) {
      throw ScheduleError("forced assignment unschedulable at task " +
                          graph.task(t).name);
    }
    commit_whole_task(edits, t, p, *s);
  }
  return sched;
}

}  // namespace lbmem
