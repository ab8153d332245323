#include "lbmem/sched/scheduler.hpp"

#include <algorithm>
#include <map>
#include <optional>

#include "lbmem/util/check.hpp"

namespace lbmem {

Time precedence_lower_bound(const Schedule& sched, TaskId t, ProcId p) {
  const TaskGraph& graph = sched.graph();
  const Time period = graph.task(t).period;
  const InstanceIdx n = graph.instance_count(t);
  Time lb = 0;
  for (InstanceIdx k = 0; k < n; ++k) {
    const Time ready = sched.data_ready(TaskInstance{t, k}, p);
    lb = std::max(lb, ready - period * static_cast<Time>(k));
  }
  return std::max<Time>(lb, 0);
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

/// Earliest feasible placement of whole task \p t on processor \p p.
std::optional<Time> earliest_on(const Schedule& sched,
                                const ProcTimeline& timeline, TaskId t,
                                ProcId p) {
  const TaskGraph& graph = sched.graph();
  const Task& task = graph.task(t);
  const Time lb = precedence_lower_bound(sched, t, p);
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

  for (const TaskId t : graph.topological_order()) {
    std::optional<Candidate> chosen;

    if (options.policy == PlacementPolicy::PeriodCluster) {
      const ProcId home = clusters.at(graph.task(t).period);
      if (const auto s = earliest_on(
              sched, timelines[static_cast<std::size_t>(home)], t, home)) {
        chosen = Candidate{home, *s};
      } else if (!options.cluster_fallback) {
        throw ScheduleError("task " + graph.task(t).name +
                            " does not fit on its period-cluster processor");
      }
    }

    if (!chosen) {
      // MinStartTime policy, or cluster fallback: earliest over all
      // processors; ties broken by lower memory load, then index.
      for (ProcId p = 0; p < arch.processor_count(); ++p) {
        const auto s =
            earliest_on(sched, timelines[static_cast<std::size_t>(p)], t, p);
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
  for (const TaskId t : graph.topological_order()) {
    const ProcId p = assignment[static_cast<std::size_t>(t)];
    LBMEM_REQUIRE(p >= 0 && p < arch.processor_count(),
                  "assignment references an unknown processor");
    const auto s =
        earliest_on(sched, timelines[static_cast<std::size_t>(p)], t, p);
    if (!s) {
      throw ScheduleError("forced assignment unschedulable at task " +
                          graph.task(t).name);
    }
    commit_whole_task(edits, t, p, *s);
  }
  return sched;
}

}  // namespace lbmem
