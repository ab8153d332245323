#pragma once
/// \file scheduler.hpp
/// \brief The initial distributed scheduling heuristic (substitute for the
/// paper's ref [4], Kermia & Sorel PDCS'07).
///
/// The paper's load balancer runs on the output of a separate scheduler
/// that "seeks only to satisfy the dependence and strict periodicity
/// constraints". Since that scheduler is not public, we implement a
/// non-preemptive strict-periodic multiprocessor scheduler with two
/// placement policies:
///
///  * PeriodCluster — tasks are grouped by period ("the dependent tasks
///    which are at the same or multiple periods are scheduled onto the same
///    processor", paper Section 4); period groups are assigned round-robin
///    to processors in increasing period order. A task that does not fit on
///    its group's processor is placed as under MinStartTime. This policy
///    reproduces the paper's Figure 3 input schedule exactly.
///  * MinStartTime — each task (whole, all instances) is placed on the
///    processor giving its earliest feasible first start.
///
/// Both policies process tasks in topological order, compute the
/// precedence/communication lower bound for the first-instance start, and
/// find the earliest strict-periodically feasible start on the candidate
/// processor's hyper-period circle.

#include <vector>

#include "lbmem/sched/journal.hpp"
#include "lbmem/sched/schedule.hpp"
#include "lbmem/sched/timeline.hpp"

namespace lbmem {

/// Initial placement policy.
enum class PlacementPolicy {
  PeriodCluster,
  MinStartTime,
};

/// Scheduler configuration.
struct SchedulerOptions {
  PlacementPolicy policy = PlacementPolicy::PeriodCluster;
};

/// Build a complete initial schedule. Throws ScheduleError when no feasible
/// placement exists for some task under the policy.
Schedule build_initial_schedule(const TaskGraph& graph,
                                const Architecture& arch,
                                const CommModel& comm,
                                const SchedulerOptions& options = {});

/// Lower bounds on the first-instance start of \p t on every processor,
/// given producers already placed in \p sched: bounds[p] = max(0, max over
/// instances k of data_ready(t_k, p) - k*T). One pass over t's producer
/// instances (DESIGN.md F38): per instance, the top two end + C arrivals on
/// distinct processors give every processor's remote term, and a producer's
/// plain end is its own processor's colocated term. \p bounds is resized to
/// the processor count; reusing it across tasks allocates once.
void precedence_lower_bounds(const Schedule& sched, TaskId t,
                             std::vector<Time>& bounds);

/// Place whole task \p t on \p p with first start \p start through
/// \p edits: set the start, assign every instance, and occupy the
/// strict-periodic slots on the processor's timeline. The single definition
/// of the whole-task commit sequence, shared by the initial schedulers and
/// the online engine's dirty-set repair and full re-place.
void commit_whole_task(ScheduleJournal& edits, TaskId t, ProcId p,
                       Time start);

/// Build a schedule with a fixed whole-task processor assignment
/// (assignment[t] = processor of every instance of t); start times are the
/// earliest feasible under dependences and strict periodicity. Used by the
/// GA/round-robin baselines, which operate at task granularity.
/// Throws ScheduleError when the forced assignment is unschedulable.
Schedule build_forced_schedule(const TaskGraph& graph,
                               const Architecture& arch, const CommModel& comm,
                               const std::vector<ProcId>& assignment);

}  // namespace lbmem
