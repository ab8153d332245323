#pragma once
/// \file schedule.hpp
/// \brief A distributed strict-periodic schedule: first-instance start time
/// per task plus a processor assignment per instance.
///
/// Strict periodicity is global (DESIGN.md Section 6): instance k of task t
/// starts at first_start(t) + k*T(t) no matter which processor executes it —
/// the paper's worked example moves instance a2 to P2 while keeping its
/// start time 3. The load balancer therefore mutates two things only:
/// per-instance processor assignments, and (when a first-category block
/// gains time) a task's first-instance start.

#include <span>
#include <vector>

#include "lbmem/arch/architecture.hpp"
#include "lbmem/arch/comm_model.hpp"
#include "lbmem/model/task_graph.hpp"
#include "lbmem/model/types.hpp"
#include "lbmem/util/check.hpp"

namespace lbmem {

/// Placement and timing of every task instance over one hyper-period.
///
/// The referenced TaskGraph must outlive the Schedule. Schedules are
/// value types (copyable) so the load balancer can work on a copy and fall
/// back to the original.
class Schedule {
 public:
  /// Create an empty schedule (no starts, no assignments).
  Schedule(const TaskGraph& graph, Architecture arch, CommModel comm);

  const TaskGraph& graph() const { return *graph_; }
  const Architecture& architecture() const { return arch_; }
  const CommModel& comm() const { return comm_; }

  // ---- mutation -----------------------------------------------------------

  /// Set the start time of the first instance of \p t (>= 0).
  void set_first_start(TaskId t, Time start);

  /// Assign instance (t, k) to processor \p p.
  void assign(TaskInstance inst, ProcId p);

  /// Assign every instance of \p t to \p p (initial whole-task placement).
  void assign_all(TaskId t, ProcId p);

  /// Correct busy_on and the makespan after TaskGraph::set_wcet changed the
  /// WCET of \p t from \p old_wcet: assign() accumulates busy time with the
  /// WCET current at assignment time, so only t's placed instances are
  /// stale. O(instances of t).
  void wcet_changed(TaskId t, Time old_wcet);

  // ---- timing queries (inline: the balancer's innermost reads) -----------

  /// True once every task has a start and every instance a processor. O(1).
  bool complete() const {
    return unset_starts_ == 0 && unassigned_instances_ == 0;
  }

  Time first_start(TaskId t) const {
    LBMEM_REQUIRE(t >= 0 && t < static_cast<TaskId>(graph_->task_count()),
                  "task id out of range");
    const Time s = first_start_[static_cast<std::size_t>(t)];
    LBMEM_REQUIRE(s >= 0, "task has no start time yet");
    return s;
  }
  Time start(TaskInstance inst) const {
    return first_start(inst.task) +
           graph_->task(inst.task).period * static_cast<Time>(inst.k);
  }
  Time end(TaskInstance inst) const {
    return start(inst) + graph_->task(inst.task).wcet;
  }
  ProcId proc(TaskInstance inst) const { return instance_proc_[slot(inst)]; }

  /// Completion time of the last instance — the paper's "total execution
  /// time" (makespan). Requires every task's start. O(N/64): a fold over
  /// the per-chunk maxima set_first_start() and wcet_changed() maintain
  /// (DESIGN.md F38).
  Time makespan() const;

  /// Earliest time instance \p inst could begin on processor \p p given the
  /// current placement of its producers: max over dependences and consumed
  /// producer instances of end(producer) + C (C = 0 when the producer runs
  /// on \p p, else CommModel::transfer_time of the edge's data size).
  Time data_ready(TaskInstance inst, ProcId p) const;

  // ---- memory & distribution queries --------------------------------------

  /// Sum of required memory of instances assigned to \p p (paper counts
  /// each resident instance: P1 holding four instances of a costs 4*m_a).
  /// O(1): maintained incrementally by assign().
  Mem memory_on(ProcId p) const {
    LBMEM_REQUIRE(p >= 0 && p < arch_.processor_count(),
                  "processor id out of range");
    return mem_on_[static_cast<std::size_t>(p)];
  }

  /// Instances currently assigned to \p p, sorted by start time.
  std::vector<TaskInstance> instances_on(ProcId p) const;

  /// All instances of all tasks (every k of every task).
  std::vector<TaskInstance> all_instances() const;

  /// Busy time on \p p within one hyper-period (sum of instance WCETs).
  /// O(1): maintained incrementally by assign().
  Time busy_on(ProcId p) const {
    LBMEM_REQUIRE(p >= 0 && p < arch_.processor_count(),
                  "processor id out of range");
    return busy_time_on_[static_cast<std::size_t>(p)];
  }

  /// Fraction of [0, H) processor \p p is idle in steady state.
  double idle_fraction(ProcId p) const;

  /// Largest per-processor memory (the paper's ω for Theorem 2). O(M).
  Mem max_memory() const;

 private:
  friend class ScheduleJournal;

  // ---- unchecked writes: assign() and set_first_start() after their checks,
  // and ScheduleJournal's undo (DESIGN.md F36). They also write back the
  // unplaced values (kNoProc, -1) that a first placement overwrote, keeping
  // complete(), memory_on/busy_on and the makespan chunks exact, and cannot
  // throw for an instance slot or a task of the graph.

  /// t's first start, or -1 while unset.
  Time raw_first_start(TaskId t) const {
    LBMEM_REQUIRE(t >= 0 && t < static_cast<TaskId>(graph_->task_count()),
                  "task id out of range");
    return first_start_[static_cast<std::size_t>(t)];
  }
  /// Instance slot \p i (of task \p t) now runs on \p p.
  void write_proc(std::size_t i, TaskId t, ProcId p) noexcept;
  void write_first_start(TaskId t, Time start) noexcept;

  /// Dense index of (t, k) into instance_proc_, with bounds checks.
  std::size_t slot(TaskInstance inst) const {
    return graph_->dense_index(inst);
  }

  /// Task ids per makespan chunk (DESIGN.md F38).
  static constexpr std::size_t kChunk = 64;
  /// Distance from t's first start to the end of its last instance.
  Time last_end_offset(TaskId t) const {
    return graph_->task(t).period *
               static_cast<Time>(graph_->instance_count(t) - 1) +
           graph_->task(t).wcet;
  }
  /// Task \p t's last instance now ends at \p new_end instead of
  /// \p old_end (-1: no start before, or none after). O(1) unless t held
  /// its chunk's maximum and moved earlier; then O(kChunk). Allocates
  /// nothing.
  void last_end_moved(TaskId t, Time old_end, Time new_end);

  const TaskGraph* graph_;
  Architecture arch_;
  CommModel comm_;
  std::vector<Time> first_start_;  // per task; -1 = unset
  // CSR-style flat placement: instance (t, k) lives at
  // instance_proc_[graph_->dense_index({t, k})].
  std::vector<ProcId> instance_proc_;
  // Per-processor aggregates, kept in sync by assign(); unassigned
  // instances (kNoProc) contribute nowhere.
  std::vector<Mem> mem_on_;
  std::vector<Time> busy_time_on_;
  // Per chunk of kChunk task ids, the latest last-instance end among its
  // started tasks (0 when none): makespan() folds these.
  std::vector<Time> chunk_end_;
  std::size_t unassigned_instances_ = 0;
  std::size_t unset_starts_ = 0;
};

/// \p from's placements carried onto \p to through \p remap (from's task id
/// -> to's, -1 for none): first starts copy over and instance k takes the
/// processor of old instance k mod n_old (DESIGN.md F13); unmapped tasks of
/// \p to stay unplaced. Requires a complete \p from and to's hyper-period
/// a multiple of from's.
Schedule carry_over(const Schedule& from, const TaskGraph& to,
                    std::span<const TaskId> remap);

}  // namespace lbmem
