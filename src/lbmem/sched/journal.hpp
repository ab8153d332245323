#pragma once
/// \file journal.hpp
/// \brief In-place edits of a schedule and its all-instances occupancy,
/// with an undo log (DESIGN.md F36).
///
/// The balancer's attempts and the online engine's repairs change the live
/// state instead of a copy of it. Every change goes through a
/// ScheduleJournal, which records what the change overwrote: a processor
/// assignment, a first start (either may be the unplaced value of a first
/// placement), an occupancy piece added or removed, a WCET.
/// rollback(mark) undoes everything recorded after the mark, newest first.
/// A failed balance attempt, a widened repair retry and a rejected event
/// therefore cost what they touched, not a copy of the whole state.
///
/// rollback() cannot throw and does not allocate, so it is safe on every
/// unwinding path: each undo writes back a value the structure held before
/// (Schedule's unchecked writes fill existing slots, unplaced values
/// included), and a removed occupancy piece returns through
/// ProcTimeline::restore, which re-inserts into a bucket that kept its
/// capacity.

#include <cstdint>
#include <deque>
#include <vector>

#include "lbmem/sched/schedule.hpp"
#include "lbmem/sched/timeline.hpp"

namespace lbmem {

/// All-instances occupancy of \p sched: one timeline per processor holding
/// every placed instance's interval, each built in one pass (DESIGN.md
/// F40). Unassigned instances (a not-yet-admitted arrival) have no
/// footprint. \p sched must be overlap-free; debug builds verify it.
std::vector<ProcTimeline> build_occupancy(const Schedule& sched);

/// Undo log over a schedule and its occupancy (DESIGN.md F36).
class ScheduleJournal {
 public:
  /// Position in the log: rollback(m) restores the state mark() saw.
  using Mark = std::size_t;

  /// Journal edits of \p sched and \p occupancy (one timeline per processor
  /// mirroring \p sched, or empty when the caller keeps no occupancy). Both
  /// must outlive the journal. With \p record false edits apply directly
  /// and nothing can be undone: for state the caller throws away on
  /// failure anyway (an initial schedule under construction, the fresh
  /// state of a full re-place).
  ScheduleJournal(Schedule& sched, std::vector<ProcTimeline>& occupancy,
                  bool record = true);
  /// Rolls back every edit still in the log unless commit() ran.
  ~ScheduleJournal() { rollback(0); }
  ScheduleJournal(const ScheduleJournal&) = delete;
  ScheduleJournal& operator=(const ScheduleJournal&) = delete;

  const Schedule& schedule() const { return *sched_; }
  const std::vector<ProcTimeline>& occupancy() const { return *occ_; }

  Mark mark() const { return log_.size(); }
  /// Undo every edit recorded after \p m, newest first.
  void rollback(Mark m) noexcept;
  /// Keep every edit: empty the log.
  void commit() noexcept { log_.clear(); }

  // ---- edits (each recorded before it applies) ---------------------------

  /// Schedule::assign.
  void assign(TaskInstance inst, ProcId p);
  /// Schedule::set_first_start.
  void set_first_start(TaskId t, Time start);
  /// ProcTimeline::add_unchecked on processor \p p's timeline.
  void add(ProcId p, Time start, Time len, TaskInstance owner);
  /// ProcTimeline::remove on processor \p p's timeline: \p start is where
  /// the owner's interval begins, its schedule start (DESIGN.md F42).
  void remove(ProcId p, TaskInstance owner, Time start);
  /// TaskGraph::set_wcet on the schedule's graph (passed mutable), plus the
  /// matching Schedule::wcet_changed. Throws ModelError, changing nothing,
  /// for an invalid WCET.
  void set_wcet(TaskGraph& graph, TaskId t, Time wcet);

  /// Instances whose processor now differs from the first one the log
  /// recorded for them: the migrations of every edit since mark 0. A first
  /// placement is none.
  int migrations() const;

 private:
  enum class Kind : std::uint8_t { Assign, FirstStart, Add, Remove, Wcet };
  /// 32 bytes: a full balance() at N=8000 logs about 30k of them.
  struct Entry {
    Kind kind;
    ProcId proc;        // Assign: old processor, kNoProc if unplaced;
                        // Add/Remove: timeline
    TaskInstance inst;  // instance or owner; FirstStart/Wcet: inst.task
    Time a;  // FirstStart: old start (or -1); Wcet: old WCET;
             // Add/Remove: start
    Time b;  // Remove: length of the released interval
  };

  void undo(const Entry& e) noexcept;

  Schedule* sched_;
  std::vector<ProcTimeline>* occ_;
  TaskGraph* graph_ = nullptr;  // the mutable graph of a Wcet entry
  bool record_;
  // Chunked: appends never copy the log or hold two copies at once, and a
  // rollback only frees chunks.
  std::deque<Entry> log_;
};

}  // namespace lbmem
