#include "lbmem/sched/journal.hpp"

#include <algorithm>

#include "lbmem/util/check.hpp"

namespace lbmem {

std::vector<ProcTimeline> build_occupancy(const Schedule& sched) {
  const TaskGraph& graph = sched.graph();
  const auto procs =
      static_cast<std::size_t>(sched.architecture().processor_count());
  const auto tasks = static_cast<TaskId>(graph.task_count());
  // Gather the placed instances' intervals by processor (a counting sort:
  // one pass counts, one places), then build each timeline in one pass
  // (DESIGN.md F40).
  std::vector<std::size_t> next(procs + 1, 0);
  for (TaskId t = 0; t < tasks; ++t) {
    for (InstanceIdx k = 0; k < graph.instance_count(t); ++k) {
      const ProcId p = sched.proc(TaskInstance{t, k});
      if (p != kNoProc) ++next[static_cast<std::size_t>(p) + 1];
    }
  }
  for (std::size_t p = 1; p <= procs; ++p) next[p] += next[p - 1];
  std::vector<ProcTimeline::Interval> intervals(next[procs]);
  for (TaskId t = 0; t < tasks; ++t) {
    const Time wcet = graph.task(t).wcet;
    for (InstanceIdx k = 0; k < graph.instance_count(t); ++k) {
      const TaskInstance inst{t, k};
      const ProcId p = sched.proc(inst);
      if (p == kNoProc) continue;
      intervals[next[static_cast<std::size_t>(p)]++] =
          ProcTimeline::Interval{sched.start(inst), wcet, inst};
    }
  }
  // next[p] now ends processor p's run of intervals, and begins p+1's.
  std::vector<ProcTimeline> occ;
  occ.reserve(procs);
  std::size_t begin = 0;
  for (std::size_t p = 0; p < procs; ++p) {
    occ.emplace_back(graph.hyperperiod(),
                     std::span<const ProcTimeline::Interval>(
                         intervals.data() + begin, next[p] - begin));
    begin = next[p];
  }
  return occ;
}

ScheduleJournal::ScheduleJournal(Schedule& sched,
                                 std::vector<ProcTimeline>& occupancy,
                                 bool record)
    : sched_(&sched), occ_(&occupancy), record_(record) {}

void ScheduleJournal::assign(TaskInstance inst, ProcId p) {
  if (record_) {
    const ProcId old = sched_->proc(inst);
    if (old == p) return;
    log_.push_back(Entry{Kind::Assign, old, inst, 0, 0});
  }
  sched_->assign(inst, p);
}

void ScheduleJournal::set_first_start(TaskId t, Time start) {
  if (record_) {
    const Time old = sched_->raw_first_start(t);
    if (old == start) return;
    log_.push_back(Entry{Kind::FirstStart, kNoProc, TaskInstance{t, 0}, old,
                         0});
  }
  sched_->set_first_start(t, start);
}

void ScheduleJournal::add(ProcId p, Time start, Time len, TaskInstance owner) {
  ProcTimeline& timeline = (*occ_)[static_cast<std::size_t>(p)];
  if (record_) log_.push_back(Entry{Kind::Add, p, owner, start, 0});
  try {
    timeline.add_unchecked(start, len, owner);
  } catch (...) {
    if (record_) log_.pop_back();  // the add changed nothing
    throw;
  }
}

void ScheduleJournal::remove(ProcId p, TaskInstance owner, Time start) {
  ProcTimeline& timeline = (*occ_)[static_cast<std::size_t>(p)];
  if (!record_) {
    timeline.remove(owner, start);
    return;
  }
  // Reserve the entry first, so that the removal cannot outlive a failed
  // log append.
  log_.push_back(Entry{Kind::Remove, p, owner, 0, 0});
  ProcTimeline::Released released;
  try {
    released = timeline.remove(owner, start);
  } catch (...) {
    log_.pop_back();  // the remove changed nothing
    throw;
  }
  if (released.len == 0) {
    log_.pop_back();
    return;
  }
  log_.back().a = released.start;
  log_.back().b = released.len;
}

void ScheduleJournal::set_wcet(TaskGraph& graph, TaskId t, Time wcet) {
  LBMEM_REQUIRE(&graph == &sched_->graph(),
                "set_wcet needs the schedule's own graph");
  LBMEM_REQUIRE(graph_ == nullptr || graph_ == &graph,
                "one journal edits one graph");
  const Time old = graph.task(t).wcet;
  if (record_) {
    log_.push_back(Entry{Kind::Wcet, kNoProc, TaskInstance{t, 0}, old, 0});
    graph_ = &graph;
  }
  try {
    graph.set_wcet(t, wcet);
  } catch (...) {
    if (record_) log_.pop_back();  // rejected: the graph is unchanged
    throw;
  }
  sched_->wcet_changed(t, old);
}

void ScheduleJournal::undo(const Entry& e) noexcept {
  switch (e.kind) {
    case Kind::Assign:
      sched_->write_proc(sched_->slot(e.inst), e.inst.task, e.proc);
      break;
    case Kind::FirstStart:
      sched_->write_first_start(e.inst.task, e.a);
      break;
    case Kind::Add:
      (*occ_)[static_cast<std::size_t>(e.proc)].remove(e.inst, e.a);
      break;
    case Kind::Remove:
      (*occ_)[static_cast<std::size_t>(e.proc)].restore(
          e.inst, ProcTimeline::Released{e.a, e.b});
      break;
    case Kind::Wcet: {
      const Time current = graph_->task(e.inst.task).wcet;
      graph_->set_wcet(e.inst.task, e.a);
      sched_->wcet_changed(e.inst.task, current);
      break;
    }
  }
}

void ScheduleJournal::rollback(Mark m) noexcept {
  while (log_.size() > m) {
    undo(log_.back());
    log_.pop_back();
  }
}

int ScheduleJournal::migrations() const {
  // The first Assign entry of an instance holds its processor before any
  // journaled edit (kNoProc: not placed before, so not a migration);
  // compare it with the current one.
  struct First {
    std::size_t dense;
    std::size_t order;
    TaskInstance inst;
    ProcId proc;
  };
  std::vector<First> firsts;
  const TaskGraph& graph = sched_->graph();
  for (std::size_t i = 0; i < log_.size(); ++i) {
    const Entry& e = log_[i];
    if (e.kind != Kind::Assign) continue;
    firsts.push_back(First{graph.dense_index(e.inst), i, e.inst, e.proc});
  }
  std::sort(firsts.begin(), firsts.end(), [](const First& a, const First& b) {
    return a.dense != b.dense ? a.dense < b.dense : a.order < b.order;
  });
  int migrations = 0;
  for (std::size_t i = 0; i < firsts.size(); ++i) {
    if (i > 0 && firsts[i].dense == firsts[i - 1].dense) continue;
    if (firsts[i].proc != kNoProc &&
        sched_->proc(firsts[i].inst) != firsts[i].proc) {
      ++migrations;
    }
  }
  return migrations;
}

}  // namespace lbmem
