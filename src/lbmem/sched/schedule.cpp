#include "lbmem/sched/schedule.hpp"

#include <algorithm>

#include "lbmem/util/check.hpp"

namespace lbmem {

Schedule::Schedule(const TaskGraph& graph, Architecture arch, CommModel comm)
    : graph_(&graph), arch_(arch), comm_(comm) {
  LBMEM_REQUIRE(graph.frozen(), "Schedule requires a frozen TaskGraph");
  first_start_.assign(graph.task_count(), Time{-1});
  unset_starts_ = graph.task_count();
  instance_proc_.assign(graph.total_instances(), kNoProc);
  unassigned_instances_ = instance_proc_.size();
  mem_on_.assign(static_cast<std::size_t>(arch_.processor_count()), Mem{0});
  busy_time_on_.assign(static_cast<std::size_t>(arch_.processor_count()),
                       Time{0});
  chunk_end_.assign((graph.task_count() + kChunk - 1) / kChunk, Time{0});
}

void Schedule::set_first_start(TaskId t, Time start) {
  LBMEM_REQUIRE(t >= 0 && t < static_cast<TaskId>(graph_->task_count()),
                "task id out of range");
  LBMEM_REQUIRE(start >= 0, "start times must be non-negative");
  write_first_start(t, start);
}

void Schedule::write_first_start(TaskId t, Time start) noexcept {
  Time& slot = first_start_[static_cast<std::size_t>(t)];
  const Time offset = last_end_offset(t);
  const Time old_end = slot < 0 ? Time{-1} : slot + offset;
  if (slot < 0) --unset_starts_;
  if (start < 0) ++unset_starts_;
  slot = start;
  last_end_moved(t, old_end, start < 0 ? Time{-1} : start + offset);
}

void Schedule::last_end_moved(TaskId t, Time old_end, Time new_end) {
  const std::size_t c = static_cast<std::size_t>(t) / kChunk;
  Time& top = chunk_end_[c];
  if (new_end >= top) {
    top = new_end;
    return;
  }
  if (old_end != top) return;  // t was not the chunk's latest task
  // The chunk's latest task moved earlier: re-fold the chunk.
  top = 0;
  const std::size_t limit =
      std::min((c + 1) * kChunk, first_start_.size());
  for (std::size_t u = c * kChunk; u < limit; ++u) {
    const Time s = first_start_[u];
    if (s >= 0) {
      top = std::max(top, s + last_end_offset(static_cast<TaskId>(u)));
    }
  }
}

void Schedule::assign(TaskInstance inst, ProcId p) {
  const std::size_t i = slot(inst);
  LBMEM_REQUIRE(p >= 0 && p < arch_.processor_count(),
                "processor id out of range");
  write_proc(i, inst.task, p);
}

void Schedule::write_proc(std::size_t i, TaskId t, ProcId p) noexcept {
  const ProcId old = instance_proc_[i];
  if (old == p) return;
  const Task& task = graph_->task(t);
  if (old == kNoProc) {
    --unassigned_instances_;
  } else {
    mem_on_[static_cast<std::size_t>(old)] -= task.memory;
    busy_time_on_[static_cast<std::size_t>(old)] -= task.wcet;
  }
  if (p == kNoProc) {
    ++unassigned_instances_;
  } else {
    mem_on_[static_cast<std::size_t>(p)] += task.memory;
    busy_time_on_[static_cast<std::size_t>(p)] += task.wcet;
  }
  instance_proc_[i] = p;
}

void Schedule::assign_all(TaskId t, ProcId p) {
  const InstanceIdx n = graph_->instance_count(t);
  for (InstanceIdx k = 0; k < n; ++k) {
    assign(TaskInstance{t, k}, p);
  }
}

void Schedule::wcet_changed(TaskId t, Time old_wcet) {
  const Time delta = graph_->task(t).wcet - old_wcet;
  const std::size_t base = graph_->instance_base(t);
  const std::size_t limit = graph_->instance_base(t + 1);
  for (std::size_t i = base; i < limit; ++i) {
    const ProcId p = instance_proc_[i];
    if (p != kNoProc) busy_time_on_[static_cast<std::size_t>(p)] += delta;
  }
  const Time s = first_start_[static_cast<std::size_t>(t)];
  if (s >= 0) {
    const Time offset = last_end_offset(t);
    last_end_moved(t, s + offset - delta, s + offset);
  }
}

Time Schedule::makespan() const {
  LBMEM_REQUIRE(unset_starts_ == 0, "task has no start time yet");
  Time m = 0;
  for (const Time end : chunk_end_) m = std::max(m, end);
  return m;
}

Time Schedule::data_ready(TaskInstance inst, ProcId p) const {
  Time ready = 0;
  for (const std::int32_t e : graph_->deps_in(inst.task)) {
    const Dependence& dep =
        graph_->dependences()[static_cast<std::size_t>(e)];
    const ConsumedRange range = graph_->consumed_range(e, inst.k);
    for (InstanceIdx i = 0; i < range.count; ++i) {
      const TaskInstance producer{dep.producer, range.first + i};
      const ProcId pp = proc(producer);
      LBMEM_REQUIRE(pp != kNoProc, "producer instance not yet placed");
      const Time comm =
          (pp == p) ? Time{0} : comm_.transfer_time(dep.data_size);
      ready = std::max(ready, end(producer) + comm);
    }
  }
  return ready;
}

std::vector<TaskInstance> Schedule::instances_on(ProcId p) const {
  std::vector<TaskInstance> result;
  for (TaskId t = 0; t < static_cast<TaskId>(graph_->task_count()); ++t) {
    const std::size_t base = graph_->instance_base(t);
    const std::size_t limit = graph_->instance_base(t + 1);
    for (std::size_t i = base; i < limit; ++i) {
      if (instance_proc_[i] == p) {
        result.push_back(TaskInstance{t, static_cast<InstanceIdx>(i - base)});
      }
    }
  }
  std::sort(result.begin(), result.end(),
            [this](const TaskInstance& a, const TaskInstance& b) {
              const Time sa = start(a);
              const Time sb = start(b);
              if (sa != sb) return sa < sb;
              return a < b;
            });
  return result;
}

std::vector<TaskInstance> Schedule::all_instances() const {
  std::vector<TaskInstance> result;
  result.reserve(graph_->total_instances());
  for (TaskId t = 0; t < static_cast<TaskId>(graph_->task_count()); ++t) {
    const InstanceIdx n = graph_->instance_count(t);
    for (InstanceIdx k = 0; k < n; ++k) {
      result.push_back(TaskInstance{t, k});
    }
  }
  return result;
}

double Schedule::idle_fraction(ProcId p) const {
  return 1.0 - static_cast<double>(busy_on(p)) /
                   static_cast<double>(graph_->hyperperiod());
}

Mem Schedule::max_memory() const {
  Mem worst = 0;
  for (const Mem m : mem_on_) worst = std::max(worst, m);
  return worst;
}

Schedule carry_over(const Schedule& from, const TaskGraph& to,
                    std::span<const TaskId> remap) {
  const TaskGraph& old = from.graph();
  LBMEM_REQUIRE(from.complete(), "carry_over requires a complete schedule");
  LBMEM_REQUIRE(remap.size() == old.task_count(),
                "carry_over needs one remap entry per source task");
  LBMEM_REQUIRE(to.hyperperiod() % old.hyperperiod() == 0,
                "carry_over cannot fold onto a shorter hyper-period");
  Schedule out(to, from.architecture(), from.comm());
  for (TaskId t = 0; t < static_cast<TaskId>(remap.size()); ++t) {
    const TaskId nt = remap[static_cast<std::size_t>(t)];
    if (nt < 0) continue;
    out.set_first_start(nt, from.first_start(t));
    const InstanceIdx n_old = old.instance_count(t);
    const InstanceIdx n_new = to.instance_count(nt);
    for (InstanceIdx k = 0; k < n_new; ++k) {
      out.assign(TaskInstance{nt, k}, from.proc(TaskInstance{t, k % n_old}));
    }
  }
  return out;
}

}  // namespace lbmem
