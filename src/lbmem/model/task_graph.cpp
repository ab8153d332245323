#include "lbmem/model/task_graph.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <string_view>

#include "lbmem/util/check.hpp"
#include "lbmem/util/math.hpp"

namespace lbmem {

namespace {

/// CSR adjacency of \p deps keyed by \p end (producer or consumer): a
/// counting sort in edge order, so each task's edge ids come out
/// ascending.
void build_csr(std::span<const Dependence> deps, std::size_t n,
               TaskId Dependence::*end, std::vector<std::int32_t>& offsets,
               std::vector<std::int32_t>& ids) {
  offsets.assign(n + 1, 0);
  for (const Dependence& d : deps) {
    ++offsets[static_cast<std::size_t>(d.*end)];
  }
  // Inclusive prefix sums leave offsets[t] at the end of t's slice; filling
  // the slices back to front with descending ids then leaves it at the
  // start, with each slice ascending.
  for (std::size_t t = 1; t <= n; ++t) offsets[t] += offsets[t - 1];
  ids.resize(deps.size());
  for (std::size_t e = deps.size(); e-- > 0;) {
    ids[static_cast<std::size_t>(
        --offsets[static_cast<std::size_t>(deps[e].*end)])] =
        static_cast<std::int32_t>(e);
  }
}

std::size_t name_hash(std::string_view name) {
  return std::hash<std::string_view>{}(name);
}

/// Empty slot \p i of the name table \p slots, whose ids name tasks of
/// \p tasks. Each later entry of the cluster moves back into the hole
/// unless its home slot lies cyclically in (hole, entry], so every probe
/// chain stays unbroken and no tombstone is left.
void erase_name_slot(std::vector<TaskId>& slots, std::span<const Task> tasks,
                     std::size_t i) {
  const std::size_t mask = slots.size() - 1;
  for (std::size_t j = (i + 1) & mask; slots[j] >= 0; j = (j + 1) & mask) {
    const std::size_t home =
        name_hash(tasks[static_cast<std::size_t>(slots[j])].name) & mask;
    if (((j - home) & mask) >= ((j - i) & mask)) {
      slots[i] = slots[j];
      i = j;
    }
  }
  slots[i] = -1;
}

}  // namespace

std::size_t TaskGraph::name_slot(const std::string& name,
                                 std::size_t hash) const {
  const std::size_t mask = name_slots_.size() - 1;
  std::size_t i = hash & mask;
  while (name_slots_[i] >= 0 &&
         tasks_[static_cast<std::size_t>(name_slots_[i])].name != name) {
    i = (i + 1) & mask;
  }
  return i;
}

void TaskGraph::grow_name_index() {
  std::vector<TaskId> slots(std::max<std::size_t>(8, 2 * name_slots_.size()),
                            -1);
  const std::size_t mask = slots.size() - 1;
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    std::size_t i = name_hash(tasks_[t].name) & mask;
    while (slots[i] >= 0) i = (i + 1) & mask;
    slots[i] = static_cast<TaskId>(t);
  }
  name_slots_.swap(slots);
}

TaskId TaskGraph::add_task(Task task) {
  require_mutable("add_task");
  if (task.name.empty()) {
    throw ModelError("task name must not be empty");
  }
  const std::size_t hash = name_hash(task.name);
  if (!name_slots_.empty() && name_slots_[name_slot(task.name, hash)] >= 0) {
    throw ModelError("duplicate task name: " + task.name);
  }
  if (task.period <= 0) {
    throw ModelError("task " + task.name + ": period must be positive");
  }
  if (task.wcet <= 0) {
    throw ModelError("task " + task.name + ": wcet must be positive");
  }
  if (task.wcet > task.period) {
    throw ModelError("task " + task.name +
                     ": wcet exceeds period (non-preemptive strict "
                     "periodicity requires E <= T)");
  }
  if (task.memory < 0) {
    throw ModelError("task " + task.name + ": memory must be non-negative");
  }
  // Grow first and fill the slot last: a throwing allocation leaves the
  // tasks and the index in agreement.
  if (2 * (tasks_.size() + 1) > name_slots_.size()) grow_name_index();
  const std::size_t slot = name_slot(task.name, hash);
  tasks_.push_back(std::move(task));
  name_slots_[slot] = static_cast<TaskId>(tasks_.size() - 1);
  return static_cast<TaskId>(tasks_.size() - 1);
}

TaskId TaskGraph::add_task(std::string name, Time period, Time wcet,
                           Mem memory) {
  return add_task(Task{std::move(name), period, wcet, memory});
}

void TaskGraph::set_wcet(TaskId id, Time wcet) {
  LBMEM_REQUIRE(id >= 0 && id < static_cast<TaskId>(tasks_.size()),
                "task id out of range");
  Task& task = tasks_[static_cast<std::size_t>(id)];
  if (wcet <= 0) {
    throw ModelError("task " + task.name + ": wcet must be positive");
  }
  if (wcet > task.period) {
    throw ModelError("task " + task.name +
                     ": wcet must not exceed the period");
  }
  task.wcet = wcet;
}

void TaskGraph::add_dependence(TaskId producer, TaskId consumer,
                               Mem data_size) {
  require_mutable("add_dependence");
  const auto n = static_cast<TaskId>(tasks_.size());
  if (producer < 0 || producer >= n || consumer < 0 || consumer >= n) {
    throw ModelError("dependence references unknown task id");
  }
  if (producer == consumer) {
    throw ModelError("self-dependence on task " + tasks_[static_cast<std::size_t>(producer)].name);
  }
  if (data_size <= 0) {
    throw ModelError("dependence data_size must be positive");
  }
  // A duplicate can only be among the consumer's own in-edges.
  if (in_head_.size() < tasks_.size()) in_head_.resize(tasks_.size(), -1);
  const auto c = static_cast<std::size_t>(consumer);
  for (std::int32_t e = in_head_[c]; e >= 0;
       e = in_next_[static_cast<std::size_t>(e)]) {
    if (deps_[static_cast<std::size_t>(e)].producer == producer) {
      throw ModelError("duplicate dependence " +
                       tasks_[static_cast<std::size_t>(producer)].name + " -> " +
                       tasks_[c].name);
    }
  }
  const Time tp = tasks_[static_cast<std::size_t>(producer)].period;
  const Time tc = tasks_[static_cast<std::size_t>(consumer)].period;
  if (tp % tc != 0 && tc % tp != 0) {
    throw ModelError("dependent tasks must have harmonic periods (paper "
                     "Sections 3.1/4): " +
                     tasks_[static_cast<std::size_t>(producer)].name + " (T=" +
                     std::to_string(tp) + ") -> " +
                     tasks_[static_cast<std::size_t>(consumer)].name + " (T=" +
                     std::to_string(tc) + ")");
  }
  deps_.push_back(Dependence{producer, consumer, data_size});
  try {
    in_next_.push_back(in_head_[c]);
  } catch (...) {
    deps_.pop_back();  // the edge list and the edges stay in agreement
    throw;
  }
  in_head_[c] = static_cast<std::int32_t>(deps_.size() - 1);
}

void TaskGraph::freeze() {
  require_mutable("freeze");
  if (tasks_.empty()) {
    throw ModelError("task graph has no tasks");
  }

  // Hyper-period.
  std::vector<std::int64_t> periods;
  periods.reserve(tasks_.size());
  for (const auto& t : tasks_) periods.push_back(t.period);
  hyperperiod_ = lcm_all(periods);

  // Adjacency (CSR).
  const std::size_t n = tasks_.size();
  build_csr(deps_, n, &Dependence::consumer, in_offsets_, in_ids_);
  build_csr(deps_, n, &Dependence::producer, out_offsets_, out_ids_);

  // Kahn topological sort, smallest ready id first; detects cycles. The
  // scan finds the ready ids at or past it; the heap holds those released
  // behind it. Every heap entry is below the scan, so the heap top, when
  // there is one, is the smallest ready id.
  std::vector<std::int32_t> indegree(n);
  for (std::size_t t = 0; t < n; ++t) {
    indegree[t] = in_offsets_[t + 1] - in_offsets_[t];
  }
  std::priority_queue<TaskId, std::vector<TaskId>, std::greater<>> behind;
  std::size_t scan = 0;
  topo_order_.clear();
  topo_order_.reserve(n);
  while (true) {
    TaskId t = 0;
    if (!behind.empty()) {
      t = behind.top();
      behind.pop();
    } else {
      while (scan < n && indegree[scan] != 0) ++scan;
      if (scan == n) break;
      t = static_cast<TaskId>(scan++);
    }
    topo_order_.push_back(t);
    for (const std::int32_t e : edge_span(out_offsets_, out_ids_, t)) {
      const TaskId c = deps_[static_cast<std::size_t>(e)].consumer;
      if (--indegree[static_cast<std::size_t>(c)] == 0 &&
          static_cast<std::size_t>(c) < scan) {
        behind.push(c);
      }
    }
  }
  if (topo_order_.size() != n) {
    throw ModelError("task graph contains a dependence cycle");
  }
  topo_rank_.resize(tasks_.size());
  for (std::size_t i = 0; i < topo_order_.size(); ++i) {
    topo_rank_[static_cast<std::size_t>(topo_order_[i])] =
        static_cast<std::int32_t>(i);
  }

  // CSR offsets of the instance counts (H / period), cached so hot paths
  // never divide or re-derive the dense instance enumeration.
  instance_base_.resize(tasks_.size() + 1);
  instance_base_[0] = 0;
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    // Trace text is untrusted: a period coprime to the rest can blow H up
    // past what one task's instances can be numbered with, or past what
    // any occupancy can hold.
    const Time count = hyperperiod_ / tasks_[t].period;
    if (count > std::numeric_limits<InstanceIdx>::max()) {
      throw ModelError("task " + tasks_[t].name + ": " +
                       std::to_string(count) +
                       " instances per hyper-period overflow the instance "
                       "index");
    }
    const std::size_t end = instance_base_[t] + static_cast<std::size_t>(count);
    if (end > kMaxTotalInstances) {
      throw ModelError("task " + tasks_[t].name + ": the hyper-period of " +
                       std::to_string(hyperperiod_) + " expands the graph "
                       "past " + std::to_string(kMaxTotalInstances) +
                       " instances");
    }
    instance_base_[t + 1] = static_cast<std::uint32_t>(end);
  }
  total_instances_ = instance_base_.back();
  // Frozen, the graph takes no more edges: release the duplicate check's
  // in-edge lists (the CSR adjacency serves every read).
  std::vector<std::int32_t>().swap(in_head_);
  std::vector<std::int32_t>().swap(in_next_);
  frozen_ = true;
}

TaskGraph TaskGraph::without(std::span<const TaskId> drop,
                             std::vector<TaskId>& remap) const {
  require_frozen("without");
  remap.assign(tasks_.size(), 0);
  for (const TaskId t : drop) {
    LBMEM_REQUIRE(t >= 0 && t < static_cast<TaskId>(tasks_.size()),
                  "task id out of range");
    remap[static_cast<std::size_t>(t)] = -1;
  }
  TaskGraph out;
  // The name index carries over: each dropped name leaves its slot
  // (probing by id from its home, shifting its cluster back with this
  // graph's names), then every survivor's id follows the remap.
  out.name_slots_ = name_slots_;
  const std::size_t mask = out.name_slots_.size() - 1;
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    if (remap[t] < 0) {
      std::size_t i = name_hash(tasks_[t].name) & mask;
      while (out.name_slots_[i] != static_cast<TaskId>(t)) i = (i + 1) & mask;
      erase_name_slot(out.name_slots_, tasks_, i);
      continue;
    }
    remap[t] = static_cast<TaskId>(out.tasks_.size());
    out.tasks_.push_back(tasks_[t]);
  }
  for (TaskId& id : out.name_slots_) {
    if (id >= 0) id = remap[static_cast<std::size_t>(id)];
  }
  // The copy is open to add_dependence: rebuild its in-edge lists.
  out.in_head_.assign(out.tasks_.size(), -1);
  for (const Dependence& d : deps_) {
    const TaskId p = remap[static_cast<std::size_t>(d.producer)];
    const TaskId c = remap[static_cast<std::size_t>(d.consumer)];
    if (p < 0 || c < 0) continue;
    std::int32_t& head = out.in_head_[static_cast<std::size_t>(c)];
    out.in_next_.push_back(head);
    head = static_cast<std::int32_t>(out.deps_.size());
    out.deps_.push_back(Dependence{p, c, d.data_size});
  }
  return out;
}

TaskId TaskGraph::find(const std::string& name) const {
  const TaskId t = try_find(name);
  if (t < 0) throw ModelError("no task named " + name);
  return t;
}

TaskId TaskGraph::try_find(const std::string& name) const {
  if (name_slots_.empty()) return -1;
  return name_slots_[name_slot(name, name_hash(name))];
}

std::span<const TaskId> TaskGraph::topological_order() const {
  require_frozen("topological_order");
  return topo_order_;
}

double TaskGraph::utilization() const {
  double u = 0.0;
  for (const auto& t : tasks_) {
    u += static_cast<double>(t.wcet) / static_cast<double>(t.period);
  }
  return u;
}

void TaskGraph::throw_not_frozen(const char* what) {
  throw PreconditionError(std::string(what) +
                          " requires a frozen TaskGraph (call freeze())");
}

void TaskGraph::require_mutable(const char* what) const {
  if (frozen_) {
    throw PreconditionError(std::string(what) +
                            " not allowed after freeze()");
  }
}

}  // namespace lbmem
