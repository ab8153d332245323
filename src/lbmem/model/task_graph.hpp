#pragma once
/// \file task_graph.hpp
/// \brief The validated multi-rate task graph (paper Figure 2 and
/// Section 3.1).
///
/// A TaskGraph owns the tasks and dependences of one application. It is
/// immutable after freeze(): validation establishes the invariants every
/// other module relies on (acyclicity, harmonic dependent periods,
/// positive WCETs bounded by periods), computes the hyper-period and a
/// topological order, and builds adjacency indexes. Online edits copy the
/// survivors into a new, unfrozen graph (without()).
///
/// freeze() is O(N + E) (DESIGN.md F10). The adjacency is CSR: offsets
/// plus edge-id arrays built by a counting sort in edge order, so each
/// task's deps_in/deps_out list its edge ids ascending. The topological
/// order is Kahn's with the smallest ready id first; a scan pointer walks
/// the ids upward and a min-heap holds only the tasks released behind it,
/// which stays empty when every edge points to a larger id (generated
/// graphs, arrivals appended last, removals compacted in order).
///
/// Names resolve through a flat open-addressing index (DESIGN.md F39):
/// add_task() maintains it, and without() carries it over by rewriting
/// ids, so find(), try_find() and add_task()'s duplicate check cost O(1)
/// expected at any stage of a graph's life.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "lbmem/model/task.hpp"
#include "lbmem/model/types.hpp"
#include "lbmem/util/check.hpp"

namespace lbmem {

/// Contiguous run of producer instance indices consumed by one consumer
/// instance (see TaskGraph::consumed_range).
struct ConsumedRange {
  InstanceIdx first = 0;
  InstanceIdx count = 0;
};

/// Multi-rate application graph with strict-periodic tasks.
class TaskGraph {
 public:
  TaskGraph() = default;

  /// Add a task; returns its dense id. Throws ModelError on duplicate name
  /// or non-positive period/WCET, wcet > period, or negative memory.
  TaskId add_task(Task task);

  /// Convenience overload.
  TaskId add_task(std::string name, Time period, Time wcet, Mem memory);

  /// Add a dependence edge. Ids must exist; periods must be harmonic
  /// (one divides the other); self-loops and duplicate edges rejected. The
  /// duplicate check walks the consumer's in-edges only: O(in-degree).
  void add_dependence(TaskId producer, TaskId consumer, Mem data_size = 1);

  /// Validate global invariants (DAG) and build derived data. Must be
  /// called once after construction; mutating calls afterwards throw.
  /// Throws ModelError, naming the task, when a task's instance count
  /// H / period exceeds InstanceIdx or the total instance count exceeds
  /// kMaxTotalInstances.
  void freeze();

  /// Update a task's WCET after freeze() — the one structural mutation the
  /// online engine needs (WcetChange events). Legal because nothing derived
  /// at freeze time depends on WCETs (hyper-period, instance counts,
  /// adjacency and topological order all come from periods and edges).
  /// Revalidates 0 < wcet <= period. Schedules referencing this graph keep
  /// incrementally-maintained busy aggregates; callers must correct them
  /// with Schedule::wcet_changed() (ScheduleJournal::set_wcet does both).
  void set_wcet(TaskId id, Time wcet);

  /// This graph minus the tasks in \p drop and the dependences touching
  /// them; survivors keep their order with ids compacted, and \p remap gets
  /// old id -> new id (-1 if dropped). Requires a frozen source; the result
  /// is unfrozen (open to add_task/add_dependence) and is not re-checked:
  /// the survivors of a valid graph are valid.
  TaskGraph without(std::span<const TaskId> drop,
                    std::vector<TaskId>& remap) const;

  /// True once freeze() has completed successfully.
  bool frozen() const { return frozen_; }

  // ---- introspection (valid after freeze) --------------------------------

  std::size_t task_count() const { return tasks_.size(); }
  std::size_t dependence_count() const { return deps_.size(); }

  /// Inline with a bounds check only: the balancer reads task shapes tens
  /// of millions of times per run.
  const Task& task(TaskId id) const {
    LBMEM_REQUIRE(id >= 0 && id < static_cast<TaskId>(tasks_.size()),
                  "task id out of range");
    return tasks_[static_cast<std::size_t>(id)];
  }
  std::span<const Task> tasks() const { return tasks_; }
  std::span<const Dependence> dependences() const { return deps_; }

  /// Find a task id by name; throws ModelError if absent.
  TaskId find(const std::string& name) const;
  /// Task id by name, or -1 if absent. O(1) expected: one hash and a short
  /// probe of the name index; allocation-free.
  TaskId try_find(const std::string& name) const;

  /// Hyper-period H = lcm of all task periods (paper Section 3.1, ref [13]).
  Time hyperperiod() const {
    require_frozen("hyperperiod");
    return hyperperiod_;
  }

  /// Number of instances of \p id within one hyper-period (H / period):
  /// the width of its slice of the cached CSR offsets, so no division on
  /// the hot path.
  InstanceIdx instance_count(TaskId id) const {
    require_frozen("instance_count");
    LBMEM_REQUIRE(id >= 0 && id < static_cast<TaskId>(tasks_.size()),
                  "task id out of range");
    const auto t = static_cast<std::size_t>(id);
    return static_cast<InstanceIdx>(instance_base_[t + 1] - instance_base_[t]);
  }

  /// Total instances across all tasks within one hyper-period.
  std::size_t total_instances() const {
    require_frozen("total_instances");
    return total_instances_;
  }

  /// Offset of task \p id's instances in the dense (CSR) instance
  /// enumeration: instance (t, k) has dense index instance_base(t) + k, and
  /// task t's slice is [instance_base(t), instance_base(t+1)). Cached at
  /// freeze(); the single source of the mapping used by Schedule and the
  /// balancer's flat per-instance tables.
  std::size_t instance_base(TaskId id) const {
    require_frozen("instance_base");
    LBMEM_REQUIRE(id >= 0 && id <= static_cast<TaskId>(tasks_.size()),
                  "task id out of range");
    return instance_base_[static_cast<std::size_t>(id)];
  }

  /// Dense index of instance (t, k), bounds-checked.
  std::size_t dense_index(TaskInstance inst) const {
    require_frozen("dense_index");
    LBMEM_REQUIRE(inst.task >= 0 &&
                      inst.task < static_cast<TaskId>(tasks_.size()),
                  "task id out of range");
    const auto t = static_cast<std::size_t>(inst.task);
    LBMEM_REQUIRE(inst.k >= 0 && static_cast<std::uint32_t>(inst.k) <
                                     instance_base_[t + 1] - instance_base_[t],
                  "instance index out of range");
    return instance_base_[t] + static_cast<std::size_t>(inst.k);
  }

  /// Dependences entering \p consumer (indices into dependences()),
  /// ascending.
  std::span<const std::int32_t> deps_in(TaskId consumer) const {
    require_frozen("deps_in");
    LBMEM_REQUIRE(consumer >= 0 &&
                      consumer < static_cast<TaskId>(tasks_.size()),
                  "task id out of range");
    return edge_span(in_offsets_, in_ids_, consumer);
  }

  /// Dependences leaving \p producer (indices into dependences()),
  /// ascending.
  std::span<const std::int32_t> deps_out(TaskId producer) const {
    require_frozen("deps_out");
    LBMEM_REQUIRE(producer >= 0 &&
                      producer < static_cast<TaskId>(tasks_.size()),
                  "task id out of range");
    return edge_span(out_offsets_, out_ids_, producer);
  }

  /// A topological order of task ids (producers before consumers).
  std::span<const TaskId> topological_order() const;

  /// Position of \p id in topological_order().
  std::int32_t topological_rank(TaskId id) const {
    require_frozen("topological_rank");
    LBMEM_REQUIRE(id >= 0 && id < static_cast<TaskId>(tasks_.size()),
                  "task id out of range");
    return topo_rank_[static_cast<std::size_t>(id)];
  }

  /// Ceiling on total_instances(): freeze() rejects a graph whose
  /// hyper-period would expand into more instances than this. About 360x
  /// the largest graph the benches build, and a few GB of occupancy.
  static constexpr std::size_t kMaxTotalInstances = std::size_t{1} << 24;
  static_assert(kMaxTotalInstances <= UINT32_MAX);

  /// Producer instances consumed by instance \p k of the consumer of
  /// dependence \p dep_index (paper Section 3.1), as a contiguous range
  /// {first, count} (both harmonic cases consume consecutive indices):
  ///  * T_c = n*T_p: instance k consumes producer instances k*n .. k*n+n-1
  ///    (the slow consumer gathers n data, Figure 1);
  ///  * T_p = n*T_c: instance k consumes producer instance floor(k/n)
  ///    (the fast consumer re-reads the latest datum).
  ConsumedRange consumed_range(std::int32_t dep_index, InstanceIdx k) const {
    require_frozen("consumed_range");
    LBMEM_REQUIRE(dep_index >= 0 &&
                      dep_index < static_cast<std::int32_t>(deps_.size()),
                  "dependence index out of range");
    const Dependence& d = deps_[static_cast<std::size_t>(dep_index)];
    LBMEM_REQUIRE(k >= 0 && k < instance_count(d.consumer),
                  "consumer instance out of range");
    const Time tp = task(d.producer).period;
    const Time tc = task(d.consumer).period;
    if (tc >= tp) {
      // Slow consumer gathers n = tc/tp data (paper Figure 1).
      const auto n = static_cast<InstanceIdx>(tc / tp);
      return ConsumedRange{k * n, n};
    }
    // Fast consumer samples the latest completed producer instance.
    return ConsumedRange{k / static_cast<InstanceIdx>(tp / tc), 1};
  }

  /// Inverse of consumed_range: the consumer instances that consume
  /// producer instance \p j of dependence \p dep_index. Contiguous in both
  /// harmonic cases (slow consumer: j/n gathers j; fast consumer: the n
  /// instances j*n .. j*n+n-1 each re-read j). Allocation-free; used by the
  /// online engine's dirty-set cascade and the partial block builder.
  ConsumedRange consumer_range(std::int32_t dep_index, InstanceIdx j) const {
    require_frozen("consumer_range");
    LBMEM_REQUIRE(dep_index >= 0 &&
                      dep_index < static_cast<std::int32_t>(deps_.size()),
                  "dependence index out of range");
    const Dependence& d = deps_[static_cast<std::size_t>(dep_index)];
    LBMEM_REQUIRE(j >= 0 && j < instance_count(d.producer),
                  "producer instance out of range");
    const Time tp = task(d.producer).period;
    const Time tc = task(d.consumer).period;
    if (tc >= tp) {
      // Slow consumer: j belongs to the gather window of consumer j/n.
      const auto n = static_cast<InstanceIdx>(tc / tp);
      return ConsumedRange{j / n, 1};
    }
    // Fast consumer: the n consumers within j's production period re-read j.
    const auto n = static_cast<InstanceIdx>(tp / tc);
    return ConsumedRange{j * n, n};
  }

  /// Sum over tasks of wcet/period (fraction of one processor the whole
  /// application needs; schedulability requires utilization() <= M).
  double utilization() const;

 private:
  void require_frozen(const char* what) const {
    if (!frozen_) throw_not_frozen(what);
  }
  [[noreturn]] static void throw_not_frozen(const char* what);
  void require_mutable(const char* what) const;
  /// The slot of name_slots_ holding the task named \p name, else the
  /// empty slot ending its probe chain. \p hash is name_hash(name);
  /// requires a non-empty table.
  std::size_t name_slot(const std::string& name, std::size_t hash) const;
  /// Double name_slots_ (at least 8 slots) and re-insert every task.
  void grow_name_index();
  /// Task \p t's slice of a CSR edge list.
  static std::span<const std::int32_t> edge_span(
      const std::vector<std::int32_t>& offsets,
      const std::vector<std::int32_t>& ids, TaskId t) {
    const auto i = static_cast<std::size_t>(t);
    return {ids.data() + offsets[i],
            static_cast<std::size_t>(offsets[i + 1] - offsets[i])};
  }

  std::vector<Task> tasks_;
  std::vector<Dependence> deps_;
  // Name -> id index: a power-of-two table of task ids (-1: empty slot),
  // linear probing from the name's hash, at most half full. A slot holds
  // only the id; the name it stands for is tasks_[id].name.
  std::vector<TaskId> name_slots_;
  // Per-consumer in-edge lists for add_dependence's duplicate check, kept
  // only while the graph is mutable (freeze() releases them): the last edge
  // into consumer c is in_head_[c] (-1: none, or past the end), and the edge
  // before edge e into the same consumer is in_next_[e].
  std::vector<std::int32_t> in_head_;
  std::vector<std::int32_t> in_next_;
  bool frozen_ = false;

  // Derived by freeze():
  Time hyperperiod_ = 0;
  std::size_t total_instances_ = 0;
  std::vector<TaskId> topo_order_;
  std::vector<std::int32_t> topo_rank_;  // inverse of topo_order_
  // CSR offsets of the dense instance enumeration, size tasks+1; task t
  // has instance_base_[t+1] - instance_base_[t] = H / period instances.
  // 32 bits suffice: freeze() caps the total at kMaxTotalInstances.
  std::vector<std::uint32_t> instance_base_;
  // CSR adjacency: task t's incoming dependence ids are
  // in_ids_[in_offsets_[t] .. in_offsets_[t+1]), ascending; likewise out.
  std::vector<std::int32_t> in_offsets_;   // size tasks+1
  std::vector<std::int32_t> in_ids_;       // size dependences
  std::vector<std::int32_t> out_offsets_;  // size tasks+1
  std::vector<std::int32_t> out_ids_;      // size dependences
};

}  // namespace lbmem
