#include "lbmem/lb/block_builder.hpp"

#include <algorithm>
#include <numeric>

#include "lbmem/util/check.hpp"

namespace lbmem {

BlockId BlockDecomposition::find(TaskInstance inst) const {
  LBMEM_REQUIRE(graph != nullptr, "decomposition has no graph");
  const std::size_t dense = graph->dense_index(inst);
  if (!block_of.empty()) return block_of[dense];
  const auto it = std::lower_bound(
      reached.begin(), reached.end(), dense,
      [](const std::pair<std::uint32_t, BlockId>& entry, std::size_t value) {
        return entry.first < value;
      });
  return it != reached.end() && it->first == dense ? it->second : BlockId{-1};
}

const Block& BlockDecomposition::block_containing(TaskInstance inst) const {
  const BlockId id = find(inst);
  LBMEM_REQUIRE(id >= 0, "instance is outside the decomposition");
  return blocks[static_cast<std::size_t>(id)];
}

namespace {

/// Plain union-find over dense instance indices.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) {
    parent_[find(a)] = find(b);
  }

 private:
  std::vector<std::size_t> parent_;
};

/// Shared materialization tail of build_blocks and build_blocks_around:
/// turn instance equivalence classes into Block records, numbered in
/// global start order. Each of \p items is one instance, inst_of(item), of
/// class class_of(item) in [0, class_count); one Block is emitted per class
/// that occurs. The index is the dense block_of once the items reach a
/// kDenseShare-th of the graph's instances, else the sorted `reached`.
template <typename Item, typename InstOf, typename ClassOf>
BlockDecomposition materialize_blocks(const Schedule& sched,
                                      std::vector<Item> items,
                                      std::size_t class_count,
                                      InstOf&& inst_of, ClassOf&& class_of) {
  const TaskGraph& graph = sched.graph();
  std::sort(items.begin(), items.end(), [&](const Item& x, const Item& y) {
    const TaskInstance a = inst_of(x);
    const TaskInstance b = inst_of(y);
    const Time sa = sched.start(a);
    const Time sb = sched.start(b);
    if (sa != sb) return sa < sb;
    return a < b;
  });

  BlockDecomposition out;
  out.graph = &graph;
  const bool dense =
      items.size() * BlockDecomposition::kDenseShare >= graph.total_instances();
  if (dense) {
    out.block_of.assign(graph.total_instances(), BlockId{-1});
  } else {
    out.reached.reserve(items.size());
  }
  std::vector<BlockId> class_to_block(class_count, BlockId{-1});

  for (const Item& item : items) {
    const TaskInstance inst = inst_of(item);
    const std::size_t cls = class_of(item);
    BlockId bid = class_to_block[cls];
    if (bid < 0) {
      bid = static_cast<BlockId>(out.blocks.size());
      class_to_block[cls] = bid;
      Block block;
      block.id = bid;
      block.home = sched.proc(inst);
      out.blocks.push_back(std::move(block));
    }
    Block& block = out.blocks[static_cast<std::size_t>(bid)];
    LBMEM_REQUIRE(block.home == sched.proc(inst),
                  "block members must share a processor");
    block.members.push_back(inst);
    block.exec_sum += graph.task(inst.task).wcet;
    block.mem_sum += graph.task(inst.task).memory;
    if (dense) {
      out.block_of[graph.dense_index(inst)] = bid;
    } else {
      // Dense indices fit 32 bits: freeze() caps the instance count.
      out.reached.emplace_back(
          static_cast<std::uint32_t>(graph.dense_index(inst)), bid);
    }
  }
  std::sort(out.reached.begin(), out.reached.end());

  for (Block& block : out.blocks) {
    // Members were appended in global start order, so they are sorted.
    block.tasks.clear();
    bool all_first = true;
    for (const TaskInstance& inst : block.members) {
      if (inst.k != 0) all_first = false;
      block.tasks.push_back(inst.task);
    }
    std::sort(block.tasks.begin(), block.tasks.end());
    block.tasks.erase(std::unique(block.tasks.begin(), block.tasks.end()),
                      block.tasks.end());
    block.category = all_first ? 1 : 2;
  }
  return out;
}

}  // namespace

BlockDecomposition build_blocks(const Schedule& sched) {
  LBMEM_REQUIRE(sched.complete(), "build_blocks requires a complete schedule");
  const TaskGraph& graph = sched.graph();

  // Dense index over all instances (the graph's CSR enumeration).
  const std::size_t total = graph.total_instances();
  const auto dense = [&](TaskInstance inst) { return graph.dense_index(inst); };

  UnionFind uf(total);

  // Unite tight same-processor dependences.
  for (std::int32_t e = 0;
       e < static_cast<std::int32_t>(graph.dependence_count()); ++e) {
    const Dependence& dep = graph.dependences()[static_cast<std::size_t>(e)];
    const Time comm = sched.comm().transfer_time(dep.data_size);
    const InstanceIdx nc = graph.instance_count(dep.consumer);
    for (InstanceIdx k = 0; k < nc; ++k) {
      const TaskInstance consumer{dep.consumer, k};
      const ConsumedRange range = graph.consumed_range(e, k);
      for (InstanceIdx i = 0; i < range.count; ++i) {
        const TaskInstance producer{dep.producer, range.first + i};
        if (sched.proc(producer) != sched.proc(consumer)) continue;
        const Time slack = sched.start(consumer) - sched.end(producer);
        if (slack < comm) {
          uf.unite(dense(producer), dense(consumer));
        }
      }
    }
  }

  // Classes are union-find roots over the dense index space.
  return materialize_blocks(
      sched, sched.all_instances(), total,
      [](TaskInstance inst) { return inst; },
      [&](TaskInstance inst) { return uf.find(dense(inst)); });
}

BlockDecomposition build_blocks_around(const Schedule& sched,
                                       std::span<const TaskId> seed_tasks,
                                       EpochSet& visited) {
  LBMEM_REQUIRE(sched.complete(),
                "build_blocks_around requires a complete schedule");
  const TaskGraph& graph = sched.graph();
  const auto dense = [&](TaskInstance inst) { return graph.dense_index(inst); };

  // Two instances are neighbors when separating them would create a
  // communication the current timing cannot absorb — the exact merge rule
  // of build_blocks, applied as an adjacency instead of a global sweep.
  const auto tight = [&](TaskInstance producer, TaskInstance consumer,
                         Mem data_size) {
    if (sched.proc(producer) != sched.proc(consumer)) return false;
    const Time slack = sched.start(consumer) - sched.end(producer);
    return slack < sched.comm().transfer_time(data_size);
  };

  // Flood-fill components from every instance of every seed task; `found`
  // records each reached instance with its component.
  visited.clear(graph.total_instances());
  std::vector<std::pair<TaskInstance, std::uint32_t>> found;
  std::vector<TaskInstance> frontier;
  std::uint32_t components = 0;
  for (const TaskId seed : seed_tasks) {
    LBMEM_REQUIRE(seed >= 0 && seed < static_cast<TaskId>(graph.task_count()),
                  "seed task id out of range");
    const InstanceIdx n = graph.instance_count(seed);
    for (InstanceIdx k = 0; k < n; ++k) {
      const TaskInstance root{seed, k};
      if (!visited.insert(dense(root))) continue;
      const std::uint32_t id = components++;
      frontier.assign(1, root);
      while (!frontier.empty()) {
        const TaskInstance inst = frontier.back();
        frontier.pop_back();
        found.emplace_back(inst, id);
        // A reached instance is in this component by construction (BFS).
        const auto visit = [&](TaskInstance next) {
          if (visited.insert(dense(next))) frontier.push_back(next);
        };
        for (const std::int32_t e : graph.deps_in(inst.task)) {
          const Dependence& dep =
              graph.dependences()[static_cast<std::size_t>(e)];
          const ConsumedRange range = graph.consumed_range(e, inst.k);
          for (InstanceIdx i = 0; i < range.count; ++i) {
            const TaskInstance producer{dep.producer, range.first + i};
            if (tight(producer, inst, dep.data_size)) visit(producer);
          }
        }
        for (const std::int32_t e : graph.deps_out(inst.task)) {
          const Dependence& dep =
              graph.dependences()[static_cast<std::size_t>(e)];
          const ConsumedRange range = graph.consumer_range(e, inst.k);
          for (InstanceIdx i = 0; i < range.count; ++i) {
            const TaskInstance consumer{dep.consumer, range.first + i};
            if (tight(inst, consumer, dep.data_size)) visit(consumer);
          }
        }
      }
    }
  }

  // Materialize the discovered components in global start order through
  // the exact same tail build_blocks uses.
  using Found = std::pair<TaskInstance, std::uint32_t>;
  return materialize_blocks(
      sched, std::move(found), components,
      [](const Found& f) { return f.first; },
      [](const Found& f) { return f.second; });
}

}  // namespace lbmem
