#pragma once
/// \file block_builder.hpp
/// \brief Builds the block decomposition of a schedule (paper Section 3.1).

#include <span>
#include <utility>
#include <vector>

#include "lbmem/lb/block.hpp"
#include "lbmem/util/epoch_set.hpp"

namespace lbmem {

/// The block decomposition plus an instance -> block index, kept in one of
/// two forms, so that its cost follows the instances the decomposition
/// reached (DESIGN.md F41). A decomposition that reaches at least a
/// kDenseShare-th of the graph's instances (every full one) fills the dense
/// table, whose one slot per instance then costs at most kDenseShare slots
/// per reached instance; a smaller one sorts the sparse index instead.
struct BlockDecomposition {
  static constexpr std::size_t kDenseShare = 32;

  std::vector<Block> blocks;
  /// The dense form: one flat table over the graph's dense instance index,
  /// block_of[graph->dense_index(inst)] is the BlockId of inst, or -1 for
  /// an instance a partial decomposition (build_blocks_around) never
  /// reached. Empty in the sparse form.
  std::vector<BlockId> block_of;
  /// The sparse form: (dense index, BlockId) of every reached instance,
  /// sorted by dense index. Empty in the dense form.
  std::vector<std::pair<std::uint32_t, BlockId>> reached;
  /// Graph the dense index refers to; like a Schedule's, it must outlive
  /// the decomposition.
  const TaskGraph* graph = nullptr;

  /// BlockId of \p inst, or -1 for an instance a partial decomposition
  /// never reached. Throws PreconditionError for an instance out of the
  /// graph's range.
  BlockId find(TaskInstance inst) const;

  /// Block holding \p inst. Throws PreconditionError for an instance out of
  /// the graph's range or outside a partial decomposition.
  const Block& block_containing(TaskInstance inst) const;
};

/// Group the instances of \p sched into blocks.
///
/// Rule (from Eqs. 1-2 of the paper): two instances u -> v connected by a
/// direct dependence, placed on the same processor, belong to the same
/// block whenever the timing slack start(v) - end(u) is smaller than the
/// communication time of the edge — separating them would create a
/// communication the schedule cannot absorb. The relation is closed
/// transitively (union-find), so a consumer tight against producers in two
/// distinct groups merges them into one block.
///
/// Requires a complete schedule.
BlockDecomposition build_blocks(const Schedule& sched);

/// Partial decomposition for the online engine (DESIGN.md F12): only the
/// blocks reachable from any instance of a seed task through chains of
/// tight same-processor dependences (the same merge rule as build_blocks)
/// are materialized, by BFS from the seeds instead of a global edge sweep.
/// Blocks are numbered in the same global start order build_blocks uses, so
/// a pass over the result behaves like the corresponding slice of the full
/// decomposition. \p visited is the caller's scratch, cleared here (its
/// contents are overwritten). Once it has grown to the graph's instance
/// count, the cost is proportional to the discovered neighborhood, not the
/// system (DESIGN.md F41); growing it costs one pass over the instances.
BlockDecomposition build_blocks_around(const Schedule& sched,
                                       std::span<const TaskId> seed_tasks,
                                       EpochSet& visited);

}  // namespace lbmem
