#pragma once
/// \file gain_reduction.hpp
/// \brief Internal to lb/: the conflict-driven reduction of a category-1
/// block's gain (DESIGN.md F41), a free function so that its reference test
/// can call it.

#include <cstddef>
#include <span>

#include "lbmem/model/types.hpp"
#include "lbmem/sched/timeline.hpp"

namespace lbmem {

/// One instance a tentative move relocates, frozen at pop time: members
/// land on the candidate destination; for a positive category-1 gain the
/// later instances of the block's tasks shift in place on their own
/// processor. Tentative start = base_start - gain.
struct LayoutEntry {
  TaskInstance inst;
  ProcId proc;  // shifting siblings: own processor; members: the candidate
  Time base_start;
  Time wcet;
};

/// What reduce_gain() decided.
struct GainReduction {
  Time gain = 0;                    ///< conflict-free when no reject_reason
  const char* reject_reason = nullptr;
  bool cut_by_incumbent = false;
  std::size_t steps = 0;  ///< conflicts stepped past, each one landing
};

/// Conflicts one evaluation may step past before it gives up.
inline constexpr std::size_t kMaxGainSteps = 10000;

/// Lower \p gain until every entry of \p layout avoids the blocking pieces
/// of its processor's timeline: the first \p member_count entries on
/// \p dest_occ, the shifting siblings on occ[proc], and only while the gain
/// is positive (at zero they stay put). Each entry walks its timeline from
/// its tentative start (ProcTimeline::walk_blocking, skipping owners that
/// \p ignore skips), and the entries take turns until a full pass moves
/// none: the leapfrog of earliest_fit (DESIGN.md F39). Committed pieces
/// never move, so any gain skipped over is infeasible for the entry that
/// ran into it, and the result does not depend on the order. Every landing
/// counts one step and sets gain = base start - landing, then:
///   * more than kMaxGainSteps steps: "no conflict-free gain";
///   * gain < 0: "overlap with moved blocks";
///   * \p cannot_beat(gain) (a callable Time -> bool): a cut;
///   * a sibling at gain 0 stops constraining.
/// Each landing is one conflict of the probe-and-lower loop this replaced
/// (probe the entry for the first non-ignored piece it meets, lower the
/// gain to that owner's end), so steps, gains and reject reasons equal that
/// loop's (F41); tests/test_gain_reduction.cpp keeps it as the reference,
/// over a sorted piece list of its own.
template <typename Ignore, typename CannotBeat>
GainReduction reduce_gain(std::span<const LayoutEntry> layout,
                          std::size_t member_count,
                          const ProcTimeline& dest_occ,
                          std::span<const ProcTimeline> occ, Time gain,
                          Ignore&& ignore, CannotBeat&& cannot_beat) {
  GainReduction out;
  const std::size_t total = layout.size();
  std::size_t idx = 0;
  std::size_t cleared = 0;  // entries in a row that did not move the gain
  while (cleared < total) {
    const LayoutEntry& le = layout[idx];
    const bool member = idx < member_count;
    if (member || gain > 0) {
      const ProcTimeline& timeline =
          member ? dest_occ : occ[static_cast<std::size_t>(le.proc)];
      bool moved = false;
      timeline.walk_blocking(
          le.base_start - gain, le.wcet, ignore, [&](Time landing) {
            moved = true;
            if (++out.steps > kMaxGainSteps) {
              out.reject_reason = "no conflict-free gain";
              return false;
            }
            gain = le.base_start - landing;
            if (gain < 0) {
              out.reject_reason = "overlap with moved blocks";
              return false;
            }
            if (cannot_beat(gain)) {
              out.cut_by_incumbent = true;
              out.reject_reason = "cut off: cannot beat the incumbent";
              return false;
            }
            return member || gain > 0;
          });
      if (out.reject_reason != nullptr) return out;
      if (moved) cleared = 0;
    }
    ++cleared;
    idx = (idx + 1 == total) ? 0 : idx + 1;
  }
  out.gain = gain;
  return out;
}

}  // namespace lbmem
