/// Reference test for the balancer's gain reduction (DESIGN.md F41).
///
/// reduce_gain() lowers a category-1 block's gain with one filtered gap
/// walk per layout entry (ProcTimeline::walk_blocking). The loop it replaced
/// is kept here as the reference: it probed each entry for the first owner
/// it ran into and lowered the gain one conflicting owner at a time, to
/// that owner's end as the schedule records it. The reference finds each
/// conflict in sorted piece lists of its own, not through ProcTimeline, so
/// the walk is checked against an independent scan. The two must agree
/// on the gain, the reject reason, the cut flag and the number of steps
/// (the guard count), on random timelines after add/remove/restore churn
/// with random layouts, ignore sets and incumbents, and on the edge cases
/// the exactness argument names: wrapped and full-circle owners, a sibling
/// landing on gain 0, ignored pieces next to blocking ones, a cut and an
/// overlap inside one stretch of pieces, and the step guard.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "lbmem/lb/gain_reduction.hpp"
#include "lbmem/sched/timeline.hpp"
#include "lbmem/util/math.hpp"
#include "lbmem/util/rng.hpp"

namespace lbmem {
namespace {

/// Timelines over one circle, plus what the replaced loop found without
/// them: every live owner's absolute end, which it read from the schedule,
/// and each processor's pieces by start, where the reference looks up each
/// conflict.
struct World {
  /// One stored piece: an interval that crosses H is two, [s, H) and [0, e).
  struct Piece {
    Time len;
    TaskInstance owner;
  };

  explicit World(Time hyperperiod, int procs)
      : h(hyperperiod),
        occ(static_cast<std::size_t>(procs), ProcTimeline(hyperperiod)),
        pieces(static_cast<std::size_t>(procs)) {}

  void add(ProcId p, Time start, Time len, TaskInstance owner) {
    occ[static_cast<std::size_t>(p)].add(start, len, owner);
    record(p, start, start + len, owner);
  }

  /// Release \p owner from processor \p p, at the start it was added at.
  ProcTimeline::Released remove(ProcId p, TaskInstance owner) {
    const ProcTimeline::Released released =
        occ[static_cast<std::size_t>(p)].remove(owner, start_of.at(owner));
    std::map<Time, Piece>& on_p = pieces[static_cast<std::size_t>(p)];
    on_p.erase(released.start);
    if (released.start + released.len > h) on_p.erase(0);  // wrapped tail
    start_of.erase(owner);
    end_of.erase(owner);
    return released;
  }

  /// Undo remove(): \p owner's \p interval back, ending at \p end.
  void restore(ProcId p, TaskInstance owner,
               const ProcTimeline::Released& interval, Time end) {
    occ[static_cast<std::size_t>(p)].restore(owner, interval);
    record(p, end - interval.len, end, owner);
  }

  /// The first owner not skipped by \p ignore that [start, start+len) runs
  /// into on processor \p p: the piece covering start mod H, else the first
  /// later one in circular order that starts inside the interval.
  template <typename Ignore>
  std::optional<TaskInstance> conflict(ProcId p, Time start, Time len,
                                       const Ignore& ignore) const {
    const std::map<Time, Piece>& on_p = pieces[static_cast<std::size_t>(p)];
    const Time pos = mod_floor(start, h);
    auto it = on_p.upper_bound(pos);
    if (it != on_p.begin()) {
      const auto& [piece_start, piece] = *std::prev(it);
      if (piece_start + piece.len > pos && !ignore(piece.owner)) {
        return piece.owner;
      }
    }
    // len <= H: the interval ends within the next lap.
    for (Time lap = 0; lap <= h; lap += h, it = on_p.begin()) {
      for (; it != on_p.end() && lap + it->first < pos + len; ++it) {
        if (!ignore(it->second.owner)) return it->second.owner;
      }
    }
    return std::nullopt;
  }

  Time h;
  std::vector<ProcTimeline> occ;
  std::map<TaskInstance, Time> start_of;
  std::map<TaskInstance, Time> end_of;
  std::vector<std::map<Time, Piece>> pieces;  // per processor, by start

 private:
  void record(ProcId p, Time start, Time end, TaskInstance owner) {
    start_of[owner] = start;
    end_of[owner] = end;
    std::map<Time, Piece>& on_p = pieces[static_cast<std::size_t>(p)];
    const Time s = mod_floor(start, h);
    if (s + (end - start) <= h) {
      on_p.emplace(s, Piece{end - start, owner});
    } else {
      on_p.emplace(s, Piece{h - s, owner});
      on_p.emplace(0, Piece{s + (end - start) - h, owner});
    }
  }
};

/// The reduction as Attempt::evaluate ran it before the walk: probe the
/// entry at its tentative start; on a conflict, lower the gain so that the
/// entry lands at the conflicting owner's end (circularly, a zero step being
/// a full lap), and probe the same entry again; stop once a full pass over
/// the layout is conflict-free.
template <typename Ignore, typename CannotBeat>
GainReduction probe_and_lower(std::span<const LayoutEntry> layout,
                              std::size_t member_count, ProcId dest,
                              const World& world, Time gain, Ignore ignore,
                              CannotBeat cannot_beat) {
  GainReduction out;
  const std::size_t total = layout.size();
  std::size_t idx = 0;
  std::size_t cleared = 0;
  while (cleared < total) {
    const LayoutEntry& le = layout[idx];
    // Shifting siblings only move while the gain is positive.
    const bool active = idx < member_count || gain > 0;
    if (active) {
      const ProcId where = idx < member_count ? dest : le.proc;
      const Time tentative = le.base_start - gain;
      if (const auto conflict =
              world.conflict(where, tentative, le.wcet, ignore)) {
        if (++out.steps > kMaxGainSteps) {
          out.reject_reason = "no conflict-free gain";
          return out;
        }
        Time delta = mod_floor(world.end_of.at(*conflict) - tentative, world.h);
        if (delta == 0) delta = world.h;
        gain -= delta;
        if (gain < 0) {
          out.reject_reason = "overlap with moved blocks";
          return out;
        }
        if (cannot_beat(gain)) {
          out.cut_by_incumbent = true;
          out.reject_reason = "cut off: cannot beat the incumbent";
          return out;
        }
        cleared = 0;
        continue;  // re-check this entry at the reduced gain
      }
    }
    ++cleared;
    idx = (idx + 1 == total) ? 0 : idx + 1;
  }
  out.gain = gain;
  return out;
}

/// reduce_gain() over \p world with the same arguments.
template <typename Ignore, typename CannotBeat>
GainReduction walk(std::span<const LayoutEntry> layout,
                   std::size_t member_count, ProcId dest, const World& world,
                   Time gain, Ignore ignore, CannotBeat cannot_beat) {
  return reduce_gain(layout, member_count,
                     world.occ[static_cast<std::size_t>(dest)], world.occ,
                     gain, ignore, cannot_beat);
}

std::string describe(const GainReduction& r) {
  return "{gain " + std::to_string(r.gain) + ", reject '" +
         (r.reject_reason ? r.reject_reason : "") + "', cut " +
         (r.cut_by_incumbent ? "1" : "0") + ", steps " +
         std::to_string(r.steps) + "}";
}

bool same(const GainReduction& a, const GainReduction& b) {
  const bool rejected = a.reject_reason != nullptr;
  if (rejected != (b.reject_reason != nullptr)) return false;
  if (rejected && std::strcmp(a.reject_reason, b.reject_reason) != 0) {
    return false;
  }
  return a.cut_by_incumbent == b.cut_by_incumbent && a.steps == b.steps &&
         (rejected || a.gain == b.gain);
}

/// Run both and require agreement; returns the walk's result.
template <typename Ignore, typename CannotBeat>
GainReduction expect_agree(std::span<const LayoutEntry> layout,
                           std::size_t member_count, ProcId dest,
                           const World& world, Time gain, Ignore ignore,
                           CannotBeat cannot_beat) {
  const GainReduction got =
      walk(layout, member_count, dest, world, gain, ignore, cannot_beat);
  const GainReduction want = probe_and_lower(layout, member_count, dest, world,
                                             gain, ignore, cannot_beat);
  EXPECT_TRUE(same(got, want))
      << "walk " << describe(got) << " vs reference " << describe(want);
  return got;
}

const auto kNoIgnore = [](TaskInstance) { return false; };
const auto kNoIncumbent = [](Time) { return false; };

LayoutEntry member(TaskId task, Time base_start, Time wcet) {
  return LayoutEntry{TaskInstance{task, 0}, kNoProc, base_start, wcet};
}

LayoutEntry sibling(TaskId task, ProcId proc, Time base_start, Time wcet) {
  return LayoutEntry{TaskInstance{task, 1}, proc, base_start, wcet};
}

// ---- random churn -------------------------------------------------------

/// Fill \p world's timelines at random, then churn them the way the
/// journal does: add and remove owners, and undo a few steps in reverse
/// (an add by remove() at its start, a removal by restore() of the interval
/// it released). A processor may hold one full-circle owner instead.
void populate(World& world, Rng& rng, TaskId& next_task) {
  const Time h = world.h;
  const auto procs = static_cast<ProcId>(world.occ.size());
  std::vector<std::vector<TaskInstance>> owners(world.occ.size());
  const auto try_add = [&](ProcId p) -> bool {
    const Time len = rng.uniform(0, 9) < 7
                         ? rng.uniform(1, std::min<Time>(h, 6))
                         : rng.uniform(1, std::max<Time>(1, h / 3));
    const Time start = rng.uniform(0, 2 * h - 1);  // absolute: ends vary
    if (!world.occ[static_cast<std::size_t>(p)].fits(start, len)) {
      return false;
    }
    const TaskInstance owner{next_task++, 0};
    world.add(p, start, len, owner);
    owners[static_cast<std::size_t>(p)].push_back(owner);
    return true;
  };
  for (ProcId p = 0; p < procs; ++p) {
    if (rng.chance(0.1)) {  // one owner covering the whole circle
      world.add(p, rng.uniform(0, 2 * h - 1), h, TaskInstance{next_task++, 0});
      continue;
    }
    const std::int64_t fill = rng.uniform(1, std::min<Time>(h, 400));
    for (std::int64_t i = 0; i < fill; ++i) try_add(p);
  }
  struct Logged {
    ProcId proc;
    TaskInstance owner;
    bool added;  // else removed
    ProcTimeline::Released interval;
    Time end;
  };
  std::vector<Logged> log;
  for (int step = 0; step < 120; ++step) {
    const auto p = static_cast<ProcId>(rng.uniform(0, procs - 1));
    std::vector<TaskInstance>& on_p = owners[static_cast<std::size_t>(p)];
    const std::int64_t action = rng.uniform(0, 9);
    if (action < 4) {
      if (try_add(p)) {
        log.push_back(
            Logged{p, on_p.back(), true, {}, world.end_of[on_p.back()]});
      }
    } else if (action < 8 && !on_p.empty()) {
      const auto i = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(on_p.size()) - 1));
      const TaskInstance owner = on_p[i];
      const Time end = world.end_of.at(owner);
      log.push_back(Logged{p, owner, false, world.remove(p, owner), end});
      on_p.erase(on_p.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (!log.empty()) {
      // Undo the newest few steps in reverse.
      const std::int64_t undo =
          rng.uniform(1, std::min<std::int64_t>(4, std::ssize(log)));
      for (std::int64_t u = 0; u < undo; ++u) {
        const Logged entry = log.back();
        log.pop_back();
        std::vector<TaskInstance>& list =
            owners[static_cast<std::size_t>(entry.proc)];
        if (entry.added) {
          world.remove(entry.proc, entry.owner);
          list.erase(std::find(list.begin(), list.end(), entry.owner));
        } else {
          world.restore(entry.proc, entry.owner, entry.interval, entry.end);
          list.push_back(entry.owner);
        }
      }
    }
  }
}

/// Outcomes over a random sweep, so that no branch is vacuous.
struct Tally {
  int feasible = 0;
  int overlap = 0;
  int cut = 0;
  int stepped = 0;        // feasible after at least two steps
  int sibling_zero = 0;   // feasible at gain 0 with a sibling in the layout
  std::size_t max_steps = 0;
};

void sweep(Time h, std::uint64_t seed, int worlds, Tally& tally) {
  SCOPED_TRACE("H=" + std::to_string(h) + " seed=" + std::to_string(seed));
  Rng rng(seed);
  for (int w = 0; w < worlds; ++w) {
    const auto procs = static_cast<int>(rng.uniform(2, 4));
    World world(h, procs);
    TaskId next_task = 0;
    populate(world, rng, next_task);
    for (int q = 0; q < 150; ++q) {
      // Members first, then shifting siblings on random processors; the
      // layout's own instances are not on the timelines.
      std::vector<LayoutEntry> layout;
      const auto members = static_cast<std::size_t>(rng.uniform(1, 3));
      const auto siblings = rng.uniform(0, 4);
      const auto random_wcet = [&] {
        return rng.chance(0.8) ? rng.uniform(1, std::min<Time>(h, 5))
                               : rng.uniform(1, h);
      };
      for (std::size_t m = 0; m < members; ++m) {
        layout.push_back(member(next_task++, rng.uniform(0, 3 * h),
                                random_wcet()));
      }
      for (std::int64_t s = 0; s < siblings; ++s) {
        layout.push_back(sibling(
            next_task++, static_cast<ProcId>(rng.uniform(0, procs - 1)),
            rng.uniform(0, 3 * h), random_wcet()));
      }
      const auto dest = static_cast<ProcId>(rng.uniform(0, procs - 1));
      const Time gain = rng.chance(0.1) ? 0 : rng.uniform(0, 2 * h);
      // A random ignore set over the live owners.
      std::set<TaskInstance> ignored;
      const double ignore_p = rng.chance(0.5) ? 0.0 : rng.uniform01() * 0.6;
      for (const auto& [owner, end] : world.end_of) {
        if (rng.chance(ignore_p)) ignored.insert(owner);
      }
      const auto ignore = [&](TaskInstance owner) {
        return ignored.count(owner) != 0;
      };
      // No incumbent, or a threshold the gain must stay above (or at).
      const std::int64_t incumbent = rng.uniform(0, 2);
      const Time threshold = rng.uniform(0, std::max<Time>(gain, 1));
      const auto cannot_beat = [&](Time g) {
        if (incumbent == 0) return false;
        return incumbent == 1 ? g < threshold : g <= threshold;
      };
      const GainReduction r = expect_agree(layout, members, dest, world, gain,
                                           ignore, cannot_beat);
      if (::testing::Test::HasFailure()) return;
      tally.max_steps = std::max(tally.max_steps, r.steps);
      if (r.cut_by_incumbent) {
        ++tally.cut;
      } else if (r.reject_reason != nullptr) {
        ++tally.overlap;
      } else {
        ++tally.feasible;
        if (r.steps >= 2) ++tally.stepped;
        if (r.gain == 0 && siblings > 0 && gain > 0) ++tally.sibling_zero;
      }
    }
  }
}

TEST(GainReduction, MatchesTheProbeLoopOnRandomChurnedTimelines) {
  Tally tally;
  std::uint64_t seed = 1;
  // One bucket, a prime circle, a few buckets, the bucket ceiling, and
  // sparse giant circles where most buckets stay empty.
  for (const Time h : {12, 97, 1024, 3000, 65536, 100003}) {
    sweep(h, seed++, 12, tally);
    if (HasFailure()) return;
  }
  EXPECT_GT(tally.feasible, 0);
  EXPECT_GT(tally.overlap, 0);
  EXPECT_GT(tally.cut, 0);
  EXPECT_GT(tally.stepped, 0);
  EXPECT_GT(tally.sibling_zero, 0);
  EXPECT_GT(tally.max_steps, 10u);
}

// ---- edge cases ---------------------------------------------------------

TEST(GainReduction, WrappedOwnerLandsOncePastH) {
  // The owner holds [95, 100) and [0, 3) of H = 100. A member probing
  // [96, 98) runs into the first piece and lands at the owner's end, 103,
  // in one step, not at 100 and then 103.
  World world(100, 1);
  world.add(0, 95, 8, TaskInstance{0, 0});
  const std::vector<LayoutEntry> layout = {member(9, 106, 2)};
  const GainReduction r =
      expect_agree(layout, 1, 0, world, 10, kNoIgnore, kNoIncumbent);
  EXPECT_EQ(r.reject_reason, nullptr);
  EXPECT_EQ(r.steps, 1u);
  EXPECT_EQ(r.gain, 3);  // 106 - 103
  // Probing from inside the second piece lands at its end.
  const std::vector<LayoutEntry> late = {member(9, 112, 2)};
  const GainReduction second =
      expect_agree(late, 1, 0, world, 11, kNoIgnore, kNoIncumbent);
  EXPECT_EQ(second.steps, 1u);
  EXPECT_EQ(second.gain, 9);  // 112 - 103
}

TEST(GainReduction, FullCircleOwnerStepsOneLapAtATime) {
  // An owner with wcet = H blocks every position, so each step lowers the
  // gain by a whole lap (a zero step is a full lap) until it goes
  // negative; whether the owner starts at 0 (one piece) or wraps.
  for (const Time start : {0, 37}) {
    SCOPED_TRACE("start " + std::to_string(start));
    World world(50, 1);
    world.add(0, start, 50, TaskInstance{0, 0});
    for (const Time base : {start, start + 5, start + 50}) {
      const std::vector<LayoutEntry> layout = {member(9, base + 120, 3)};
      const GainReduction r =
          expect_agree(layout, 1, 0, world, 120, kNoIgnore, kNoIncumbent);
      ASSERT_NE(r.reject_reason, nullptr);
      EXPECT_STREQ(r.reject_reason, "overlap with moved blocks");
      EXPECT_GE(r.steps, 3u);
    }
  }
}

TEST(GainReduction, SiblingLandingOnZeroGainStopsConstraining) {
  // The sibling at 10 (wcet 2) tentatively at 6 runs into [5, 10) on its
  // processor and lands at 10: gain 0, where siblings stay put. The
  // member, at gain 0 on its own free processor, then fits.
  World world(100, 2);
  world.add(1, 5, 5, TaskInstance{0, 0});
  world.add(1, 10, 2, TaskInstance{1, 0});  // the sibling's own slot ahead
  const std::vector<LayoutEntry> layout = {member(8, 20, 3),
                                           sibling(9, 1, 10, 2)};
  const GainReduction r =
      expect_agree(layout, 1, 0, world, 4, kNoIgnore, kNoIncumbent);
  EXPECT_EQ(r.reject_reason, nullptr);
  EXPECT_EQ(r.gain, 0);
  EXPECT_EQ(r.steps, 1u);  // the piece at 10 no longer constrains
  // At gain 0 the cut test still runs first: an incumbent at 0 cuts.
  const GainReduction cut = expect_agree(layout, 1, 0, world, 4, kNoIgnore,
                                         [](Time g) { return g <= 0; });
  EXPECT_TRUE(cut.cut_by_incumbent);
}

TEST(GainReduction, IgnoredPiecesNextToBlockingOnesAreSkipped) {
  // [10,12) ignored, [12,14) blocking, [14,16) ignored, [16,17) blocking.
  // A member of wcet 2 probing from 11 passes the ignored piece, runs into
  // [12,14) and lands at 14, where the ignored piece leaves it free; one of
  // wcet 3 then runs into [16,17) and lands at 17.
  World world(100, 1);
  world.add(0, 10, 2, TaskInstance{0, 0});
  world.add(0, 12, 2, TaskInstance{1, 0});
  world.add(0, 14, 2, TaskInstance{2, 0});
  world.add(0, 16, 1, TaskInstance{3, 0});
  const auto ignore = [](TaskInstance owner) { return owner.task % 2 == 0; };
  const std::vector<LayoutEntry> layout = {member(9, 30, 2)};
  GainReduction r = expect_agree(layout, 1, 0, world, 19, ignore, kNoIncumbent);
  EXPECT_EQ(r.steps, 1u);  // [14, 16) only holds an ignored piece
  EXPECT_EQ(r.gain, 16);   // lands at 14
  const std::vector<LayoutEntry> wide = {member(9, 30, 3)};
  r = expect_agree(wide, 1, 0, world, 19, ignore, kNoIncumbent);
  EXPECT_EQ(r.steps, 2u);  // 14, then past [16, 17) to 17
  EXPECT_EQ(r.gain, 13);
}

TEST(GainReduction, CutAndOverlapInsideOneStretch) {
  // One stretch of back-to-back pieces [10,12) [12,15) [15,20). Walking a
  // member (base 20, wcet 3) from gain 10 lands at 12, 15 and 20.
  World world(100, 1);
  world.add(0, 10, 2, TaskInstance{0, 0});
  world.add(0, 12, 3, TaskInstance{1, 0});
  world.add(0, 15, 5, TaskInstance{2, 0});
  const std::vector<LayoutEntry> layout = {member(9, 20, 3)};
  GainReduction r =
      expect_agree(layout, 1, 0, world, 10, kNoIgnore, kNoIncumbent);
  EXPECT_EQ(r.gain, 0);
  EXPECT_EQ(r.steps, 3u);
  // An incumbent the gain must beat by more than 6 cuts at the second
  // landing (gain 5), mid-stretch.
  r = expect_agree(layout, 1, 0, world, 10, kNoIgnore,
                   [](Time g) { return g < 6; });
  EXPECT_TRUE(r.cut_by_incumbent);
  EXPECT_EQ(r.steps, 2u);
  // With the member at 18 the third landing (20) jumps past both the
  // incumbent and zero gain: the overlap test runs first.
  const std::vector<LayoutEntry> late = {member(9, 18, 3)};
  r = expect_agree(late, 1, 0, world, 8, kNoIgnore,
                   [](Time g) { return g < 1; });
  EXPECT_FALSE(r.cut_by_incumbent);
  ASSERT_NE(r.reject_reason, nullptr);
  EXPECT_STREQ(r.reject_reason, "overlap with moved blocks");
  EXPECT_EQ(r.steps, 3u);
}

TEST(GainReduction, StepGuardRejectsPastTenThousandSteps) {
  // 20,000 one-tick pieces a tick apart: a member of wcet 2 never fits in
  // a gap and lands two ticks on per step, so a gain of 30,000 takes more
  // than kMaxGainSteps steps to exhaust.
  World world(100000, 1);
  for (TaskId t = 0; t < 20000; ++t) world.add(0, 2 * t, 1, TaskInstance{t, 0});
  const std::vector<LayoutEntry> layout = {member(20000, 30000, 2)};
  const GainReduction r =
      expect_agree(layout, 1, 0, world, 30000, kNoIgnore, kNoIncumbent);
  ASSERT_NE(r.reject_reason, nullptr);
  EXPECT_STREQ(r.reject_reason, "no conflict-free gain");
  EXPECT_EQ(r.steps, kMaxGainSteps + 1);
}

}  // namespace
}  // namespace lbmem
