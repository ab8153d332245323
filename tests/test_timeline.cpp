/// Unit tests for the per-processor circular occupancy (lbmem/sched/timeline).

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>

#include "lbmem/sched/timeline.hpp"
#include "lbmem/util/check.hpp"
#include "lbmem/util/rng.hpp"

namespace lbmem {
namespace {

TaskInstance inst(TaskId t, InstanceIdx k = 0) { return TaskInstance{t, k}; }

const auto kNoIgnore = [](TaskInstance) { return false; };

/// Where walk_blocking() from \p start first lands: the end of the first
/// owner not skipped by \p ignore that [start, start+len) runs into, or
/// nullopt when none blocks it.
template <typename Ignore>
std::optional<Time> first_landing(const ProcTimeline& tl, Time start, Time len,
                                  Ignore ignore) {
  std::optional<Time> landing;
  tl.walk_blocking(start, len, ignore, [&](Time at) {
    landing = at;
    return false;
  });
  return landing;
}

TEST(ProcTimeline, EmptyFitsEverything) {
  const ProcTimeline tl(12);
  EXPECT_TRUE(tl.fits(0, 1));
  EXPECT_TRUE(tl.fits(11, 1));
  EXPECT_TRUE(tl.fits(0, 12));
  EXPECT_TRUE(tl.fits(100, 5));
}

TEST(ProcTimeline, AddAndConflict) {
  ProcTimeline tl(12);
  tl.add(3, 2, inst(0));
  EXPECT_FALSE(tl.fits(3, 1));
  EXPECT_FALSE(tl.fits(4, 1));
  EXPECT_FALSE(tl.fits(2, 2));
  EXPECT_TRUE(tl.fits(5, 1));
  EXPECT_TRUE(tl.fits(1, 2));
  EXPECT_TRUE(tl.fits(-7, 2));   // [5, 7) one lap early
  EXPECT_FALSE(tl.fits(27, 1));  // [3, 4) two laps on
  EXPECT_FALSE(tl.fits(0, 12));  // the whole circle
  EXPECT_THROW(static_cast<void>(tl.fits(0, 13)), PreconditionError);
  EXPECT_THROW(static_cast<void>(tl.fits(0, 0)), PreconditionError);
  // The walk lands at the blocking owner's end, on the query's own lap.
  EXPECT_EQ(first_landing(tl, 4, 1, kNoIgnore), 5);
  EXPECT_EQ(first_landing(tl, 2, 2, kNoIgnore), 5);
  EXPECT_EQ(first_landing(tl, 16, 1, kNoIgnore), 17);
  EXPECT_EQ(first_landing(tl, 5, 1, kNoIgnore), std::nullopt);
}

TEST(ProcTimeline, WrappingIntervalSplits) {
  ProcTimeline tl(12);
  tl.add(10, 4, inst(1));  // covers [10,12) and [0,2)
  EXPECT_EQ(tl.piece_count(), 2u);
  EXPECT_FALSE(tl.fits(0, 1));
  EXPECT_FALSE(tl.fits(11, 1));
  EXPECT_TRUE(tl.fits(2, 8));
  EXPECT_EQ(tl.busy_time(), 4);
}

TEST(ProcTimeline, ModularPositions) {
  ProcTimeline tl(12);
  tl.add(13, 1, inst(2));  // the paper's d@13 occupies [1,2) mod 12
  EXPECT_FALSE(tl.fits(1, 1));
  EXPECT_FALSE(tl.fits(25, 1));
  EXPECT_TRUE(tl.fits(0, 1));
}

TEST(ProcTimeline, AddRejectsOverlap) {
  ProcTimeline tl(12);
  tl.add(0, 3, inst(0));
  EXPECT_THROW(tl.add(2, 2, inst(1)), PreconditionError);
}

TEST(ProcTimeline, RemoveReleases) {
  ProcTimeline tl(12);
  tl.add(10, 4, inst(0));
  tl.add(4, 2, inst(1));
  tl.remove(inst(0), 10);
  EXPECT_TRUE(tl.fits(10, 4));
  EXPECT_FALSE(tl.fits(4, 1));
  EXPECT_EQ(tl.busy_time(), 2);
}

TEST(ProcTimeline, EarliestFitEmpty) {
  const ProcTimeline tl(12);
  EXPECT_EQ(tl.earliest_fit(0, 3, 1, 4), 0);
  EXPECT_EQ(tl.earliest_fit(5, 6, 1, 2), 5);
}

TEST(ProcTimeline, EarliestFitSkipsOccupied) {
  ProcTimeline tl(12);
  // Occupy the slots a strict-periodic task (T=3, E=1) would take at S=0.
  tl.add(0, 1, inst(0));
  const auto s = tl.earliest_fit(0, 3, 1, 4);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(*s, 1);  // instances at 1,4,7,10 avoid [0,1)
}

TEST(ProcTimeline, EarliestFitDetectsInfeasible) {
  ProcTimeline tl(4);
  tl.add(0, 2, inst(0));  // [0,2)
  tl.add(2, 2, inst(1));  // [2,4): circle full
  EXPECT_EQ(tl.earliest_fit(0, 4, 1, 1), std::nullopt);
}

TEST(ProcTimeline, EarliestFitInterleavesPeriodicTasks) {
  // Two tasks with T=4, E=2 fill the circle of 8 exactly.
  ProcTimeline tl(8);
  tl.add(0, 2, inst(0, 0));
  tl.add(4, 2, inst(0, 1));
  const auto s = tl.earliest_fit(0, 4, 2, 2);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(*s, 2);  // instances at 2,6
  tl.add(2, 2, inst(1, 0));
  tl.add(6, 2, inst(1, 1));
  EXPECT_EQ(tl.earliest_fit(0, 4, 1, 2), std::nullopt);
}

TEST(ProcTimeline, EarliestFitRespectsLowerBound) {
  const ProcTimeline tl(12);
  EXPECT_EQ(tl.earliest_fit(7, 12, 2, 1), 7);
}

TEST(ProcTimeline, EarliestFitPaperTaskB) {
  // P2 of the example: place b (T=6, E=1, 2 instances) from lb=5 on an
  // empty processor -> 5; then c from lb=6 -> 6.
  ProcTimeline tl(12);
  const auto sb = tl.earliest_fit(5, 6, 1, 2);
  ASSERT_TRUE(sb.has_value());
  EXPECT_EQ(*sb, 5);
  tl.add(5, 1, inst(0, 0));
  tl.add(11, 1, inst(0, 1));
  const auto sc = tl.earliest_fit(6, 6, 1, 2);
  ASSERT_TRUE(sc.has_value());
  EXPECT_EQ(*sc, 6);
}

TEST(ProcTimelineChurn, RepeatedAddRemoveTracksReference) {
  // The balancer's detach/re-attach pattern: heavy add/remove churn with
  // owners coming and going, each removed at the start it was added at
  // (in [0, 2H), so also one lap late). piece_count, busy_time and point
  // queries are compared against a per-tick reference occupancy after
  // every operation.
  Rng rng(4242);
  const Time h = 48;
  ProcTimeline tl(h);
  struct Held {
    Time start;
    Time len;
  };
  std::vector<std::optional<Held>> held(20);  // owner slot -> interval

  for (int step = 0; step < 2000; ++step) {
    const auto slot = static_cast<std::size_t>(rng.uniform(0, 19));
    const TaskInstance owner = inst(static_cast<TaskId>(slot));
    if (held[slot]) {
      tl.remove(owner, held[slot]->start);
      held[slot].reset();
    } else {
      const Time start = rng.uniform(0, 2 * h);
      const Time len = rng.uniform(1, 6);
      if (tl.fits(start, len)) {
        tl.add(start, len, owner);
        held[slot] = Held{start, len};
      } else {
        // A rejected add must leave the timeline untouched.
        EXPECT_THROW(tl.add(start, len, owner), PreconditionError);
      }
    }

    // Reference occupancy, tick by tick.
    std::vector<char> occ(static_cast<std::size_t>(h), 0);
    std::size_t expected_pieces = 0;
    Time expected_busy = 0;
    for (const auto& hd : held) {
      if (!hd) continue;
      const Time s = ((hd->start % h) + h) % h;
      // Wrapping intervals are stored split in two pieces.
      expected_pieces += (s + hd->len <= h) ? 1u : 2u;
      expected_busy += hd->len;
      for (Time t = 0; t < hd->len; ++t) {
        occ[static_cast<std::size_t>((s + t) % h)] = 1;
      }
    }
    ASSERT_EQ(tl.piece_count(), expected_pieces) << "step " << step;
    ASSERT_EQ(tl.busy_time(), expected_busy) << "step " << step;
    for (Time t = 0; t < h; t += 3) {
      ASSERT_EQ(tl.fits(t, 1), occ[static_cast<std::size_t>(t)] == 0)
          << "step " << step << " t " << t;
    }
  }
}

TEST(ProcTimelineChurn, WrappingIntervalRemovesBothPieces) {
  ProcTimeline tl(12);
  tl.add(10, 4, inst(0));  // split into [10,12) and [0,2)
  tl.add(4, 2, inst(1));
  EXPECT_EQ(tl.piece_count(), 3u);
  tl.remove(inst(0), 10);
  EXPECT_EQ(tl.piece_count(), 1u);
  EXPECT_TRUE(tl.fits(10, 4));
  EXPECT_TRUE(tl.fits(0, 2));
  // Re-add after removal: the owner must have been fully released.
  tl.add(11, 3, inst(0));
  EXPECT_EQ(tl.piece_count(), 3u);
  EXPECT_FALSE(tl.fits(0, 1));
  tl.remove(inst(0), 11);
  EXPECT_EQ(tl.piece_count(), 1u);
  EXPECT_EQ(tl.busy_time(), 2);
}

TEST(ProcTimelineChurn, RemoveAbsentOwnerIsNoOp) {
  ProcTimeline tl(12);
  tl.add(0, 2, inst(0));
  EXPECT_EQ(tl.remove(inst(7), 0).len, 0);  // inst(0) starts there
  EXPECT_EQ(tl.piece_count(), 1u);
  EXPECT_EQ(tl.remove(inst(0), 0).len, 2);
  // Second removal, as the repair's second detach of a dirty task: still a
  // no-op, in every build.
  EXPECT_EQ(tl.remove(inst(0), 0).len, 0);
  EXPECT_EQ(tl.piece_count(), 0u);
  EXPECT_EQ(tl.busy_time(), 0);
}

/// Three owners on a circle of 12: inst(0) at [3, 5), inst(1) wrapping
/// over [10, 12) and [0, 2), inst(2) at [6, 7).
ProcTimeline three_owners() {
  ProcTimeline tl(12);
  tl.add(3, 2, inst(0));
  tl.add(10, 4, inst(1));
  tl.add(6, 1, inst(2));
  return tl;
}

TEST(ProcTimelineRemove, AWrongStartLeavesEveryPiece) {
  // A start inside the owner's interval, another owner's start, a free
  // tick, and a wrapped owner's tail at 0: no interval of the owner starts
  // there. Optimized builds leave every piece; LBMEM_TIMELINE_VERIFY builds
  // report that the owner holds an interval elsewhere.
  const ProcTimeline before = three_owners();
  const std::pair<TaskInstance, Time> wrong[] = {
      {inst(0), 4}, {inst(0), 6}, {inst(0), 8}, {inst(1), 0}, {inst(1), 12}};
  for (const auto& [owner, start] : wrong) {
    SCOPED_TRACE("owner " + std::to_string(owner.task) + " start " +
                 std::to_string(start));
    ProcTimeline tl = three_owners();
#if LBMEM_TIMELINE_VERIFY
    EXPECT_THROW(tl.remove(owner, start), PreconditionError);
#else
    EXPECT_EQ(tl.remove(owner, start).len, 0);
#endif
    EXPECT_TRUE(tl.same_pieces(before));
    EXPECT_TRUE(tl.check_index_integrity());
  }
  // An owner with no interval is a no-op in every build, wherever asked.
  ProcTimeline tl = three_owners();
  for (const Time start : {0, 3, 8, 10}) {
    EXPECT_EQ(tl.remove(inst(5), start).len, 0);
  }
  EXPECT_TRUE(tl.same_pieces(before));
}

TEST(ProcTimelineRemove, TakesTheStartModH) {
  ProcTimeline tl = three_owners();
  const ProcTimeline::Released a = tl.remove(inst(0), 3 + 12);
  EXPECT_EQ(a.start, 3);
  EXPECT_EQ(a.len, 2);
  const ProcTimeline::Released b = tl.remove(inst(1), 10 - 24);
  EXPECT_EQ(b.start, 10);
  EXPECT_EQ(b.len, 4);
  EXPECT_EQ(tl.piece_count(), 1u);
  EXPECT_TRUE(tl.check_index_integrity());
  // Restoring both brings back the same pieces.
  tl.restore(inst(1), b);
  tl.restore(inst(0), a);
  EXPECT_TRUE(tl.same_pieces(three_owners()));
}

TEST(ProcTimelineRemove, AWrapLosesBothPiecesFromItsHeadStart) {
  ProcTimeline tl = three_owners();
  const ProcTimeline::Released r = tl.remove(inst(1), 10);
  EXPECT_EQ(r.start, 10);
  EXPECT_EQ(r.len, 4);
  EXPECT_EQ(tl.piece_count(), 2u);
  EXPECT_TRUE(tl.fits(10, 4));
  EXPECT_TRUE(tl.check_index_integrity());

  // A full-circle owner starting at s > 0 is [s, H) and [0, s).
  for (const Time s : {0, 1, 5, 11}) {
    SCOPED_TRACE("s " + std::to_string(s));
    ProcTimeline full(12);
    full.add(s, 12, inst(9));
    EXPECT_EQ(full.piece_count(), s > 0 ? 2u : 1u);
    const ProcTimeline::Released whole = full.remove(inst(9), s);
    EXPECT_EQ(whole.start, s);
    EXPECT_EQ(whole.len, 12);
    EXPECT_EQ(full.piece_count(), 0u);
    EXPECT_EQ(full.busy_time(), 0);
    EXPECT_TRUE(full.check_index_integrity());
    full.restore(inst(9), whole);
    EXPECT_EQ(full.busy_time(), 12);
    EXPECT_TRUE(full.check_index_integrity());
  }
}

TEST(ProcTimelineRemove, AnOwnerHoldsOneInterval) {
  // The checked add() always refuses a second interval for an owner;
  // add_unchecked() does under LBMEM_TIMELINE_VERIFY.
  ProcTimeline tl = three_owners();
  EXPECT_THROW(tl.add(8, 1, inst(0)), PreconditionError);
#if LBMEM_TIMELINE_VERIFY
  EXPECT_THROW(tl.add_unchecked(8, 1, inst(2)), PreconditionError);
#endif
  EXPECT_TRUE(tl.same_pieces(three_owners()));
}

TEST(ProcTimelineChurn, FirstLandingSkipsIgnoredOwners) {
  ProcTimeline tl(12);
  tl.add(3, 2, inst(0));
  tl.add(6, 2, inst(1));
  const auto ignore0 = [](TaskInstance owner) { return owner.task == 0; };
  // [3,5) only meets the ignored owner -> the walk never lands.
  EXPECT_EQ(first_landing(tl, 3, 2, ignore0), std::nullopt);
  // [4,7) overlaps both; the walk lands at the non-ignored one's end.
  EXPECT_EQ(first_landing(tl, 4, 3, ignore0), 8);
  // Wrap-around: [11,13) -> [11,12) + [0,1), both free.
  EXPECT_EQ(first_landing(tl, 11, 2, ignore0), std::nullopt);
  tl.add(11, 2, inst(2));
  // A wrapped owner lands once, past H, at its end.
  EXPECT_EQ(first_landing(tl, 11, 2, ignore0), 13);
  EXPECT_EQ(first_landing(tl, 0, 1, ignore0), 1);
}

TEST(ProcTimeline, EarliestFitMatchesBruteForce) {
  Rng rng(99);
  for (int iter = 0; iter < 300; ++iter) {
    const Time h = 24;
    ProcTimeline tl(h);
    std::vector<char> occ(static_cast<std::size_t>(h), 0);
    // Random pre-occupation.
    for (int i = 0; i < 5; ++i) {
      const Time s = rng.uniform(0, h - 1);
      const Time len = rng.uniform(1, 3);
      bool free = true;
      for (Time t = 0; t < len; ++t) {
        if (occ[static_cast<std::size_t>((s + t) % h)]) free = false;
      }
      if (!free) continue;
      tl.add(s, len, inst(static_cast<TaskId>(i)));
      for (Time t = 0; t < len; ++t) {
        occ[static_cast<std::size_t>((s + t) % h)] = 1;
      }
    }
    const Time period = 8;
    const Time wcet = rng.uniform(1, 3);
    const Time lb = rng.uniform(0, 30);
    const InstanceIdx n = 3;  // 3 * 8 = 24 = h
    // Brute force earliest S in [lb, lb+period).
    std::optional<Time> expected;
    for (Time s = lb; s < lb + period && !expected; ++s) {
      bool ok = true;
      for (InstanceIdx k = 0; k < n && ok; ++k) {
        for (Time t = 0; t < wcet && ok; ++t) {
          const Time pos = (s + k * period + t) % h;
          if (occ[static_cast<std::size_t>(pos)]) ok = false;
        }
      }
      if (ok) expected = s;
    }
    EXPECT_EQ(tl.earliest_fit(lb, period, wcet, n), expected)
        << "iter " << iter << " lb=" << lb << " wcet=" << wcet;
  }
}

}  // namespace
}  // namespace lbmem
