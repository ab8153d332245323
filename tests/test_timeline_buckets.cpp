/// Churn tests for ProcTimeline's bucketed piece storage (DESIGN.md F16):
/// random add/remove/query sequences are replayed against a naive
/// reference implementation (a flat list of intervals checked by brute
/// force), and the bucket index is audited with check_index_integrity()
/// after every mutation. Hyper-periods are chosen to exercise one-bucket
/// timelines, the kMaxBuckets ceiling, and sparse giant circles where most
/// buckets stay empty. Dense multi-instance probes check earliest_fit's
/// leapfrog (DESIGN.md F39) against the naive search and against the
/// probe-and-jump loop it replaced (F37). Bulk-built timelines and the
/// per-bucket summaries the gap walk skips crowded buckets with (F40) are
/// checked against incremental adds and, through churn that rolls removals
/// back with restore(), against both references.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "lbmem/gen/suites.hpp"
#include "lbmem/lb/load_balancer.hpp"
#include "lbmem/sched/journal.hpp"
#include "lbmem/sched/timeline.hpp"
#include "lbmem/util/math.hpp"
#include "lbmem/util/rng.hpp"

namespace lbmem {
namespace {

/// Brute-force occupancy: every query scans every interval modulo H.
class NaiveTimeline {
 public:
  explicit NaiveTimeline(Time h) : h_(h) {}

  struct Entry {
    Time pos;  // in [0, H)
    Time len;
    TaskInstance owner;
  };

  bool fits(Time start, Time len) const {
    const Time pos = mod_floor(start, h_);
    const auto overlaps = [&](Time a, Time b) {  // non-wrapping [a, b)
      return std::any_of(entries_.begin(), entries_.end(),
                         [&](const Entry& e) {
                           return e.pos < b && e.pos + e.len > a;
                         });
    };
    if (pos + len <= h_) return !overlaps(pos, pos + len);
    return !overlaps(pos, h_) && !overlaps(0, pos + len - h_);
  }

  /// Where ProcTimeline::walk_blocking() from \p start first lands: the
  /// first position after start that is congruent to the end of the
  /// conflicting entry's owner modulo H (a zero step is a full lap), or
  /// nullopt when [start, start+len) is free.
  std::optional<Time> first_landing(Time start, Time len) const {
    const std::optional<Entry> e = conflicting_entry(start, len);
    if (!e) return std::nullopt;
    // add() pushes a wrapped owner's tail after its head: the owner's last
    // entry ends its interval.
    const auto last = std::find_if(
        entries_.rbegin(), entries_.rend(),
        [&](const Entry& x) { return x.owner == e->owner; });
    const Time step = mod_floor(last->pos + last->len - start, h_);
    return start + (step == 0 ? h_ : step);
  }

  /// The entry an interval [start, start+len) runs into first: the one
  /// reaching into it from before, else the first by start.
  std::optional<Entry> conflicting_entry(Time start, Time len) const {
    const Time pos = mod_floor(start, h_);
    // Match ProcTimeline's priority: the predecessor piece reaching into
    // the query first, then pieces by ascending start — realised here by
    // scanning pieces in sorted order per query segment.
    std::optional<Entry> found;
    const std::vector<Entry> by_pos = sorted();
    auto scan = [&](Time a, Time b) {  // non-wrapping [a, b)
      if (found || a >= b) return;
      for (const Entry& e : by_pos) {
        if (e.pos < a && e.pos + e.len > a) {
          found = e;
          return;
        }
      }
      for (const Entry& e : by_pos) {
        if (e.pos >= a && e.pos < b) {
          found = e;
          return;
        }
      }
    };
    if (pos + len <= h_) {
      scan(pos, pos + len);
    } else {
      scan(pos, h_);
      scan(0, pos + len - h_);
    }
    return found;
  }

  void add(Time start, Time len, TaskInstance owner) {
    const Time pos = mod_floor(start, h_);
    if (pos + len <= h_) {
      entries_.push_back(Entry{pos, len, owner});
    } else {
      entries_.push_back(Entry{pos, h_ - pos, owner});
      entries_.push_back(Entry{0, pos + len - h_, owner});
    }
  }

  /// Where \p owner's interval starts: its first entry, which add()
  /// pushes before a wrapped tail. Requires a present owner.
  Time start_of(TaskInstance owner) const {
    return std::find_if(entries_.begin(), entries_.end(),
                        [&](const Entry& e) { return e.owner == owner; })
        ->pos;
  }

  void remove(TaskInstance owner) {
    entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                  [&](const Entry& e) {
                                    return e.owner == owner;
                                  }),
                   entries_.end());
  }

  std::optional<Time> earliest_fit(Time lb, Time period, Time wcet,
                                   InstanceIdx n) const {
    for (Time s = lb; s < lb + period; ++s) {
      bool ok = true;
      for (InstanceIdx k = 0; k < n && ok; ++k) {
        ok = fits(s + static_cast<Time>(k) * period, wcet);
      }
      if (ok) return s;
    }
    return std::nullopt;
  }

  /// The search earliest_fit made before the leapfrog (DESIGN.md F37):
  /// instance 0 steps to its first free start, then instances 1..n-1 are
  /// probed in order and the first conflict jumps S so that the instance
  /// lands at the conflicting piece's end (circularly); repeat.
  std::optional<Time> probe_and_jump_fit(Time lb, Time period, Time wcet,
                                         InstanceIdx n) const {
    const Time limit = lb + period;
    Time s = lb;
    while (true) {
      while (s < limit && !fits(s, wcet)) ++s;
      if (s >= limit) return std::nullopt;  // a jump may overshoot
      Time jump = 0;
      for (InstanceIdx k = 1; k < n; ++k) {
        const Time inst_start = s + static_cast<Time>(k) * period;
        if (const std::optional<Entry> e = conflicting_entry(inst_start, wcet)) {
          jump = mod_floor(e->pos + e->len - inst_start, h_);
          if (jump == 0) jump = h_;
          break;
        }
      }
      if (jump == 0) return s;
      s += jump;
    }
  }

  Time busy_time() const {
    Time total = 0;
    for (const Entry& e : entries_) total += e.len;
    return total;
  }

  std::size_t piece_count() const { return entries_.size(); }

 private:
  std::vector<Entry> sorted() const {
    std::vector<Entry> out = entries_;
    std::sort(out.begin(), out.end(),
              [](const Entry& a, const Entry& b) { return a.pos < b.pos; });
    return out;
  }

  Time h_;
  std::vector<Entry> entries_;
};

void churn(Time h, std::uint64_t seed, int steps) {
  SCOPED_TRACE("H=" + std::to_string(h) + " seed=" + std::to_string(seed));
  ProcTimeline timeline(h);
  NaiveTimeline naive(h);
  Rng rng(seed);
  std::vector<TaskInstance> live;
  TaskId next_task = 0;

  for (int step = 0; step < steps; ++step) {
    const std::int64_t action = rng.uniform(0, 9);
    if (action < 4 || live.empty()) {
      // Add a random interval if it fits (both sides must agree it does).
      const Time len = rng.uniform(1, std::min<Time>(h, 7));
      const Time start = rng.uniform(0, 2 * h - 1);  // exercises mod_floor
      const TaskInstance owner{next_task, 0};
      ASSERT_EQ(timeline.fits(start, len), naive.fits(start, len));
      if (timeline.fits(start, len)) {
        // Alternate the checked and unchecked insertion paths.
        if (step % 2 == 0) {
          timeline.add(start, len, owner);
        } else {
          timeline.add_unchecked(start, len, owner);
        }
        naive.add(start, len, owner);
        live.push_back(owner);
        ++next_task;
      }
    } else if (action < 7) {
      const auto idx = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(live.size()) - 1));
      // The start one lap early, on the circle or one lap late: removal
      // takes it mod H.
      const Time lap = static_cast<Time>(step % 3 - 1) * h;
      timeline.remove(live[idx], naive.start_of(live[idx]) + lap);
      naive.remove(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (action < 9) {
      // Which interval blocks: the walk's first landing is the end of the
      // naive scan's conflicting owner. Queries start anywhere from one lap
      // early to one lap late, some over the whole circle; fits() answers
      // through the same walk.
      const Time len =
          rng.chance(0.1) ? h : rng.uniform(1, std::min<Time>(h, 9));
      const Time start = rng.uniform(-h, 2 * h);
      std::optional<Time> landing;
      timeline.walk_blocking(
          start, len, [](TaskInstance) { return false; },
          [&](Time at) {
            landing = at;
            return false;
          });
      ASSERT_EQ(landing, naive.first_landing(start, len))
          << "start=" << start << " len=" << len;
      ASSERT_EQ(timeline.fits(start, len), naive.fits(start, len))
          << "start=" << start << " len=" << len;
    } else if (h >= 4 && h <= 4096) {
      // Whole strict-periodic task probe (n instances spaced T apart): lb
      // on either side of the circle, wcet from a few ticks up to the whole
      // period. Skipped on giant circles: the reference scans
      // start-by-start.
      const InstanceIdx counts[] = {1, 2, 4};
      InstanceIdx n = counts[rng.uniform(0, 2)];
      if (h % n != 0) n = 1;
      const Time period = h / n;
      const std::int64_t shape = rng.uniform(0, 7);
      const Time wcet = shape == 0  ? period
                        : shape < 3 ? rng.uniform(1, period)
                                    : rng.uniform(1, std::min<Time>(period, 5));
      const Time lb = rng.uniform(-2 * h, 2 * h - 1);
      ASSERT_EQ(timeline.earliest_fit(lb, period, wcet, n),
                naive.earliest_fit(lb, period, wcet, n))
          << "lb=" << lb << " period=" << period << " wcet=" << wcet
          << " n=" << n;
    }
    ASSERT_TRUE(timeline.check_index_integrity());
    ASSERT_EQ(timeline.piece_count(), naive.piece_count());
    ASSERT_EQ(timeline.busy_time(), naive.busy_time());
  }
}

TEST(ProcTimelineBuckets, SingleBucketCircle) {
  // H small enough that every piece lands in bucket width 1.
  churn(/*h=*/12, /*seed=*/1, /*steps=*/400);
  churn(/*h=*/7, /*seed=*/2, /*steps=*/300);
}

TEST(ProcTimelineBuckets, AtTheBucketCeiling) {
  // H == kMaxBuckets and just past it: width-1 and width-2 buckets.
  churn(/*h=*/256, /*seed=*/3, /*steps=*/600);
  churn(/*h=*/257, /*seed=*/4, /*steps=*/600);
}

TEST(ProcTimelineBuckets, SparseGiantCircle) {
  // Most buckets empty: the bitmap walks dominate the queries.
  churn(/*h=*/1'000'000, /*seed=*/5, /*steps=*/250);
}

TEST(ProcTimelineBuckets, DenseSmallCircle) {
  // High occupancy forces long probe chains and frequent rejects.
  churn(/*h=*/48, /*seed=*/6, /*steps=*/800);
}

/// Every (lb, n, wcet) probe of \p timeline against \p naive: lb over
/// [-2H, 2H), n in {1, 2, 4} where it divides H, wcet in [1, period].
void expect_every_fit_matches(const ProcTimeline& timeline,
                              const NaiveTimeline& naive, Time h) {
  for (const InstanceIdx n : {1, 2, 4}) {
    if (h % n != 0) continue;
    const Time period = h / n;
    for (Time wcet = 1; wcet <= period; ++wcet) {
      for (Time lb = -2 * h; lb < 2 * h; ++lb) {
        ASSERT_EQ(timeline.earliest_fit(lb, period, wcet, n),
                  naive.earliest_fit(lb, period, wcet, n))
            << "lb=" << lb << " period=" << period << " wcet=" << wcet
            << " n=" << n;
      }
    }
  }
}

TEST(ProcTimelineBuckets, EveryProbeOnSmallCircles) {
  // Random fills of small circles, then every probe shape: the gap walk
  // and the instance jumps against the start-by-start reference.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Time h = seed % 2 == 0 ? 24 : 20;
    SCOPED_TRACE("H=" + std::to_string(h) + " seed=" + std::to_string(seed));
    ProcTimeline timeline(h);
    NaiveTimeline naive(h);
    Rng rng(seed);
    for (TaskId t = 0; t < 8; ++t) {
      const Time len = rng.uniform(1, 4);
      const Time start = rng.uniform(0, h - 1);
      if (!naive.fits(start, len)) continue;
      timeline.add(start, len, TaskInstance{t, 0});
      naive.add(start, len, TaskInstance{t, 0});
    }
    expect_every_fit_matches(timeline, naive, /*h=*/h);
  }
}

/// A circle of circumference \p h filled lap by lap (laps of \p period)
/// with one random pattern of pieces 1..4 long and gaps g-1..g+1 wide,
/// each piece kept with probability 7/8 and nudged by one tick with
/// probability 1/8, where it still fits. Nearly periodic, so n instances
/// spaced a period apart often almost agree: the case where earliest_fit's
/// leapfrog moves S back and forth between instances.
void fill_dense(ProcTimeline& timeline, NaiveTimeline& naive, Time h,
                Time period, Time g, Rng& rng) {
  std::vector<std::pair<Time, Time>> pattern;  // (offset, len) in the lap
  for (Time pos = rng.uniform(0, g);;) {
    const Time len = rng.uniform(1, 4);
    if (pos + len > period) break;
    pattern.emplace_back(pos, len);
    pos += len + rng.uniform(g - 1, g + 1);
  }
  TaskId owner = 0;
  for (Time lap = 0; lap < h; lap += period) {
    for (const auto& [offset, len] : pattern) {
      if (rng.uniform(0, 7) == 0) continue;
      Time start = lap + offset;
      if (rng.uniform(0, 7) == 0) start += rng.chance(0.5) ? 1 : -1;
      if (!naive.fits(start, len)) continue;
      timeline.add(start, len, TaskInstance{owner, 0});
      naive.add(start, len, TaskInstance{owner, 0});
      ++owner;
    }
  }
  ASSERT_TRUE(timeline.check_index_integrity());
}

TEST(ProcTimelineBuckets, DenseMultiInstanceProbesMatchBothReferences) {
  // n instances of period T on a circle of H = n*T (a task's own
  // hyper-period) and of H > n*T (a longer circle), E within a tick of the
  // typical gap g, every lb in [-2H, 2H): the leapfrog must return what the
  // start-by-start search and the probe-and-jump loop return.
  for (const InstanceIdx n : {2, 3, 4, 8, 16}) {
    const Time period = std::max<Time>(12, 96 / n);
    for (const Time h : {n * period, n * period + period / 2 + 1}) {
      for (const Time g : {Time{3}, Time{5}}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " T=" +
                     std::to_string(period) + " H=" + std::to_string(h) +
                     " g=" + std::to_string(g));
        ProcTimeline timeline(h);
        NaiveTimeline naive(h);
        Rng rng(static_cast<std::uint64_t>(1000 * n + h + g));
        fill_dense(timeline, naive, h, period, g, rng);
        int fits_found = 0;
        for (Time wcet = g - 1; wcet <= g + 1; ++wcet) {
          for (Time lb = -2 * h; lb < 2 * h; ++lb) {
            const std::optional<Time> got =
                timeline.earliest_fit(lb, period, wcet, n);
            ASSERT_EQ(got, naive.earliest_fit(lb, period, wcet, n))
                << "lb=" << lb << " wcet=" << wcet;
            ASSERT_EQ(got, naive.probe_and_jump_fit(lb, period, wcet, n))
                << "lb=" << lb << " wcet=" << wcet;
            fits_found += got.has_value();
          }
        }
        // The fills leave room: the probes are not all "no fit".
        EXPECT_GT(fits_found, 0);
      }
    }
  }
}

TEST(ProcTimelineBuckets, NearFullCircleHasNoFit) {
  // Pieces of 3 with gaps of 2 all round the circle (one of them wraps):
  // nothing longer than 2 fits anywhere, from any lb.
  const Time h = 240;
  ProcTimeline timeline(h);
  NaiveTimeline naive(h);
  for (TaskId t = 0; t < 48; ++t) {
    timeline.add(5 * t + 239, 3, TaskInstance{t, 0});
    naive.add(5 * t + 239, 3, TaskInstance{t, 0});
  }
  for (const InstanceIdx n : {1, 2, 4}) {
    const Time period = h / n;
    for (const Time lb : {Time{-480}, Time{-1}, Time{0}, Time{7}, Time{239}}) {
      EXPECT_EQ(timeline.earliest_fit(lb, period, 3, n), std::nullopt);
      EXPECT_EQ(timeline.earliest_fit(lb, period, period, n), std::nullopt);
      ASSERT_EQ(timeline.earliest_fit(lb, period, 2, n),
                naive.earliest_fit(lb, period, 2, n));
    }
  }
  EXPECT_EQ(timeline.earliest_fit(0, h, 2, 1), 2);
}

TEST(ProcTimelineBuckets, OnlyFittingGapStraddlesTheWrap) {
  // Pieces of 5 with gaps of 1 cover [5, 94); the one gap of 11 is
  // [94, 105) mod 100, split across H. A wcet-11 task fits only there.
  const Time h = 100;
  ProcTimeline timeline(h);
  NaiveTimeline naive(h);
  for (TaskId t = 0; t < 15; ++t) {
    timeline.add(5 + 6 * t, 5, TaskInstance{t, 0});
    naive.add(5 + 6 * t, 5, TaskInstance{t, 0});
  }
  EXPECT_EQ(timeline.earliest_fit(0, h, 11, 1), 94);
  EXPECT_EQ(timeline.earliest_fit(-150, h, 11, 1), -106);
  EXPECT_EQ(timeline.earliest_fit(95, h, 11, 1), 194);
  EXPECT_EQ(timeline.earliest_fit(94, h, 11, 1), 94);
  EXPECT_EQ(timeline.earliest_fit(95, h, 10, 1), 95);
  EXPECT_EQ(timeline.earliest_fit(0, h, 12, 1), std::nullopt);
  for (Time lb = -2 * h; lb < 2 * h; ++lb) {
    for (const Time wcet : {Time{1}, Time{2}, Time{10}, Time{11}}) {
      ASSERT_EQ(timeline.earliest_fit(lb, h, wcet, 1),
                naive.earliest_fit(lb, h, wcet, 1))
          << "lb=" << lb << " wcet=" << wcet;
    }
  }
}

TEST(ProcTimelineBuckets, DenseSmallGapsWalkTheWholeCircle) {
  // 400 pieces of 2 with gaps of 1, then one piece removed near the end:
  // a wcet-2 probe from the start of the circle walks hundreds of pieces
  // to reach the one gap of 4.
  const Time h = 1200;
  ProcTimeline timeline(h);
  NaiveTimeline naive(h);
  for (TaskId t = 0; t < 400; ++t) {
    timeline.add(3 * t, 2, TaskInstance{t, 0});
    naive.add(3 * t, 2, TaskInstance{t, 0});
  }
  EXPECT_EQ(timeline.earliest_fit(0, h, 2, 1), std::nullopt);
  EXPECT_EQ(timeline.earliest_fit(0, h, 1, 1), 2);
  timeline.remove(TaskInstance{350, 0}, 1050);
  naive.remove(TaskInstance{350, 0});
  ASSERT_TRUE(timeline.check_index_integrity());
  EXPECT_EQ(timeline.earliest_fit(0, h, 2, 1), 1049);
  EXPECT_EQ(timeline.earliest_fit(0, h, 4, 1), 1049);
  EXPECT_EQ(timeline.earliest_fit(0, h, 5, 1), std::nullopt);
  EXPECT_EQ(timeline.earliest_fit(1051, h, 2, 1), 1051);
  EXPECT_EQ(timeline.earliest_fit(1052, h, 2, 1), 1049 + h);
  for (const Time lb : {Time{-2400}, Time{0}, Time{1050}, Time{1199}}) {
    for (const InstanceIdx n : {1, 2, 4}) {
      ASSERT_EQ(timeline.earliest_fit(lb, h / n, 2, n),
                naive.earliest_fit(lb, h / n, 2, n))
          << "lb=" << lb << " n=" << n;
    }
  }
}

TEST(ProcTimelineBuckets, ExactFitInsideACrowdedBucket) {
  // Pieces of 1 on every even tick of H = 2048 (buckets of 8 ticks, four
  // pieces each), then one removed: its bucket's widest inner gap is
  // exactly 3, the only gap of 3 on the circle. A walk that crossed that
  // bucket in one step would miss it.
  const Time h = 2048;
  ProcTimeline timeline(h);
  NaiveTimeline naive(h);
  for (TaskId t = 0; t < 1024; ++t) {
    timeline.add(2 * t, 1, TaskInstance{t, 0});
    naive.add(2 * t, 1, TaskInstance{t, 0});
  }
  timeline.remove(TaskInstance{802, 0}, 1604);  // [1604, 1605)
  naive.remove(TaskInstance{802, 0});
  ASSERT_TRUE(timeline.check_index_integrity());
  EXPECT_EQ(timeline.earliest_fit(0, h, 3, 1), 1603);
  EXPECT_EQ(timeline.earliest_fit(1603, h, 3, 1), 1603);
  EXPECT_EQ(timeline.earliest_fit(1604, h, 3, 1), 1603 + h);
  EXPECT_EQ(timeline.earliest_fit(0, h, 4, 1), std::nullopt);
  for (const Time lb : {Time{-h}, Time{-1}, Time{0}, Time{801}, Time{1600},
                        Time{2047}, Time{3000}}) {
    for (const Time wcet : {Time{1}, Time{2}, Time{3}}) {
      for (const InstanceIdx n : {1, 2}) {
        ASSERT_EQ(timeline.earliest_fit(lb, h / n, wcet, n),
                  naive.earliest_fit(lb, h / n, wcet, n))
            << "lb=" << lb << " wcet=" << wcet << " n=" << n;
      }
    }
  }
}

TEST(ProcTimelineBuckets, WrapHeavy) {
  ProcTimeline tl(100);
  NaiveTimeline naive(100);
  // Wrapping owners occupy two pieces (buckets at both ends of the circle).
  tl.add(95, 10, TaskInstance{0, 0});
  naive.add(95, 10, TaskInstance{0, 0});
  ASSERT_TRUE(tl.check_index_integrity());
  EXPECT_EQ(tl.piece_count(), 2u);
  for (Time t = 0; t < 100; ++t) {
    ASSERT_EQ(tl.fits(t, 3), naive.fits(t, 3)) << "t=" << t;
  }
  tl.remove(TaskInstance{0, 0}, 95);
  naive.remove(TaskInstance{0, 0});
  ASSERT_TRUE(tl.check_index_integrity());
  EXPECT_EQ(tl.piece_count(), 0u);
  EXPECT_TRUE(tl.fits(0, 100));
}

TEST(ProcTimelineBuckets, SamePiecesIgnoresInsertionHistory) {
  // The engine's occupancy invariant compares a long-lived timeline with a
  // fresh rebuild: equal piece sets must compare equal whatever the order
  // of adds and removes, and any differing start, length or owner must not.
  ProcTimeline built(100);
  built.add(90, 20, TaskInstance{0, 0});  // wraps: two pieces
  built.add(30, 5, TaskInstance{1, 0});
  built.add(50, 5, TaskInstance{2, 0});
  built.remove(TaskInstance{2, 0}, 50);

  ProcTimeline fresh(100);
  fresh.add(30, 5, TaskInstance{1, 0});
  fresh.add(90, 20, TaskInstance{0, 0});
  EXPECT_TRUE(built.same_pieces(fresh));
  EXPECT_TRUE(fresh.same_pieces(built));

  ProcTimeline moved(100);
  moved.add(30, 5, TaskInstance{1, 0});
  moved.add(91, 20, TaskInstance{0, 0});
  EXPECT_FALSE(built.same_pieces(moved));

  ProcTimeline other_owner(100);
  other_owner.add(30, 5, TaskInstance{1, 1});
  other_owner.add(90, 20, TaskInstance{0, 0});
  EXPECT_FALSE(built.same_pieces(other_owner));

  ProcTimeline other_circle(200);
  EXPECT_FALSE(ProcTimeline(100).same_pieces(other_circle));
  EXPECT_TRUE(ProcTimeline(100).same_pieces(ProcTimeline(100)));
}

/// Churn with rollbacks, the way ScheduleJournal drives a timeline: random
/// adds and removals are logged, and every so often the newest few are
/// undone in reverse (an add by remove() at the start it was added at, a
/// removal by restore() of the interval it released), so that bucket
/// summaries are exercised after
/// erasures and re-insertions alike. After every step the index is audited
/// (summaries included), and whole-task probes must match the start-by-
/// start search and the probe-and-jump loop.
void churn_with_rollbacks(Time h, std::uint64_t seed, int steps) {
  SCOPED_TRACE("H=" + std::to_string(h) + " seed=" + std::to_string(seed));
  ProcTimeline timeline(h);
  NaiveTimeline naive(h);
  Rng rng(seed);
  struct Edit {
    bool added;
    TaskInstance owner;
    ProcTimeline::Released released;  // an add: its start, not taken mod H
  };
  std::vector<Edit> log;
  std::vector<TaskInstance> live;
  TaskId next_task = 0;
  const auto forget = [&](TaskInstance owner) {
    live.erase(std::find(live.begin(), live.end(), owner));
  };
  for (int step = 0; step < steps; ++step) {
    const std::int64_t action = rng.uniform(0, 19);
    if (action < 9 || live.empty()) {
      const Time len = rng.uniform(1, std::min<Time>(h, 6));
      const Time start = rng.uniform(-h, 2 * h - 1);
      if (naive.fits(start, len)) {
        const TaskInstance owner{next_task++, 0};
        timeline.add_unchecked(start, len, owner);
        naive.add(start, len, owner);
        live.push_back(owner);
        log.push_back(Edit{true, owner, {start, len}});
      }
    } else if (action < 14) {
      const TaskInstance owner = live[static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(live.size()) - 1))];
      const ProcTimeline::Released released =
          timeline.remove(owner, naive.start_of(owner));
      naive.remove(owner);
      forget(owner);
      log.push_back(Edit{false, owner, released});
    } else if (action < 16) {
      // Roll back the newest 1..8 edits, newest first.
      for (std::int64_t n = rng.uniform(1, 8); n > 0 && !log.empty(); --n) {
        const Edit e = log.back();
        log.pop_back();
        if (e.added) {
          timeline.remove(e.owner, e.released.start);
          naive.remove(e.owner);
          forget(e.owner);
        } else {
          timeline.restore(e.owner, e.released);
          naive.add(e.released.start, e.released.len, e.owner);
          live.push_back(e.owner);
        }
      }
    } else {
      const InstanceIdx counts[] = {1, 2, 3, 4};
      InstanceIdx n = counts[rng.uniform(0, 3)];
      if (h % n != 0) n = 1;
      const Time period = h / n;
      const Time wcet = rng.uniform(1, std::min<Time>(period, 7));
      const Time lb = rng.uniform(-2 * h, 2 * h - 1);
      const std::optional<Time> got = timeline.earliest_fit(lb, period, wcet, n);
      ASSERT_EQ(got, naive.earliest_fit(lb, period, wcet, n))
          << "lb=" << lb << " period=" << period << " wcet=" << wcet
          << " n=" << n;
      ASSERT_EQ(got, naive.probe_and_jump_fit(lb, period, wcet, n))
          << "lb=" << lb << " period=" << period << " wcet=" << wcet
          << " n=" << n;
    }
    ASSERT_TRUE(timeline.check_index_integrity());
    ASSERT_EQ(timeline.piece_count(), naive.piece_count());
  }
}

TEST(ProcTimelineBuckets, SummariesStayExactUnderRollbackChurn) {
  // Circles of 1, 2, 4 and 16 ticks per bucket: crowded buckets whose
  // widest gap the walk compares with the wcet, split by adds and merged
  // by removals and rollbacks.
  churn_with_rollbacks(/*h=*/240, /*seed=*/31, /*steps=*/1500);
  churn_with_rollbacks(/*h=*/480, /*seed=*/32, /*steps=*/2500);
  churn_with_rollbacks(/*h=*/960, /*seed=*/33, /*steps=*/3000);
  churn_with_rollbacks(/*h=*/4096, /*seed=*/34, /*steps=*/3000);
}

TEST(ProcTimelineBulk, IntervalsMatchIncrementalAddsIncludingWraps) {
  // Starts on either side of [0, H) and one interval across H: the bulk
  // build holds the pieces add_unchecked() leaves, and removes and restores
  // every owner as an incrementally built timeline does.
  const Time h = 100;
  const std::vector<ProcTimeline::Interval> fitting = {
      {97, 6, TaskInstance{0, 0}},  // wraps: [97, 100) and [0, 3)
      {30, 5, TaskInstance{1, 0}},   {250, 3, TaskInstance{2, 0}},
      {-40, 8, TaskInstance{3, 0}},  {188, 4, TaskInstance{4, 0}},
      {-207, 3, TaskInstance{5, 1}}, {6, 20, TaskInstance{6, 2}},
  };
  ProcTimeline added(h);
  for (const ProcTimeline::Interval& in : fitting) {
    added.add_unchecked(in.start, in.len, in.owner);
  }
  const ProcTimeline bulk(h, fitting);
  EXPECT_TRUE(bulk.check_index_integrity());
  EXPECT_TRUE(bulk.same_pieces(added));
  EXPECT_EQ(bulk.piece_count(), fitting.size() + 1);
  EXPECT_EQ(bulk.busy_time(), added.busy_time());
  for (const ProcTimeline::Interval& in : fitting) {
    ProcTimeline copy = bulk;
    const ProcTimeline::Released released = copy.remove(in.owner, in.start);
    EXPECT_EQ(released.start, mod_floor(in.start, h));
    EXPECT_EQ(released.len, in.len);
    EXPECT_TRUE(copy.check_index_integrity());
    copy.restore(in.owner, released);
    EXPECT_TRUE(copy.check_index_integrity());
    EXPECT_TRUE(copy.same_pieces(added));
  }
  EXPECT_TRUE(ProcTimeline(h, {}).same_pieces(ProcTimeline(h)));
}

TEST(ProcTimelineBulk, RejectsOverlapsAndRepeatedOwnersUnderVerify) {
  using Interval = ProcTimeline::Interval;
  const std::vector<Interval> too_long = {{0, 101, TaskInstance{0, 0}}};
  EXPECT_THROW(ProcTimeline(100, too_long), PreconditionError);
#if LBMEM_TIMELINE_VERIFY
  // A repeated owner, next to its twin (build_occupancy's ascending order)
  // or apart.
  const std::vector<std::vector<Interval>> repeated = {
      {{0, 1, TaskInstance{0, 0}}, {10, 1, TaskInstance{0, 0}}},
      {{50, 1, TaskInstance{3, 0}},
       {0, 1, TaskInstance{1, 0}},
       {70, 5, TaskInstance{3, 0}}},
  };
  for (const std::vector<Interval>& bad : repeated) {
    EXPECT_THROW(ProcTimeline(100, bad), PreconditionError);
  }
  const std::vector<std::vector<Interval>> overlapping = {
      {{10, 5, TaskInstance{0, 0}}, {14, 3, TaskInstance{1, 0}}},
      {{10, 5, TaskInstance{0, 0}}, {110, 1, TaskInstance{1, 0}}},
      // Only across H: [95, 105) meets [3, 4).
      {{3, 1, TaskInstance{0, 0}}, {95, 10, TaskInstance{1, 0}}},
      // Pieces of different buckets (width 2 at H = 300).
      {{0, 150, TaskInstance{0, 0}}, {149, 2, TaskInstance{1, 0}}},
  };
  for (const std::vector<Interval>& bad : overlapping) {
    const Time h = bad.front().len == 150 ? 300 : 100;
    EXPECT_THROW(ProcTimeline(h, bad), PreconditionError);
  }
#endif
}

/// One balanced instance of the perfbench family (period levels 3, edge
/// probability 0.15, in-degree at most 2, M = 8, C = 2).
Schedule balanced_perfbench_schedule(const SuiteInstance& instance) {
  return LoadBalancer().balance(instance.schedule).schedule;
}

TEST(ProcTimelineBulk, BuildOccupancyMatchesIncrementalAdds) {
  SuiteSpec spec;
  spec.params.tasks = 400;
  spec.params.period_levels = 3;
  spec.params.edge_probability = 0.15;
  spec.params.max_in_degree = 2;
  spec.processors = 8;
  spec.comm_cost = 2;
  spec.count = 1;
  spec.base_seed = 63'400;
  spec.max_seed_attempts = 400;
  const std::vector<SuiteInstance> suite = make_suite(spec);
  ASSERT_EQ(suite.size(), 1u);
  const Schedule sched = balanced_perfbench_schedule(suite.front());
  const TaskGraph& graph = sched.graph();

  std::vector<ProcTimeline> added(8, ProcTimeline(graph.hyperperiod()));
  std::vector<std::vector<TaskInstance>> owners(8);
  int wrapping = 0;
  for (TaskId t = 0; t < static_cast<TaskId>(graph.task_count()); ++t) {
    for (InstanceIdx k = 0; k < graph.instance_count(t); ++k) {
      const TaskInstance inst{t, k};
      const auto p = static_cast<std::size_t>(sched.proc(inst));
      added[p].add_unchecked(sched.start(inst), graph.task(t).wcet, inst);
      owners[p].push_back(inst);
      wrapping += mod_floor(sched.start(inst), graph.hyperperiod()) +
                      graph.task(t).wcet >
                  graph.hyperperiod();
    }
  }
  EXPECT_GT(wrapping, 0) << "no instance crosses H: the wrap is untested";

  std::vector<ProcTimeline> bulk = build_occupancy(sched);
  ASSERT_EQ(bulk.size(), added.size());
  for (std::size_t p = 0; p < bulk.size(); ++p) {
    SCOPED_TRACE("processor " + std::to_string(p));
    ASSERT_TRUE(bulk[p].check_index_integrity());
    ASSERT_TRUE(bulk[p].same_pieces(added[p]));
    ASSERT_EQ(bulk[p].piece_count(), added[p].piece_count());
    // Every owner leaves and returns exactly, as a journal rollback needs.
    for (const TaskInstance owner : owners[p]) {
      const ProcTimeline::Released released =
          bulk[p].remove(owner, sched.start(owner));
      ASSERT_EQ(released.len, graph.task(owner.task).wcet);
      ASSERT_TRUE(bulk[p].check_index_integrity());
      bulk[p].restore(owner, released);
    }
    ASSERT_TRUE(bulk[p].check_index_integrity());
    ASSERT_TRUE(bulk[p].same_pieces(added[p]));
    // And every owner can leave for good.
    for (const TaskInstance owner : owners[p]) {
      bulk[p].remove(owner, sched.start(owner));
    }
    ASSERT_EQ(bulk[p].piece_count(), 0u);
    ASSERT_TRUE(bulk[p].check_index_integrity());
  }
}

TEST(ProcTimelineBulk, BuildOccupancyRejectsAnOverlapUnderVerify) {
  TaskGraph graph;
  graph.add_task("a", 10, 4, 1);
  graph.add_task("b", 10, 4, 1);
  graph.freeze();
  Schedule sched(graph, Architecture(2), CommModel::flat(1));
  sched.set_first_start(0, 2);
  sched.set_first_start(1, 5);  // [5, 9) meets a's [2, 6) on P0
  sched.assign_all(0, 0);
  sched.assign_all(1, 0);
#if LBMEM_TIMELINE_VERIFY
  EXPECT_THROW(build_occupancy(sched), PreconditionError);
#endif
  sched.assign_all(1, 1);
  const std::vector<ProcTimeline> occ = build_occupancy(sched);
  EXPECT_EQ(occ[0].piece_count(), 1u);
  EXPECT_EQ(occ[1].piece_count(), 1u);
}

}  // namespace
}  // namespace lbmem
