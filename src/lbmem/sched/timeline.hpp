#pragma once
/// \file timeline.hpp
/// \brief Per-processor occupancy on the hyper-period circle.
///
/// A strict-periodic schedule repeats with period H, so processor
/// exclusivity is equivalent to: the occupation intervals of all instances
/// placed on the processor are pairwise disjoint modulo H. ProcTimeline
/// maintains that circular occupancy and answers three questions, each
/// with the one forward walk over the pieces in start order (DESIGN.md
/// F37, F41, F44):
///   * does an instance interval fit? (used by the checked add and the
///     load balancer's re-adds)
///   * what is the earliest start >= lb at which a whole strict-periodic
///     task (n instances spaced T apart) fits? (used by the scheduler)
///   * which pieces, skipping some owners, does an interval sliding later
///     from x run into? (used by the balancer's gain reduction and its
///     overlap check of a pinned block)
///
/// Feasibility of a first-instance start S is periodic in S with period T:
/// shifting S by T reproduces the same occupied positions modulo H, so the
/// earliest-fit search only ever scans [lb, lb+T).
///
/// The balancer churns add/remove heavily (it re-attaches the instances of
/// every block it relocates), so the storage is organised for cheap
/// mutation (DESIGN.md F16): [0, H) is divided into at most kMaxBuckets
/// coarse time buckets of power-of-two width, and each bucket holds the
/// (sorted) pieces starting inside it. An add or remove then shifts only
/// one bucket's few pieces instead of memmoving a processor-wide sorted
/// array, and a walk starts with one bucket's binary search plus the
/// global predecessor. Pieces are pairwise disjoint, so only the immediate
/// predecessor of a query point can reach into it; a bitmap of non-empty
/// buckets finds that predecessor (and skips empty regions of sparse
/// timelines) with a couple of word scans. A removal names the start of the
/// interval it releases, which every caller already holds (DESIGN.md F42),
/// so it finds the owner's pieces with the same bucket lookup. Each bucket
/// also keeps a summary (its first start, its last end and its widest gap
/// between consecutive pieces) that lets the gap walk behind earliest_fit
/// cross a bucket too crowded for the searched length in one step, and a
/// timeline built from a whole set of intervals at once fills every bucket
/// in one pass (DESIGN.md F40). The balancer's filtered walk shares that gap
/// walk's start lookup and bucket advance (F41).

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "lbmem/model/types.hpp"
#include "lbmem/util/check.hpp"
#include "lbmem/util/math.hpp"

/// When 1, add_unchecked() still performs the full fits() verification,
/// and add_unchecked(), the bulk build and remove() check that an owner
/// holds one interval.
/// Defaults to on for debug/sanitizer builds and off for optimized builds;
/// override with -DLBMEM_TIMELINE_VERIFY=0/1.
#ifndef LBMEM_TIMELINE_VERIFY
#ifdef NDEBUG
#define LBMEM_TIMELINE_VERIFY 0
#else
#define LBMEM_TIMELINE_VERIFY 1
#endif
#endif

namespace lbmem {

/// Circular occupancy of one processor over the hyper-period [0, H).
class ProcTimeline {
 public:
  /// \param hyperperiod circle circumference H (> 0)
  explicit ProcTimeline(Time hyperperiod);

  /// One owner's interval [start, start+len) (repeated mod H).
  struct Interval {
    Time start;
    Time len;
    TaskInstance owner;
  };

  /// A timeline holding exactly \p intervals, built in one pass (DESIGN.md
  /// F40): each bucket is reserved and sorted once. The same pieces as
  /// adding the intervals one by one through add_unchecked(), with the same
  /// contract: the intervals must be pairwise disjoint and their owners
  /// distinct, which only LBMEM_TIMELINE_VERIFY builds check
  /// (PreconditionError).
  ProcTimeline(Time hyperperiod, std::span<const Interval> intervals);

  /// Would interval [start, start+len) (repeated mod H) be free? The gap
  /// walk from start, stopped one tick on: free when it stays at start.
  /// Requires 0 < len <= H (PreconditionError).
  bool fits(Time start, Time len) const;

  /// Occupy [start, start+len) for \p owner; throws PreconditionError if it
  /// does not fit or the owner already holds an interval here (an owner
  /// holds one interval, stored as two pieces when it wraps).
  void add(Time start, Time len, TaskInstance owner);

  /// add() without the redundant conflict query, for callers that have
  /// already proven the interval free (a successful fits()/earliest_fit()
  /// probe, or insertion from a validated schedule). The contract is the
  /// caller's to uphold: adding an overlapping interval through this path
  /// corrupts the timeline in optimized builds. Under LBMEM_TIMELINE_VERIFY
  /// (debug/sanitizer builds) the full fits() check still runs and throws.
  void add_unchecked(Time start, Time len, TaskInstance owner);

  /// The interval remove() released: start in [0, H), len 0 when the
  /// owner held no interval starting there.
  struct Released {
    Time start = 0;
    Time len = 0;
  };

  /// Release the interval of \p owner that starts at \p start (taken mod
  /// H), both pieces when it wraps, and return it so that restore() can
  /// undo the removal exactly (DESIGN.md F42). A no-op returning len 0
  /// when no interval of the owner starts there; LBMEM_TIMELINE_VERIFY
  /// builds then throw PreconditionError if the owner holds one elsewhere.
  Released remove(TaskInstance owner, Time start);

  /// Undo remove(): put \p interval back for \p owner, split into the
  /// same pieces. Called on the state remove() left (every later change
  /// undone), it neither allocates nor throws: each piece returns to a
  /// bucket that kept its capacity (ScheduleJournal::rollback).
  void restore(TaskInstance owner, const Released& interval) noexcept;

  /// The filtered gap walk behind the balancer's gain reduction (DESIGN.md
  /// F41) and, stopped at its first landing, behind its overlap check of a
  /// pinned block (F44). From \p x, the walk steps past each piece that
  /// overlaps [cur, cur+len) and whose owner \p ignore (a callable
  /// TaskInstance -> bool) does not skip, in start order on the unrolled
  /// circle, and reports every landing to \p on_landing (a callable
  /// Time -> bool that returns false to stop the walk). A landing is the
  /// blocking owner's end: the first position after cur that is congruent
  /// to it modulo H, so a wrapped owner lands once, past H, and a
  /// full-circle owner one lap on. Returns true once [cur, cur+len) is
  /// free of blocking pieces, false when on_landing stopped the walk.
  /// Requires 0 < len <= H. Every piece is visited: no bucket is crossed
  /// on its summary, because each landing counts for the caller.
  template <typename Ignore, typename OnLanding>
  bool walk_blocking(Time x, Time len, Ignore&& ignore,
                     OnLanding&& on_landing) const {
    LBMEM_REQUIRE(len > 0 && len <= h_, "interval length must be in (0, H]");
    if (piece_count_ == 0) return true;
    const Time pos = circle_pos(x);
    const Time base = x - pos;
    Cursor c;
    Time cur = pos;
    if (const Piece* prev = seek(pos, c)) {
      if (prev->start + prev->len > pos && !ignore(prev->owner)) {
        cur = owner_end(*prev, 0);
        if (!on_landing(base + cur)) return false;
      }
    }
    while (true) {
      if (c.i == c.bucket->pieces.size()) next_bucket(c);
      const Piece& p = c.bucket->pieces[c.i++];
      const Time start = c.lap + p.start;
      if (start >= cur + len) return true;  // [cur, cur+len) is free
      // Only a wrapped owner's second piece can end by cur: its landing
      // already passed it.
      if (start + p.len <= cur || ignore(p.owner)) continue;
      cur = owner_end(p, c.lap);
      if (!on_landing(base + cur)) return false;
    }
  }

  /// Earliest S in [lb, lb+period) such that every instance interval
  /// [S + k*period, +wcet), k in [0, n), fits. std::nullopt if none exists.
  /// Requires n*period <= H. A leapfrog over the instances (DESIGN.md
  /// F39): instance k = 0, 1, ..., n-1, 0, ... in turn walks the free gaps
  /// (first_free) from S + k*period to its first fit and, if that lies
  /// later, moves S there; S is returned once n instances in a row fit
  /// without moving it. Each move lands on the smallest start >= S at
  /// which instance k fits, so S never passes the answer.
  std::optional<Time> earliest_fit(Time lb, Time period, Time wcet,
                                   InstanceIdx n) const;

  /// Total occupied time within one hyper-period.
  Time busy_time() const;

  /// Hyper-period this timeline was built for.
  Time hyperperiod() const { return h_; }

  /// Number of stored (possibly split) interval pieces.
  std::size_t piece_count() const { return piece_count_; }

  /// Number of buckets holding at least one piece.
  std::size_t nonempty_buckets() const {
    std::size_t count = 0;
    for (const std::uint64_t word : nonempty_) {
      count += static_cast<std::size_t>(__builtin_popcountll(word));
    }
    return count;
  }

  /// Exhaustive structural audit for tests: every piece inside [0, H) and
  /// in its start's bucket, buckets sorted and globally disjoint, every
  /// bucket summary exact, the non-empty bitmap and the piece counter
  /// consistent.
  bool check_index_integrity() const;

  /// Same circle and exactly the same pieces (start, length, owner),
  /// whatever order they were added in. For invariant checks.
  bool same_pieces(const ProcTimeline& other) const {
    return h_ == other.h_ &&
           std::equal(buckets_.begin(), buckets_.end(), other.buckets_.begin(),
                      other.buckets_.end(),
                      [](const Bucket& a, const Bucket& b) {
                        return a.pieces == b.pieces;
                      });
  }

 private:
  struct Piece {
    Time start;  // in [0, H)
    Time len;    // start + len <= H (wrapping intervals are split)
    TaskInstance owner;
    bool operator==(const Piece&) const = default;
  };
  /// The pieces starting inside one bucket, and their summary (DESIGN.md
  /// F40). insert_piece, erase_piece_at and the bulk build keep the summary
  /// exact; it is all zero while the bucket is empty.
  struct Bucket {
    std::vector<Piece> pieces;  // sorted by start
    Time first = 0;             // start of the first piece
    Time last_end = 0;          // end of the last piece
    Time max_gap = 0;  // widest gap between consecutive pieces, 0 for one
  };
  /// Bucket-count ceiling: wide enough to keep per-bucket populations
  /// small for realistic timelines, small enough that the bitmap stays in
  /// four words and per-timeline overhead stays a few KB.
  static constexpr Time kMaxBuckets = 256;

  std::size_t bucket_of(Time t) const {
    return static_cast<std::size_t>(t >> bucket_shift_);
  }

  /// Index of the last non-empty bucket <= \p b, or npos. One masked word
  /// scan per bitmap word, most-significant bit first.
  std::size_t prev_nonempty(std::size_t b) const {
    std::size_t word = b >> 6;
    std::uint64_t bits =
        nonempty_[word] & (~std::uint64_t{0} >> (63 - (b & 63)));
    while (true) {
      if (bits != 0) {
        return (word << 6) + 63 -
               static_cast<std::size_t>(__builtin_clzll(bits));
      }
      if (word == 0) return npos;
      bits = nonempty_[--word];
    }
  }

  /// Index of the first non-empty bucket >= \p b, or npos.
  std::size_t next_nonempty(std::size_t b) const {
    if (b >= buckets_.size()) return npos;
    std::size_t word = b >> 6;
    std::uint64_t bits = nonempty_[word] & (~std::uint64_t{0} << (b & 63));
    while (true) {
      if (bits != 0) {
        return (word << 6) +
               static_cast<std::size_t>(__builtin_ctzll(bits));
      }
      if (++word >= kWords) return npos;
      bits = nonempty_[word];
    }
  }

  /// Index of the first piece of \p v starting at or after \p a.
  static std::size_t lower_index(const std::vector<Piece>& v, Time a) {
    return static_cast<std::size_t>(
        std::lower_bound(v.begin(), v.end(), a,
                         [](const Piece& p, Time value) {
                           return p.start < value;
                         }) -
        v.begin());
  }

  /// The piece before piece \p i of bucket \p b in start order, or nullptr:
  /// piece i-1 of the bucket, else the last piece of the previous non-empty
  /// bucket.
  const Piece* piece_before(std::size_t b, std::size_t i) const {
    if (i > 0) return &buckets_[b].pieces[i - 1];
    if (b == 0) return nullptr;
    const std::size_t bp = prev_nonempty(b - 1);
    if (bp == npos) return nullptr;
    return &buckets_[bp].pieces.back();
  }

  /// Smallest y in [x, limit) such that [y, y+len) (mod H) is free, else
  /// \p limit: one forward walk over the pieces in start order on the
  /// unrolled circle (DESIGN.md F37) that crosses a bucket in one step when
  /// its summary shows no gap of len in it (F40). Requires 0 < len <= H.
  Time first_free(Time x, Time len, Time limit) const;

  // ---- the forward walk first_free and walk_blocking share -------------

  /// Where a forward walk stands: the next piece is piece i of bucket b, on
  /// the lap that starts at `lap` in unrolled coordinates.
  struct Cursor {
    std::size_t b = 0;
    const Bucket* bucket = nullptr;
    std::size_t i = 0;
    Time lap = 0;
  };

  /// x's position on the circle, in [0, H).
  Time circle_pos(Time x) const {
    return x >= 0 && x < h_ ? x : mod_floor(x, h_);
  }

  /// Point \p c at the first piece starting at or after \p pos (in [0, H))
  /// on lap 0, and return the piece before it, or nullptr. Pieces are
  /// disjoint and never cross H, so that one is the only earlier piece that
  /// can reach past pos.
  const Piece* seek(Time pos, Cursor& c) const {
    c.b = bucket_of(pos);
    c.bucket = &buckets_[c.b];
    c.i = lower_index(c.bucket->pieces, pos);
    c.lap = 0;
    return piece_before(c.b, c.i);
  }

  /// Advance \p c to the first piece of the next non-empty bucket, past the
  /// last one onto the next lap. Requires a piece.
  void next_bucket(Cursor& c) const {
    c.b = next_nonempty(c.b + 1);
    if (c.b == npos) {
      c.lap += h_;
      c.b = next_nonempty(0);
    }
    c.bucket = &buckets_[c.b];
    c.i = 0;
  }

  /// The end of \p p's owner in unrolled coordinates, for p on the lap that
  /// starts at \p lap. An owner that wraps holds [s, H) and [0, e); the
  /// first ends at H + e, on the next lap.
  Time owner_end(const Piece& p, Time lap) const {
    const Time end = lap + p.start + p.len;
    if (p.start > 0 && p.start + p.len == h_) {
      const std::vector<Piece>& head = buckets_[0].pieces;
      if (!head.empty() && head.front().start == 0 &&
          head.front().owner == p.owner) {
        return end + head.front().len;
      }
    }
    return end;
  }

  /// Is \p p the second piece of a wrapped owner, [0, e)? Its interval
  /// then starts at the last piece, which ends at H: owner_end's test, seen
  /// from the other piece.
  bool wrapped_tail(const Piece& p) const {
    if (p.start != 0) return false;
    const Piece& last =
        buckets_[prev_nonempty(buckets_.size() - 1)].pieces.back();
    return last.start > 0 && last.start + last.len == h_ &&
           last.owner == p.owner;
  }

  /// Does \p owner hold a piece? A scan of every piece, for the checks of
  /// the one-interval-per-owner contract.
  bool holds(TaskInstance owner) const;

  void add_impl(Time start, Time len, TaskInstance owner);
  void insert_piece(Piece piece);
  /// Erase piece \p i of bucket \p b.
  void erase_piece(std::size_t b, std::size_t i) noexcept;
  /// Recompute \p bucket's summary from its pieces. Cannot throw.
  static void summarize(Bucket& bucket) noexcept;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  static constexpr std::size_t kWords =
      static_cast<std::size_t>(kMaxBuckets) / 64;

  Time h_;
  int bucket_shift_ = 0;  // bucket width 2^bucket_shift_
  // Pieces starting inside each bucket, sorted by start; globally pairwise
  // disjoint across buckets.
  std::vector<Bucket> buckets_;
  std::uint64_t nonempty_[kWords] = {};  // bitmap of non-empty buckets
  std::size_t piece_count_ = 0;
};

}  // namespace lbmem
