#include "lbmem/sched/timeline.hpp"

#include <algorithm>

#include "lbmem/util/check.hpp"
#include "lbmem/util/math.hpp"

namespace lbmem {

ProcTimeline::ProcTimeline(Time hyperperiod) : h_(hyperperiod) {
  LBMEM_REQUIRE(hyperperiod > 0, "hyper-period must be positive");
  // Power-of-two bucket width so bucket lookup is a shift: the smallest
  // width that keeps the bucket count at or below kMaxBuckets.
  while (((h_ - 1) >> bucket_shift_) >= kMaxBuckets) ++bucket_shift_;
  buckets_.resize(static_cast<std::size_t>(((h_ - 1) >> bucket_shift_) + 1));
}

ProcTimeline::ProcTimeline(Time hyperperiod,
                           std::span<const Interval> intervals)
    : ProcTimeline(hyperperiod) {
  // Count every bucket's pieces first, so that each bucket is reserved
  // once; then fill the buckets unsorted, and sort each one once.
  std::uint32_t counts[kMaxBuckets] = {};
  for (const Interval& in : intervals) {
    LBMEM_REQUIRE(in.len > 0 && in.len <= h_,
                  "interval length must be in (0, H]");
    const Time s = mod_floor(in.start, h_);
    ++counts[bucket_of(s)];
    if (s + in.len > h_) ++counts[0];
  }
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    if (counts[b] != 0) buckets_[b].pieces.reserve(counts[b]);
  }
  for (const Interval& in : intervals) {
    const Time s = mod_floor(in.start, h_);
    if (s + in.len <= h_) {
      buckets_[bucket_of(s)].pieces.push_back(Piece{s, in.len, in.owner});
    } else {
      buckets_[bucket_of(s)].pieces.push_back(Piece{s, h_ - s, in.owner});
      buckets_[0].pieces.push_back(Piece{0, s + in.len - h_, in.owner});
    }
  }
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    std::vector<Piece>& v = buckets_[b].pieces;
    if (v.empty()) continue;
    std::sort(v.begin(), v.end(), [](const Piece& x, const Piece& y) {
      return x.start < y.start;
    });
    summarize(buckets_[b]);
    nonempty_[b >> 6] |= std::uint64_t{1} << (b & 63);
    piece_count_ += v.size();
  }
#if LBMEM_TIMELINE_VERIFY
  // The same checks add_unchecked() makes per interval: consecutive pieces
  // in start order must not overlap, and no owner may come twice.
  Time reach = 0;
  for (const Bucket& bucket : buckets_) {
    for (const Piece& p : bucket.pieces) {
      LBMEM_REQUIRE(p.start >= reach, "ProcTimeline: intervals overlap");
      reach = p.start + p.len;
    }
  }
  // build_occupancy passes each processor's owners in ascending order,
  // where neighbours tell without a copy; any other order is sorted first.
  const auto owner_less = [](const Interval& x, const Interval& y) {
    return x.owner < y.owner;
  };
  std::vector<Interval> sorted;
  std::span<const Interval> by_owner = intervals;
  if (!std::is_sorted(intervals.begin(), intervals.end(), owner_less)) {
    sorted.assign(intervals.begin(), intervals.end());
    std::sort(sorted.begin(), sorted.end(), owner_less);
    by_owner = sorted;
  }
  LBMEM_REQUIRE(std::adjacent_find(by_owner.begin(), by_owner.end(),
                                   [](const Interval& x, const Interval& y) {
                                     return x.owner == y.owner;
                                   }) == by_owner.end(),
                "ProcTimeline: an owner holds one interval at a time");
#endif
}

void ProcTimeline::summarize(Bucket& bucket) noexcept {
  const std::vector<Piece>& v = bucket.pieces;
  if (v.empty()) {
    bucket.first = bucket.last_end = bucket.max_gap = 0;
    return;
  }
  Time gap = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    gap = std::max(gap, v[i].start - (v[i - 1].start + v[i - 1].len));
  }
  bucket.first = v.front().start;
  bucket.last_end = v.back().start + v.back().len;
  bucket.max_gap = gap;
}

bool ProcTimeline::fits(Time start, Time len) const {
  LBMEM_REQUIRE(len > 0 && len <= h_, "interval length must be in (0, H]");
  return first_free(start, len, start + 1) == start;
}

void ProcTimeline::insert_piece(Piece piece) {
  const std::size_t b = bucket_of(piece.start);
  std::vector<Piece>& v = buckets_[b].pieces;
  v.insert(v.begin() + static_cast<std::ptrdiff_t>(lower_index(v, piece.start)),
           piece);
  summarize(buckets_[b]);
  nonempty_[b >> 6] |= std::uint64_t{1} << (b & 63);
  ++piece_count_;
}

bool ProcTimeline::holds(TaskInstance owner) const {
  // Raw pointers and fields: this scan runs on every add of the
  // unoptimized verify builds, where iterators and operator== are calls.
  const Bucket* bucket = buckets_.data();
  for (const Bucket* last = bucket + buckets_.size(); bucket != last;
       ++bucket) {
    const Piece* p = bucket->pieces.data();
    for (const Piece* end = p + bucket->pieces.size(); p != end; ++p) {
      if (p->owner.task == owner.task && p->owner.k == owner.k) return true;
    }
  }
  return false;
}

void ProcTimeline::add(Time start, Time len, TaskInstance owner) {
  LBMEM_REQUIRE(fits(start, len), "ProcTimeline::add would overlap");
  LBMEM_REQUIRE(!holds(owner),
                "ProcTimeline: an owner holds one interval at a time");
  add_impl(start, len, owner);
}

void ProcTimeline::add_unchecked(Time start, Time len, TaskInstance owner) {
#if LBMEM_TIMELINE_VERIFY
  LBMEM_REQUIRE(fits(start, len), "ProcTimeline::add_unchecked would overlap");
  LBMEM_REQUIRE(!holds(owner),
                "ProcTimeline: an owner holds one interval at a time");
#else
  LBMEM_REQUIRE(len > 0 && len <= h_, "interval length must be in (0, H]");
#endif
  add_impl(start, len, owner);
}

void ProcTimeline::add_impl(Time start, Time len, TaskInstance owner) {
  const Time s = mod_floor(start, h_);
  if (s + len <= h_) {
    insert_piece(Piece{s, len, owner});
    return;
  }
  insert_piece(Piece{s, h_ - s, owner});
  try {
    insert_piece(Piece{0, s + len - h_, owner});
  } catch (...) {
    const std::size_t b = bucket_of(s);
    erase_piece(b, lower_index(buckets_[b].pieces, s));
    throw;
  }
}

void ProcTimeline::erase_piece(std::size_t b, std::size_t i) noexcept {
  std::vector<Piece>& v = buckets_[b].pieces;
  v.erase(v.begin() + static_cast<std::ptrdiff_t>(i));
  summarize(buckets_[b]);
  if (v.empty()) nonempty_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
  --piece_count_;
}

ProcTimeline::Released ProcTimeline::remove(TaskInstance owner, Time start) {
  // Pieces are disjoint with positive length, so starts are unique keys.
  const Time s = circle_pos(start);
  const std::size_t b = bucket_of(s);
  const std::vector<Piece>& v = buckets_[b].pieces;
  const std::size_t i = lower_index(v, s);
  if (i == v.size() || v[i].start != s || v[i].owner != owner ||
      wrapped_tail(v[i])) {
#if LBMEM_TIMELINE_VERIFY
    LBMEM_REQUIRE(!holds(owner),
                  "ProcTimeline::remove: the owner's interval starts "
                  "elsewhere");
#endif
    return Released{};
  }
  const Time end = owner_end(v[i], 0);
  // A wrapped tail is piece 0 of bucket 0, before the head in any bucket.
  erase_piece(b, i);
  if (end > h_) erase_piece(0, 0);
  return Released{s, end - s};
}

void ProcTimeline::restore(TaskInstance owner,
                           const Released& interval) noexcept {
  // The buckets kept their capacity, so add_impl neither allocates nor
  // throws here.
  if (interval.len > 0) add_impl(interval.start, interval.len, owner);
}

std::optional<Time> ProcTimeline::earliest_fit(Time lb, Time period, Time wcet,
                                               InstanceIdx n) const {
  LBMEM_REQUIRE(period > 0 && wcet > 0 && wcet <= period && n > 0,
                "earliest_fit: bad task shape");
  LBMEM_REQUIRE(static_cast<Time>(n) * period <= h_,
                "earliest_fit: instances exceed hyper-period");
  const Time limit = lb + period;  // feasibility is periodic in S with period T
  Time s = lb;
  InstanceIdx agreed = 0;  // consecutive instances that fit at s
  for (InstanceIdx k = 0;; k = k + 1 == n ? 0 : k + 1) {
    // Instance k walks to its first free gap at or after s + kT; no start
    // below where that lands can place instance k.
    const Time offset = static_cast<Time>(k) * period;
    const Time at = first_free(s + offset, wcet, limit + offset);
    if (at == limit + offset) return std::nullopt;
    if (at != s + offset) {  // instance k fits at the new s, no other yet
      s = at - offset;
      agreed = 0;
    }
    if (++agreed == n) return s;
  }
}

Time ProcTimeline::first_free(Time x, Time len, Time limit) const {
  if (x >= limit) return limit;
  if (piece_count_ == 0) return x;
  // Unrolled coordinates relative to the start of x's lap: the pieces of
  // lap L sit at L*H + start.
  const Time pos = circle_pos(x);
  const Time base = x - pos;
  const Time end = limit - base;
  Cursor c;
  Time cur = pos;  // candidate start: no piece passed so far reaches past it
  if (const Piece* prev = seek(pos, c)) {
    cur = std::max(cur, prev->start + prev->len);
  }
  while (cur < end) {
    if (c.i == c.bucket->pieces.size()) {
      next_bucket(c);
      // The first piece blocks cur and no inner gap fits len: the walk
      // through this bucket would end at its last end (DESIGN.md F40).
      if (c.lap + c.bucket->first < cur + len && c.bucket->max_gap < len) {
        cur = c.lap + c.bucket->last_end;
        c.i = c.bucket->pieces.size();
        continue;
      }
    }
    const Piece& p = c.bucket->pieces[c.i++];
    const Time start = c.lap + p.start;
    if (start >= cur + len) break;  // [cur, cur+len) clears every piece
    cur = start + p.len;  // disjoint pieces in start order: start >= cur
  }
  return cur < end ? base + cur : limit;
}

Time ProcTimeline::busy_time() const {
  Time total = 0;
  for (const Bucket& bucket : buckets_) {
    for (const Piece& p : bucket.pieces) total += p.len;
  }
  return total;
}

bool ProcTimeline::check_index_integrity() const {
  const auto expected_buckets =
      static_cast<std::size_t>(((h_ - 1) >> bucket_shift_) + 1);
  if (buckets_.size() != expected_buckets) return false;
  std::size_t count = 0;
  const Piece* prev = nullptr;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const std::vector<Piece>& v = buckets_[b].pieces;
    const bool bit =
        (nonempty_[b >> 6] >> (b & 63)) & 1;
    if (bit != !v.empty()) return false;
    // The summary: all zero when empty, else exact.
    Time first = 0;
    Time last_end = 0;
    Time max_gap = 0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i == 0) first = v[i].start;
      if (i > 0) max_gap = std::max(max_gap, v[i].start - last_end);
      last_end = v[i].start + v[i].len;
    }
    if (buckets_[b].first != first || buckets_[b].last_end != last_end ||
        buckets_[b].max_gap != max_gap) {
      return false;
    }
    for (const Piece& p : v) {
      // Inside [0, H), in the right bucket, disjoint from its predecessor.
      if (p.start < 0 || p.len <= 0 || p.start + p.len > h_) return false;
      if (bucket_of(p.start) != b) return false;
      if (prev != nullptr && prev->start + prev->len > p.start) return false;
      prev = &p;
      ++count;
    }
  }
  return count == piece_count_;
}

}  // namespace lbmem
