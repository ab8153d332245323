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
  owner_index_.presize(intervals.size());
  for (const Interval& in : intervals) {
    const Time s = mod_floor(in.start, h_);
    OwnerPieces& slots = owner_index_.insert(in.owner);
    LBMEM_REQUIRE(slots.first < 0,
                  "ProcTimeline: an owner holds one interval at a time");
    slots.first = s;
    if (s + in.len <= h_) {
      buckets_[bucket_of(s)].pieces.push_back(Piece{s, in.len, in.owner});
    } else {
      buckets_[bucket_of(s)].pieces.push_back(Piece{s, h_ - s, in.owner});
      buckets_[0].pieces.push_back(Piece{0, s + in.len - h_, in.owner});
      slots.second = 0;
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
  // The same check add_unchecked() makes per interval: consecutive pieces
  // in start order must not overlap.
  Time reach = 0;
  for (const Bucket& bucket : buckets_) {
    for (const Piece& p : bucket.pieces) {
      LBMEM_REQUIRE(p.start >= reach, "ProcTimeline: intervals overlap");
      reach = p.start + p.len;
    }
  }
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

std::optional<TaskInstance> ProcTimeline::conflicting_owner(Time start,
                                                            Time len) const {
  return conflicting_owner_if(start, len, NoIgnore{});
}

bool ProcTimeline::fits(Time start, Time len) const {
  return !conflicting_owner(start, len).has_value();
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

ProcTimeline::OwnerPieces* ProcTimeline::OwnerIndex::find(TaskInstance key) {
  if (table_.empty()) return nullptr;
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = probe(key);; i = (i + 1) & mask) {
    Entry& e = table_[i];
    if (empty_slot(e)) return nullptr;
    if (!tombstone(e) && e.key == key) return &e.val;
  }
}

ProcTimeline::OwnerIndex::Slot ProcTimeline::OwnerIndex::locate(
    TaskInstance key) const {
  const std::size_t mask = table_.size() - 1;
  std::size_t first_tombstone = table_.size();
  for (std::size_t i = probe(key);; i = (i + 1) & mask) {
    const Entry& e = table_[i];
    if (empty_slot(e)) {
      if (first_tombstone < table_.size()) {
        return Slot{first_tombstone, false, false};
      }
      return Slot{i, false, true};
    }
    if (tombstone(e)) {
      if (first_tombstone == table_.size()) first_tombstone = i;
    } else if (e.key == key) {
      return Slot{i, true, false};
    }
  }
}

ProcTimeline::OwnerPieces& ProcTimeline::OwnerIndex::place(const Slot& slot,
                                                           TaskInstance key) {
  Entry& dest = table_[slot.index];
  if (slot.empty) ++used_;  // tombstone reuse keeps `used_` unchanged
  dest.key = key;
  dest.val = OwnerPieces{};
  ++live_;
  return dest.val;
}

ProcTimeline::OwnerPieces& ProcTimeline::OwnerIndex::insert(TaskInstance key) {
  if (table_.empty()) grow();
  Slot slot = locate(key);
  if (slot.found) return table_[slot.index].val;
  // Rehash at 3/4 load (live + tombstones) so probe chains stay short. Only
  // filling an empty slot raises the load; reusing a tombstone never does.
  if (slot.empty && over_load_if_filled()) {
    grow();
    slot = locate(key);
  }
  return place(slot, key);
}

void ProcTimeline::OwnerIndex::presize(std::size_t n) {
  if (n == 0) return;
  std::size_t cap = 16;  // grow()'s smallest table
  while (n * 4 > cap * 3) cap <<= 1;
  table_.assign(cap, Entry{});
  used_ = live_ = 0;
}

void ProcTimeline::OwnerIndex::restore(TaskInstance key,
                                       OwnerPieces val) noexcept {
  Slot slot = locate(key);
  if (slot.empty && over_load_if_filled()) {
    // The table never shrinks and an undo only brings back an owner set the
    // table held before, so after the purge the live owners fit again.
    purge_tombstones();
    slot = locate(key);
  }
  place(slot, key) = val;
}

void ProcTimeline::OwnerIndex::erase(TaskInstance key) {
  if (table_.empty()) return;
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = probe(key);; i = (i + 1) & mask) {
    Entry& e = table_[i];
    if (empty_slot(e)) return;
    if (!tombstone(e) && e.key == key) {
      e.key = TaskInstance{-2, -2};  // tombstone keeps probe chains intact
      --live_;
      return;
    }
  }
}

void ProcTimeline::OwnerIndex::grow() {
  std::size_t cap = std::max<std::size_t>(16, table_.size());
  while (cap < live_ * 4) cap <<= 1;  // rehash also purges tombstones
  if (cap == table_.size()) {
    purge_tombstones();
    return;
  }
  // Allocate before touching the table: a failed allocation leaves it
  // as it was.
  std::vector<Entry> fresh(cap, Entry{});
  fresh.swap(table_);
  used_ = live_;
  const std::size_t mask = cap - 1;
  for (const Entry& e : fresh) {
    if (empty_slot(e) || tombstone(e)) continue;
    std::size_t i = probe(e.key);
    while (!empty_slot(table_[i])) i = (i + 1) & mask;
    table_[i] = e;
  }
}

void ProcTimeline::OwnerIndex::purge_tombstones() noexcept {
  // Re-insert every live entry in probe order, starting after a slot that
  // was empty before the purge: no probe chain crosses such a slot, so each
  // entry's home lies between it and the entry, and its re-insertion lands
  // no later than the slot it just vacated.
  const std::size_t n = table_.size();
  const std::size_t mask = n - 1;
  std::size_t origin = 0;
  while (!empty_slot(table_[origin])) ++origin;  // used_ < n: one exists
  for (Entry& e : table_) {
    if (tombstone(e)) e.key = TaskInstance{-1, -1};
  }
  for (std::size_t step = 1; step < n; ++step) {
    const std::size_t i = (origin + step) & mask;
    if (empty_slot(table_[i])) continue;
    const Entry e = table_[i];
    table_[i].key = TaskInstance{-1, -1};
    std::size_t j = probe(e.key);
    while (!empty_slot(table_[j])) j = (j + 1) & mask;
    table_[j] = e;
  }
  used_ = live_;
}

void ProcTimeline::add(Time start, Time len, TaskInstance owner) {
  LBMEM_REQUIRE(fits(start, len), "ProcTimeline::add would overlap");
  add_impl(start, len, owner);
}

void ProcTimeline::add_unchecked(Time start, Time len, TaskInstance owner) {
#if LBMEM_TIMELINE_VERIFY
  LBMEM_REQUIRE(fits(start, len), "ProcTimeline::add_unchecked would overlap");
#else
  LBMEM_REQUIRE(len > 0 && len <= h_, "interval length must be in (0, H]");
#endif
  add_impl(start, len, owner);
}

void ProcTimeline::add_impl(Time start, Time len, TaskInstance owner) {
  const Time s = mod_floor(start, h_);
  const bool wraps = s + len > h_;
  OwnerPieces& slots = owner_index_.insert(owner);
  // Validate before mutating anything: a rejected add must leave both the
  // index and the pieces consistent (remove() stays a no-op).
  LBMEM_REQUIRE(slots.first < 0,
                "ProcTimeline: an owner holds one interval at a time");
  // Pieces first, index last: a piece insert that throws (bad_alloc)
  // leaves no index entry pointing at a missing piece.
  if (!wraps) {
    insert_piece(Piece{s, len, owner});
  } else {
    insert_piece(Piece{s, h_ - s, owner});
    try {
      insert_piece(Piece{0, s + len - h_, owner});
    } catch (...) {
      erase_piece_at(s, owner);
      throw;
    }
    slots.second = 0;
  }
  slots.first = s;
}

Time ProcTimeline::erase_piece_at(Time start, TaskInstance owner) {
  // Pieces are disjoint with positive length, so starts are unique keys.
  const std::size_t b = bucket_of(start);
  std::vector<Piece>& v = buckets_[b].pieces;
  const auto it = v.begin() + static_cast<std::ptrdiff_t>(lower_index(v, start));
  LBMEM_REQUIRE(it != v.end() && it->start == start && it->owner == owner,
                "ProcTimeline owner index out of sync");
  const Time len = it->len;
  v.erase(it);
  summarize(buckets_[b]);
  if (v.empty()) nonempty_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
  --piece_count_;
  return len;
}

ProcTimeline::Released ProcTimeline::remove(TaskInstance owner) {
  Released released;
  const OwnerPieces* found = owner_index_.find(owner);
  if (!found) return released;
  const OwnerPieces slots = *found;
  owner_index_.erase(owner);
  if (slots.first < 0) return released;
  released.start = slots.first;
  released.len = erase_piece_at(slots.first, owner);
  if (slots.second >= 0) released.len += erase_piece_at(slots.second, owner);
  return released;
}

void ProcTimeline::restore(TaskInstance owner,
                           const Released& interval) noexcept {
  if (interval.len == 0) return;
  const Time s = interval.start;
  OwnerPieces slots;
  slots.first = s;
  if (s + interval.len > h_) {
    slots.second = 0;
    insert_piece(Piece{s, h_ - s, owner});
    insert_piece(Piece{0, s + interval.len - h_, owner});
  } else {
    insert_piece(Piece{s, interval.len, owner});
  }
  owner_index_.restore(owner, slots);
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
