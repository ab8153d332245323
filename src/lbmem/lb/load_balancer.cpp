#include "lbmem/lb/load_balancer.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "lbmem/lb/gain_reduction.hpp"
#include "lbmem/model/hyperperiod.hpp"
#include "lbmem/obs/metrics.hpp"
#include "lbmem/obs/trace.hpp"
#include "lbmem/sched/timeline.hpp"
#include "lbmem/util/check.hpp"
#include "lbmem/util/math.hpp"
#include "lbmem/util/stopwatch.hpp"
#include "lbmem/validate/validator.hpp"

namespace lbmem {

LoadBalancer::LoadBalancer(BalanceOptions options)
    : options_(std::move(options)) {}

namespace {

/// One balancing attempt, editing the schedule and its all-instances
/// occupancy in place through a ScheduleJournal (DESIGN.md F36): the
/// caller rolls a failed attempt back to the journal mark it started at.
///
/// Occupancy covers *moved* instances only: the paper's heuristic treats
/// already-moved blocks as a committed prefix, while not-yet-moved blocks
/// are invisible to overlap checks (their placement is fixed when their
/// turn comes — step 3 of the worked example moves a block onto P1 slots
/// that still "hold" the unmoved a3).
///
/// Hot-path layout: every per-destination evaluation (M of them per block)
/// works exclusively off scratch state prepared once per block pop by
/// prepare_block() — the tentative instance layout, the destination-
/// invariant split of each member's external data-readiness, and the gain
/// cap imposed by the block's pinned later instances. evaluate() therefore
/// performs no heap allocation and never rewalks the dependence graph.
///
/// The per-instance state lives in the caller's BalanceScratch (DESIGN.md
/// F41): the pop's affected set as epoch marks, and the committed flags,
/// which the destructor clears on every exit, so an attempt costs what its
/// blocks touch, not one pass over every instance.
class Attempt {
 public:
  Attempt(ScheduleJournal& journal, const BalanceOptions& opts,
          Time max_gain_override, const BlockDecomposition& dec,
          BalanceScratch& scratch)
      : opts_(opts),
        max_gain_(max_gain_override),
        journal_(journal),
        sched_(journal.schedule()),
        all_occ_(journal.occupancy()),
        dec_(dec),
        scratch_(scratch),
        h_(sched_.graph().hyperperiod()),
        procs_(sched_.architecture().processor_count()),
        moved_mem_(static_cast<std::size_t>(procs_), Mem{0}),
        last_moved_end_(static_cast<std::size_t>(procs_), Time{0}),
        first_moved_start_(static_cast<std::size_t>(procs_), Time{-1}),
        resident_mem_(static_cast<std::size_t>(procs_), Mem{0}),
        processed_(dec_.blocks.size(), false) {
    for (ProcId p = 0; p < procs_; ++p) {
      resident_mem_[static_cast<std::size_t>(p)] = sched_.memory_on(p);
    }
    // Grow the committed flags before any is set: new bytes read zero.
    const std::size_t total = sched_.graph().total_instances();
    if (scratch_.committed.size() < total) scratch_.committed.resize(total, 0);
    if (opts_.overlap_rule == OverlapRule::MovedOnly) {
      // The moved-prefix timelines exist only under MovedOnly; see commit().
      occupancy_.assign(static_cast<std::size_t>(procs_), ProcTimeline(h_));
    }
  }

  /// Clear the committed flags: only block members are ever set.
  ~Attempt() {
    for (const Block& block : dec_.blocks) {
      for (const TaskInstance& inst : block.members) {
        scratch_.committed[dense(inst)] = 0;
      }
    }
  }
  Attempt(const Attempt&) = delete;
  Attempt& operator=(const Attempt&) = delete;

  /// Run the heuristic; returns true when the final schedule validates.
  bool run(std::vector<StepRecord>* trace, BalanceStats& stats);

 private:
  struct QueueEntry {
    Time start;
    BlockId block;
    bool operator>(const QueueEntry& other) const {
      if (start != other.start) return start > other.start;
      return block > other.block;
    }
  };
  using RequeueQueue =
      std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>>;

  /// Destination-invariant split of one member's external data-readiness
  /// (paper Eq. 1): over external producers, the arrival is end + C unless
  /// the producer sits on the candidate destination (then C = 0). So
  /// ready(dest) = max over producer procs q != dest of A[q], maxed with
  /// the colocated term B[dest], where A[q] is the per-proc max of
  /// end + C and B[q] the per-proc max of plain end. We cache the top two
  /// A values on distinct procs plus the (proc, end) pairs for B.
  struct MemberReady {
    Time remote_top1 = 0;
    ProcId remote_top1_proc = kNoProc;
    Time remote_top2 = 0;
    std::uint32_t local_begin = 0;
    std::uint32_t local_end = 0;  // slice of local_arrivals_
  };

  const TaskGraph& graph() const { return sched_.graph(); }

  std::size_t dense(TaskInstance inst) const {
    return graph().dense_index(inst);
  }

  void prepare_block(const Block& block);
  Time member_ready(std::size_t member_idx, ProcId dest) const;
  Time gain_upper_bound(const Block& block, ProcId dest) const;
  DestinationScore make_bound(const Block& block, ProcId dest) const;
  DestinationScore evaluate(const Block& block, ProcId dest,
                            const DestinationScore* incumbent) const;
  /// Select and commit the destination of one popped block. \p requeue
  /// receives the blocks a positive gain shifted (null on the queue-free
  /// gain-disabled path, where gains cannot occur).
  void decide_block(BlockId id, std::vector<StepRecord>* trace,
                    BalanceStats& stats, RequeueQueue* requeue);
  void commit(const Block& block, ProcId dest, Time gain, bool forced,
              BalanceStats& stats);

  /// Closed (failed) processors are never destinations.
  bool closed(ProcId p) const {
    return !opts_.closed_procs.empty() &&
           opts_.closed_procs[static_cast<std::size_t>(p)] != 0;
  }

  /// The migration-penalty gate (DESIGN.md F9), applied *after* the policy
  /// has picked its preferred destination: if that pick is a migration and
  /// the (feasible) home candidate exists, the migration only stands when
  /// its net gain — gain minus the penalty — strictly beats the home's
  /// gain; otherwise the block stays home. A post-selection gate rather
  /// than a pairwise comparator keeps the choice transitive and
  /// independent of processor iteration order, and leaves the policy full
  /// authority among migrations; the committed gain stays the full
  /// achievable one. Gain-disabled runs (max_gain_ == 0: the validation-
  /// failure retry, or a pure memory-spreading configuration) are exempt —
  /// there are no gains to price, and gating would silently forfeit the
  /// memory spreading those runs exist for.
  DestinationScore apply_migration_gate(const DestinationScore& best,
                                        const DestinationScore& home,
                                        bool home_feasible) const {
    if (opts_.migration_penalty <= 0 || max_gain_ == 0 || best.is_home ||
        !home_feasible) {
      return best;
    }
    return (best.gain - opts_.migration_penalty > home.gain) ? best : home;
  }

  /// Committed by this attempt?
  bool committed(TaskInstance inst) const {
    return scratch_.committed[dense(inst)] != 0;
  }

  /// Occupancy filter for overlap checks: skip only the instances this
  /// pop's tentative move would relocate (their existing footprints must
  /// not block their own placement) that are still uncommitted —
  /// prepare_block() marks exactly those. A committed sibling is a
  /// committed placement (it also pins the gain to zero), so its footprint
  /// must keep blocking candidates — under MovedOnly it is the only record
  /// of the committed prefix.
  bool ignore_in_occupancy(TaskInstance inst) const {
    return scratch_.marks.contains(dense(inst));
  }

  /// The timelines overlap checks consult, per the configured rule.
  std::span<const ProcTimeline> blocking_timelines() const {
    return opts_.overlap_rule == OverlapRule::AllInstances
               ? std::span<const ProcTimeline>(all_occ_)
               : std::span<const ProcTimeline>(occupancy_);
  }
  const ProcTimeline& blocking_occ(ProcId p) const {
    return blocking_timelines()[static_cast<std::size_t>(p)];
  }

  /// Update the all-instances occupancy after a commit. Only instances
  /// whose placement actually changed are touched: a zero-gain stay-at-home
  /// (the common case at scale) costs nothing. Every re-added instance is
  /// recorded in moved_ for the end-of-run validation.
  void update_all_occ(ProcId dest, ProcId home, Time gain) {
    if (opts_.overlap_rule != OverlapRule::AllInstances) return;
    if (gain <= 0 && dest == home) return;  // nothing moved
    // gain > 0: every affected instance shifted; gain == 0 with an
    // off-home destination: only the members changed processor. layout_ is
    // parallel to affected_ and still records the pre-commit processors
    // (members lived on the block's home) and starts, where each footprint
    // begins (DESIGN.md F42).
    const std::size_t count = (gain > 0) ? affected_.size() : member_count_;
    for (std::size_t i = 0; i < count; ++i) {
      const ProcId before = (i < member_count_) ? home : layout_[i].proc;
      journal_.remove(before, affected_[i], layout_[i].base_start);
    }
    for (std::size_t i = 0; i < count; ++i) {
      const TaskInstance inst = affected_[i];
      const ProcId p = sched_.proc(inst);
      const Time start = sched_.start(inst);
      const Time wcet = graph().task(inst.task).wcet;
      // Every committed placement should fit (evaluate() checked it), but
      // if one ever does not, drop the footprint rather than throw: the
      // schedule itself then carries the overlap, the end-of-run validation
      // (then over the whole schedule) rejects it, and the gain-disabled
      // retry takes over gracefully. The fits() probe doubles as
      // add_unchecked's safety proof.
      if (all_occ(p).fits(start, wcet)) {
        journal_.add(p, start, wcet, inst);
      } else {
        footprint_dropped_ = true;
      }
      moved_.push_back(inst);
    }
  }

  /// The journaled all-instances occupancy (AllInstances rule).
  const ProcTimeline& all_occ(ProcId p) const {
    return all_occ_[static_cast<std::size_t>(p)];
  }

  ProcTimeline& occupancy(ProcId p) {
    return occupancy_[static_cast<std::size_t>(p)];
  }

  const BalanceOptions& opts_;
  Time max_gain_;  // -1 = unlimited, otherwise a cap on per-block gains
  ScheduleJournal& journal_;  // every edit of the schedule and occupancy
  const Schedule& sched_;     // journal_.schedule(): read-only here
  const std::vector<ProcTimeline>& all_occ_;  // journal_.occupancy()
  // Blocks depend only on the (shared) input schedule, so the
  // decomposition is built once per balance() and reused across attempts.
  const BlockDecomposition& dec_;
  BalanceScratch& scratch_;  // per-instance marks and committed flags
  Time h_;
  int procs_;
  std::vector<ProcTimeline> occupancy_;  // moved prefix only
  std::vector<TaskInstance> moved_;      // re-added to all_occ(), in order
  bool footprint_dropped_ = false;       // all_occ() lost a moved footprint
  std::vector<Mem> moved_mem_;
  std::vector<Time> last_moved_end_;
  std::vector<Time> first_moved_start_;
  std::vector<Mem> resident_mem_;
  std::vector<bool> processed_;  // by block id

  // ---- scratch prepared by prepare_block(), read-only in evaluate() ------
  // (capacities persist across pops, so steady-state pops do not allocate)
  std::vector<TaskInstance> affected_;  // members + shifting siblings
  std::vector<LayoutEntry> layout_;     // members prefix, then siblings
  std::size_t member_count_ = 0;
  std::vector<MemberReady> member_ready_;  // parallel to block.members
  std::vector<std::pair<ProcId, Time>> local_arrivals_;  // B terms, sliced
  Time pinned_cap_ = 0;  // gain cap from pinned later instances
  // Destination-invariant gain cap from member data-readiness: for every
  // member, base_start minus the smallest arrival any destination could
  // see (DESIGN.md F15). Combined with the per-destination O(1) terms this
  // yields the admissible upper bound gain_upper_bound() screens with.
  Time member_cap_ = 0;
  Time block_start_ = 0;
  std::vector<DestinationScore> bounds_;  // per-pop candidate bounds
};

void Attempt::prepare_block(const Block& block) {
  affected_.clear();
  layout_.clear();
  member_ready_.clear();
  local_arrivals_.clear();
  pinned_cap_ = std::numeric_limits<Time>::max();
  member_cap_ = std::numeric_limits<Time>::max();
  block_start_ = block.start(sched_);
  // A new epoch empties the marks in O(1).
  scratch_.marks.clear(graph().total_instances());
  const auto mark = [&](TaskInstance inst) {
    affected_.push_back(inst);
    if (!committed(inst)) scratch_.marks.insert(dense(inst));
  };

  for (const TaskInstance& inst : block.members) {
    mark(inst);
    layout_.push_back(LayoutEntry{inst, kNoProc, sched_.start(inst),
                                  graph().task(inst.task).wcet});
  }
  member_count_ = layout_.size();
  if (block.category == 1) {
    for (const TaskId t : block.tasks) {
      const InstanceIdx n = graph().instance_count(t);
      for (InstanceIdx k = 1; k < n; ++k) {
        const TaskInstance inst{t, k};
        mark(inst);
        layout_.push_back(LayoutEntry{inst, sched_.proc(inst),
                                      sched_.start(inst),
                                      graph().task(inst.task).wcet});
      }
    }
  }

  // Member data-readiness, split into the dest-invariant remote part and
  // the per-producer-proc colocated corrections.
  for (const TaskInstance& inst : block.members) {
    MemberReady mr;
    mr.local_begin = static_cast<std::uint32_t>(local_arrivals_.size());
    for (const std::int32_t e : graph().deps_in(inst.task)) {
      const Dependence& dep =
          graph().dependences()[static_cast<std::size_t>(e)];
      // Producers whose task belongs to the block either move along
      // (members) or shift along (later instances of a member task); in
      // both cases the constraint is invariant under the move — DESIGN.md §6.
      if (block.contains_task(dep.producer)) continue;
      const Time comm = sched_.comm().transfer_time(dep.data_size);
      const ConsumedRange range = graph().consumed_range(e, inst.k);
      for (InstanceIdx i = 0; i < range.count; ++i) {
        const TaskInstance producer{dep.producer, range.first + i};
        const ProcId pp = sched_.proc(producer);
        const Time end = sched_.end(producer);
        const Time remote = end + comm;
        if (pp == mr.remote_top1_proc) {
          mr.remote_top1 = std::max(mr.remote_top1, remote);
        } else if (remote > mr.remote_top1) {
          mr.remote_top2 = mr.remote_top1;
          mr.remote_top1 = remote;
          mr.remote_top1_proc = pp;
        } else {
          mr.remote_top2 = std::max(mr.remote_top2, remote);
        }
        // Fold the colocated term to one per-proc max so member_ready
        // rescans at most min(#procs, #producers) pairs per destination.
        bool merged = false;
        for (std::size_t j = mr.local_begin; j < local_arrivals_.size();
             ++j) {
          if (local_arrivals_[j].first == pp) {
            local_arrivals_[j].second =
                std::max(local_arrivals_[j].second, end);
            merged = true;
            break;
          }
        }
        if (!merged) local_arrivals_.emplace_back(pp, end);
      }
    }
    mr.local_end = static_cast<std::uint32_t>(local_arrivals_.size());
    member_ready_.push_back(mr);

    // Best-case arrival over *all* destinations: hosting the top remote
    // producer converts its arrival into the colocated term, so the
    // smallest achievable readiness is min(max(remote_top2, colocated term
    // of the top producer's processor), remote_top1) — a lower bound on
    // member_ready(m, dest) for every dest, hence an admissible cap.
    if (block.category == 1) {
      Time local_at_top1 = 0;
      for (std::uint32_t j = mr.local_begin; j < mr.local_end; ++j) {
        if (local_arrivals_[j].first == mr.remote_top1_proc) {
          local_at_top1 = local_arrivals_[j].second;
          break;
        }
      }
      const Time min_ready =
          std::min(std::max(mr.remote_top2, local_at_top1), mr.remote_top1);
      member_cap_ = std::min(
          member_cap_, layout_[member_ready_.size() - 1].base_start - min_ready);
    }
  }

  // Gain cap from the pinned later instances of the block's tasks
  // (DESIGN.md F5): their strict-periodic starts shift along, so even the
  // best possible data arrival (co-location with the producer) must not
  // exceed the shifted start; an already-committed later instance pins the
  // gain to zero outright.
  if (block.category == 1) {
    for (const TaskId t : block.tasks) {
      const InstanceIdx n = graph().instance_count(t);
      for (InstanceIdx k = 1; k < n; ++k) {
        const TaskInstance later{t, k};
        if (committed(later)) {
          pinned_cap_ = 0;  // committed placements must not move retroactively
          continue;
        }
        const Time later_start = sched_.start(later);
        for (const std::int32_t e : graph().deps_in(t)) {
          const Dependence& dep =
              graph().dependences()[static_cast<std::size_t>(e)];
          if (block.contains_task(dep.producer)) continue;
          const ConsumedRange range = graph().consumed_range(e, later.k);
          for (InstanceIdx i = 0; i < range.count; ++i) {
            const Time best_arrival =
                sched_.end(TaskInstance{dep.producer, range.first + i});
            pinned_cap_ = std::min(pinned_cap_, later_start - best_arrival);
          }
        }
      }
    }
  }
}

Time Attempt::member_ready(std::size_t member_idx, ProcId dest) const {
  const MemberReady& mr = member_ready_[member_idx];
  Time ready =
      (dest == mr.remote_top1_proc) ? mr.remote_top2 : mr.remote_top1;
  for (std::uint32_t i = mr.local_begin; i < mr.local_end; ++i) {
    if (local_arrivals_[i].first == dest) {
      ready = std::max(ready, local_arrivals_[i].second);
    }
  }
  return ready;
}

/// Admissible O(1) screen (DESIGN.md F15): the largest gain evaluate()
/// could possibly return for \p dest, or -1 when the destination is
/// certainly infeasible. Mirrors evaluate()'s clamp sequence with the
/// destination-dependent data term replaced by its invariant lower bound
/// (member_cap_); everything evaluate() does beyond this point — exact
/// data arrivals, conflict-driven reduction, the Block Condition — only
/// lowers the gain or rejects, never raises it.
Time Attempt::gain_upper_bound(const Block& block, ProcId dest) const {
  const Time avail = last_moved_end_[static_cast<std::size_t>(dest)];
  if (avail > block_start_) return -1;  // ineligible, exactly as evaluate()
  if (opts_.enforce_memory_capacity &&
      sched_.architecture().has_memory_limit() && dest != block.home &&
      resident_mem_[static_cast<std::size_t>(dest)] + block.mem_sum >
          sched_.architecture().memory_capacity()) {
    return -1;  // capacity screen, exactly as evaluate()
  }
  if (block.category != 1) return 0;  // pinned blocks never gain
  Time gain = std::min(block_start_ - avail, member_cap_);
  if (gain < 0) return -1;  // no destination can receive the data in time
  gain = std::min(gain, pinned_cap_);
  gain = std::max<Time>(gain, 0);
  if (max_gain_ >= 0) gain = std::min(gain, max_gain_);
  return gain;
}

/// The best score \p dest could possibly achieve: exact O(1) fields
/// (moved memory, home flag, processor) plus the gain upper bound. A
/// feasible==false bound marks a destination the screen already rejects.
DestinationScore Attempt::make_bound(const Block& block, ProcId dest) const {
  DestinationScore bound;
  bound.proc = dest;
  bound.is_home = (dest == block.home);
  bound.moved_mem = moved_mem_[static_cast<std::size_t>(dest)];
  const Time ub = gain_upper_bound(block, dest);
  if (ub < 0) return bound;
  bound.feasible = true;
  bound.gain = ub;
  bound.lambda = upper_bound_lambda(opts_.policy, ub, bound.moved_mem);
  return bound;
}

DestinationScore Attempt::evaluate(const Block& block, ProcId dest,
                                   const DestinationScore* incumbent) const {
  DestinationScore score;
  score.proc = dest;
  score.is_home = (dest == block.home);
  score.moved_mem = moved_mem_[static_cast<std::size_t>(dest)];

  const Time block_start = block_start_;

  // Eligibility (paper Section 3.2): the processor's moved prefix must end
  // no later than the block starts.
  const Time avail = last_moved_end_[static_cast<std::size_t>(dest)];
  if (avail > block_start) {
    score.reject_reason = "not eligible (moved prefix ends after block start)";
    return score;
  }

  // Memory capacity (optional extension).
  if (opts_.enforce_memory_capacity &&
      sched_.architecture().has_memory_limit() && dest != block.home &&
      resident_mem_[static_cast<std::size_t>(dest)] + block.mem_sum >
          sched_.architecture().memory_capacity()) {
    score.reject_reason = "memory capacity exceeded";
    return score;
  }

  // A member landing on a processor that also hosts a shifting sibling
  // collides independently of the gain (both move by the same amount, so
  // their relative offset is fixed).
  if (block.category == 1 && dest != block.home) {
    for (std::size_t s = member_count_; s < layout_.size(); ++s) {
      const LayoutEntry& sibling = layout_[s];
      if (sibling.proc != dest) continue;
      for (std::size_t m = 0; m < member_count_; ++m) {
        const LayoutEntry& member = layout_[m];
        if (circular_overlap(member.base_start, member.wcet,
                             sibling.base_start, sibling.wcet, h_)) {
          score.reject_reason = "member collides with shifting sibling";
          return score;
        }
      }
    }
  }

  Time gain = 0;
  if (block.category == 1) {
    // Largest shift allowed by processor availability…
    gain = block_start - avail;
    // …by every member's external data (paper Eq. 1 semantics)…
    for (std::size_t m = 0; m < member_count_; ++m) {
      gain = std::min(gain, layout_[m].base_start - member_ready(m, dest));
    }
    if (gain < 0) {
      score.reject_reason = "data arrives after the required start";
      return score;
    }
    // …and by the pinned later instances of the block's tasks.
    gain = std::min(gain, pinned_cap_);
    gain = std::max<Time>(gain, 0);
    if (max_gain_ >= 0) gain = std::min(gain, max_gain_);

    // Incumbent cutoff (DESIGN.md F15): the conflict-reduction scan below
    // only ever lowers the gain, and with the moved memory and tie-break
    // fields fixed every policy's ordering is monotone in the gain — so
    // the moment the current gain cannot beat the incumbent, no outcome of
    // the scan can, and the evaluation may abort. Cut candidates report
    // infeasible; they could not have been selected either way.
    const auto cannot_beat = [&](Time g) {
      if (incumbent == nullptr) return false;
      DestinationScore hypo;
      hypo.feasible = true;
      hypo.proc = dest;
      hypo.is_home = score.is_home;
      hypo.moved_mem = score.moved_mem;
      hypo.gain = g;
      hypo.lambda = lambda_value(opts_.policy, g, score.moved_mem);
      return !better_candidate(opts_.policy, hypo, *incumbent);
    };
    if (cannot_beat(gain)) {
      score.cut_by_incumbent = true;
      score.reject_reason = "cut off: cannot beat the incumbent";
      return score;
    }

    // Conflict-driven reduction against the moved prefix: every affected
    // instance must avoid the committed occupation on its target processor
    // (DESIGN.md F41).
    const GainReduction reduced = reduce_gain(
        layout_, member_count_, blocking_occ(dest), blocking_timelines(),
        gain,
        [this](TaskInstance owner) { return ignore_in_occupancy(owner); },
        cannot_beat);
    if (reduced.reject_reason != nullptr) {
      score.cut_by_incumbent = reduced.cut_by_incumbent;
      score.reject_reason = reduced.reject_reason;
      return score;
    }
    gain = reduced.gain;
  } else {
    // Category 2: pinned by strict periodicity; the move must work at the
    // current start times.
    for (std::size_t m = 0; m < member_count_; ++m) {
      if (member_ready(m, dest) > layout_[m].base_start) {
        score.reject_reason = "data arrives after the pinned start";
        return score;
      }
    }
    // A pinned block has no gain to lower: its first landing rejects it.
    for (std::size_t m = 0; m < member_count_; ++m) {
      if (!blocking_occ(dest).walk_blocking(
              layout_[m].base_start, layout_[m].wcet,
              [this](TaskInstance owner) { return ignore_in_occupancy(owner); },
              [](Time) { return false; })) {
        score.reject_reason = "overlap with moved blocks";
        return score;
      }
    }
  }

  // Block Condition (paper Eq. 4): the block must not overrun the
  // hyper-period window anchored at the first block moved to dest.
  if (opts_.enforce_block_condition) {
    const Time anchor = first_moved_start_[static_cast<std::size_t>(dest)];
    if (anchor >= 0 && (block_start - gain) + block.exec_sum > anchor + h_) {
      score.reject_reason = "Block Condition (LCM) violated";
      return score;
    }
  }

  score.feasible = true;
  score.gain = gain;
  score.lambda = lambda_value(opts_.policy, gain, score.moved_mem);
  return score;
}

void Attempt::commit(const Block& block, ProcId dest, Time gain, bool forced,
                     BalanceStats& stats) {
  // Apply the gain first: shifting the first starts of the block's tasks
  // also shifts their later instances (strict periodicity) — the paper's
  // "update the start times of the blocks containing tasks whose instances
  // are in A".
  if (gain > 0) {
    for (const TaskId t : block.tasks) {
      journal_.set_first_start(t, sched_.first_start(t) - gain);
    }
    ++stats.gains_applied;
  }

  for (const TaskInstance& inst : block.members) {
    journal_.assign(inst, dest);
    // The moved-prefix occupancy is only ever read under MovedOnly
    // (blocking_occ); under AllInstances every committed footprint already
    // lands in all_occ() via update_all_occ, so maintaining a second,
    // write-only timeline per processor would be pure overhead.
    if (opts_.overlap_rule == OverlapRule::MovedOnly) {
      const Time wcet = graph().task(inst.task).wcet;
      const Time start = sched_.start(inst);
      if (occupancy(dest).fits(start, wcet)) {
        occupancy(dest).add_unchecked(start, wcet, inst);
      } else {
        // Only reachable on a forced stay; the final validation reports it.
        LBMEM_REQUIRE(forced, "unexpected occupancy conflict on commit");
      }
    }
    scratch_.committed[dense(inst)] = 1;
  }

  if (dest != block.home) {
    resident_mem_[static_cast<std::size_t>(block.home)] -= block.mem_sum;
    resident_mem_[static_cast<std::size_t>(dest)] += block.mem_sum;
    ++stats.moves_off_home;
  }
  moved_mem_[static_cast<std::size_t>(dest)] += block.mem_sum;
  last_moved_end_[static_cast<std::size_t>(dest)] = std::max(
      last_moved_end_[static_cast<std::size_t>(dest)], block.end(sched_));
  if (first_moved_start_[static_cast<std::size_t>(dest)] < 0) {
    first_moved_start_[static_cast<std::size_t>(dest)] = block.start(sched_);
  }
  processed_[static_cast<std::size_t>(block.id)] = true;
}

bool Attempt::run(std::vector<StepRecord>* trace, BalanceStats& stats) {
  stats.blocks_total = static_cast<int>(dec_.blocks.size());
  stats.blocks_category1 = static_cast<int>(
      std::count_if(dec_.blocks.begin(), dec_.blocks.end(),
                    [](const Block& b) { return b.category == 1; }));

  if (max_gain_ == 0) {
    // Gains disabled: no commit ever shifts a start, so the pop order is
    // fully known up front — one sort replaces the priority queue, its
    // re-queues and its stale-entry filtering. The order is identical to
    // the queue's pop order (ascending start, then block id).
    std::vector<QueueEntry> order;
    order.reserve(dec_.blocks.size());
    for (const Block& b : dec_.blocks) {
      order.push_back(QueueEntry{b.start(sched_), b.id});
    }
    std::sort(order.begin(), order.end(),
              [](const QueueEntry& a, const QueueEntry& b) { return b > a; });
    for (const QueueEntry& entry : order) {
      decide_block(entry.block, trace, stats, nullptr);
    }
  } else {
    RequeueQueue queue;
    for (const Block& b : dec_.blocks) {
      queue.push(QueueEntry{b.start(sched_), b.id});
    }
    while (!queue.empty()) {
      const QueueEntry entry = queue.top();
      queue.pop();
      if (processed_[static_cast<std::size_t>(entry.block)]) continue;
      const Block& block = dec_.blocks[static_cast<std::size_t>(entry.block)];
      if (block.start(sched_) != entry.start) {
        continue;  // stale key; the shifted re-queue entry will handle it
      }
      decide_block(entry.block, trace, stats, &queue);
    }
  }

  // Without the all-instances mirror the whole schedule is validated.
  LBMEM_TRACE_SPAN("lb.validate");
  if (opts_.overlap_rule == OverlapRule::MovedOnly || footprint_dropped_) {
    return validate(sched_).ok();
  }
  // The input is valid and all_occ() mirrored it; every re-add passed fits()
  // against that mirror, so no overlap exists anywhere and precedence can
  // only have broken at a moved instance or a consumer of one (DESIGN.md
  // F35).
  const bool ok = is_valid_around(sched_, moved_, scratch_.marks);
#if LBMEM_TIMELINE_VERIFY
  LBMEM_REQUIRE(ok == validate(sched_).ok(),
                "moved-set validation disagrees with validate()");
#endif
  return ok;
}

/// Fold one run's BalanceStats into the registry (DESIGN.md F25): called
/// once at the end of run_attempts(), never from the hot loop. Every
/// metric is registered unconditionally so the emitted name set is the
/// same whatever the run did. Only the wall-clock histogram is Timing
/// class; every counter, the prune counters included, is a pure function
/// of the input.
void fold_stats(obs::Registry& reg, const BalanceStats& stats) {
  reg.add(reg.counter("lb.balance_runs"), 1);
  reg.add(reg.counter("lb.fallbacks"), stats.fell_back ? 1 : 0);
  reg.add(reg.counter("lb.attempts_used"), stats.attempts_used);
  reg.add(reg.counter("lb.blocks_total"), stats.blocks_total);
  reg.add(reg.counter("lb.blocks_category1"), stats.blocks_category1);
  reg.add(reg.counter("lb.moves_off_home"), stats.moves_off_home);
  reg.add(reg.counter("lb.gains_applied"), stats.gains_applied);
  reg.add(reg.counter("lb.forced_stays"), stats.forced_stays);
  reg.add(reg.counter("lb.gain_total"), stats.gain_total);
  reg.record(reg.histogram("lb.gain_per_run"), stats.gain_total);
  reg.add(reg.counter("lb.dest_evaluated"), stats.dest_evaluated);
  reg.add(reg.counter("lb.dest_skipped_by_bound"),
          stats.dest_skipped_by_bound);
  reg.add(reg.counter("lb.dest_cut_by_incumbent"),
          stats.dest_cut_by_incumbent);
  reg.record(reg.histogram("lb.balance_wall_us", obs::MetricClass::Timing),
             static_cast<std::int64_t>(stats.wall_seconds * 1e6));
}

void Attempt::decide_block(BlockId id, std::vector<StepRecord>* trace,
                           BalanceStats& stats, RequeueQueue* requeue) {
  const Block& block = dec_.blocks[static_cast<std::size_t>(id)];
  LBMEM_REQUIRE(!closed(block.home),
                "blocks homed on a closed processor must be evacuated "
                "before balancing");

  // Freeze this block's layout, data-readiness split and gain cap for
  // the M evaluations below. Overlap checks ignore the affected set (its
  // footprints must not block their own relocation), so nothing is
  // detached from the occupancy here.
  obs::ScopedSpan decide_span("lb.decide_block");
  {
    LBMEM_TRACE_SPAN("lb.prepare_block");
    prepare_block(block);
  }

  StepRecord record;
  record.block = block.id;
  record.start_before = block_start_;
  if (trace) record.candidates.reserve(static_cast<std::size_t>(procs_));

  DestinationScore best;
  bool have_best = false;
  DestinationScore home_score;
  bool home_feasible = false;
  {
  LBMEM_TRACE_SPAN("lb.evaluate_candidates");
  if (trace != nullptr) {
    // Exhaustive evaluation in processor order: the trace is the full
    // decision record, one candidate entry per processor.
    for (ProcId p = 0; p < procs_; ++p) {
      if (closed(p)) {
        DestinationScore cand;
        cand.proc = p;
        cand.reject_reason = "processor closed";
        record.candidates.push_back(cand);
        continue;
      }
      const DestinationScore cand = evaluate(block, p, nullptr);
      ++stats.dest_evaluated;
      record.candidates.push_back(cand);
      if (cand.feasible && cand.is_home) {
        home_score = cand;
        home_feasible = true;
      }
      if (cand.feasible &&
          (!have_best || better_candidate(opts_.policy, cand, best))) {
        best = cand;
        have_best = true;
      }
    }
  } else {
    // Bound-and-prune selection (DESIGN.md F15). The selected maximum of
    // a strict total order does not depend on visit order, so candidates
    // are visited best-bound-first and the loop stops as soon as the
    // remaining bounds cannot beat the incumbent. The home destination
    // is always evaluated first: it seeds the incumbent with the
    // tie-break favorite and the migration gate needs its exact score.
    if (!closed(block.home)) {
      const DestinationScore cand = evaluate(block, block.home, nullptr);
      ++stats.dest_evaluated;
      if (cand.feasible) {
        home_score = cand;
        home_feasible = true;
        best = cand;
        have_best = true;
      }
    }
    // Screen every destination with the admissible O(1) bound; keep
    // only bounds that survive. The screen itself is exact (an
    // infeasible bound proves the destination infeasible), so
    // screened-out destinations count as skipped without being
    // evaluated.
    bounds_.clear();
    std::size_t strongest = 0;
    for (ProcId p = 0; p < procs_; ++p) {
      if (p == block.home || closed(p)) continue;
      DestinationScore bound = make_bound(block, p);
      if (!bound.feasible) {
        ++stats.dest_skipped_by_bound;
        continue;
      }
      if (!bounds_.empty() &&
          better_candidate(opts_.policy, bound, bounds_[strongest])) {
        strongest = bounds_.size();
      }
      bounds_.push_back(bound);
    }
    // Visit the strongest bound first: it is the likeliest winner, and
    // evaluating it early gives the incumbent maximum pruning power
    // over the single pass below. The selected maximum of the strict
    // total order does not depend on visit order, so the remaining
    // candidates can then be taken in processor order, each behind an
    // exact bound-vs-incumbent test (a skipped candidate's exact score
    // is dominated by its bound, which already failed to beat the
    // incumbent).
    for (std::size_t n = 0; n < bounds_.size(); ++n) {
      const std::size_t i = (n == 0) ? strongest
                            : (n <= strongest ? n - 1 : n);
      const DestinationScore& bound = bounds_[i];
      if (have_best && !better_candidate(opts_.policy, bound, best)) {
        ++stats.dest_skipped_by_bound;
        continue;
      }
      const DestinationScore cand =
          evaluate(block, bound.proc, have_best ? &best : nullptr);
      ++stats.dest_evaluated;
      if (cand.cut_by_incumbent) ++stats.dest_cut_by_incumbent;
      if (cand.feasible &&
          (!have_best || better_candidate(opts_.policy, cand, best))) {
        best = cand;
        have_best = true;
      }
    }
  }
  }
  if (have_best) {
    best = apply_migration_gate(best, home_score, home_feasible);
  }

  obs::ScopedSpan commit_span("lb.commit");
  if (have_best) {
    record.chosen = best.proc;
    record.applied_gain = best.gain;
    commit(block, best.proc, best.gain, /*forced=*/false, stats);
    update_all_occ(best.proc, block.home, best.gain);
    if (best.gain > 0) {
      // Re-queue the blocks whose pinned instances shifted along. A
      // positive gain is impossible on the queue-free max_gain_ == 0
      // path, so the requeue sink is always present here.
      LBMEM_REQUIRE(requeue != nullptr,
                    "positive gain committed without a re-queue sink");
      for (const TaskId t : block.tasks) {
        const InstanceIdx n = graph().instance_count(t);
        for (InstanceIdx k = 1; k < n; ++k) {
          const BlockId other = dec_.find(TaskInstance{t, k});
          // A partial decomposition never reached the other instances;
          // their blocks are out of scope and never popped, so there is
          // nothing to re-queue (the shifted footprints are already
          // maintained by update_all_occ).
          if (other < 0) continue;
          if (!processed_[static_cast<std::size_t>(other)]) {
            const Block& ob = dec_.blocks[static_cast<std::size_t>(other)];
            requeue->push(QueueEntry{ob.start(sched_), other});
          }
        }
      }
    }
  } else {
    record.forced_stay = true;
    record.chosen = block.home;
    ++stats.forced_stays;
    commit(block, block.home, 0, /*forced=*/true, stats);
    // Forced stay: nothing moved, the occupancy already matches.
  }
  if (trace) trace->push_back(std::move(record));
}

}  // namespace

BalanceResult LoadBalancer::balance(const Schedule& input) const {
  LBMEM_REQUIRE(input.complete(), "balance requires a complete schedule");
  const BlockDecomposition dec = [&] {
    LBMEM_TRACE_SPAN("lb.build_blocks");
    return build_blocks(input);
  }();
  // One copy of the input, one occupancy build; every attempt then edits
  // them in place and a failed one rolls back (DESIGN.md F36).
  Schedule work(input);
  std::vector<ProcTimeline> occupancy;
  if (options_.overlap_rule == OverlapRule::AllInstances) {
    occupancy = build_occupancy(work);
  }
  ScheduleJournal journal(work, occupancy);
  BalanceScratch scratch;
  RebalanceResult result = run_attempts(journal, dec, scratch);
  journal.commit();
  return BalanceResult{std::move(work), std::move(result.stats),
                       std::move(result.trace)};
}

RebalanceResult LoadBalancer::rebalance(
    Schedule& sched, std::vector<ProcTimeline>& occupancy,
    const BlockDecomposition& blocks) const {
  ScheduleJournal journal(sched, occupancy);
  BalanceScratch scratch;
  RebalanceResult result = rebalance(journal, blocks, scratch);
  journal.commit();
  return result;
}

RebalanceResult LoadBalancer::rebalance(ScheduleJournal& journal,
                                        const BlockDecomposition& blocks,
                                        BalanceScratch& scratch) const {
  const Schedule& sched = journal.schedule();
  LBMEM_REQUIRE(sched.complete(), "rebalance requires a complete schedule");
  // Under MovedOnly, instances outside the scope would be invisible to
  // overlap checks — the opposite of the scoped contract (unscoped
  // instances constrain every placement). Scoped rebalancing is therefore
  // defined for the AllInstances rule only.
  LBMEM_REQUIRE(options_.overlap_rule == OverlapRule::AllInstances,
                "rebalance requires OverlapRule::AllInstances");
  const std::vector<ProcTimeline>& occupancy = journal.occupancy();
  LBMEM_REQUIRE(
      occupancy.size() ==
              static_cast<std::size_t>(
                  sched.architecture().processor_count()) &&
          occupancy.front().hyperperiod() == sched.graph().hyperperiod(),
      "rebalance needs the schedule's all-instances occupancy");
  return run_attempts(journal, blocks, scratch);
}

RebalanceResult LoadBalancer::run_attempts(ScheduleJournal& journal,
                                           const BlockDecomposition& dec,
                                           BalanceScratch& scratch) const {
  obs::ScopedSpan balance_span("lb.balance");
  Stopwatch watch;
  const Schedule& sched = journal.schedule();

  BalanceStats base;
  base.makespan_before = sched.makespan();
  base.max_memory_before = sched.max_memory();
  for (ProcId p = 0; p < sched.architecture().processor_count(); ++p) {
    base.memory_before.push_back(sched.memory_on(p));
  }

  // The first attempt honours options_.max_gain; the retry disables gains
  // entirely (pure memory spreading — every move is individually checked,
  // no optimistic shift propagation remains). A third attempt would start
  // from the same input, decomposition and occupancy with gains still
  // disabled, replaying the retry bit for bit, so a failed retry falls
  // back. Every attempt starts from the state passed in: a failed one
  // rolls the journal back to its mark.
  constexpr int kAttempts = 2;
  for (int attempt = 1; attempt <= kAttempts; ++attempt) {
    const Time gain_override = (attempt == 1) ? options_.max_gain : 0;
    LBMEM_TRACE_SPAN("lb.attempt");
    const ScheduleJournal::Mark mark = journal.mark();
    BalanceStats stats = base;
    stats.attempts_used = attempt;
    std::vector<StepRecord> trace;
    const bool ok =
        Attempt(journal, options_, gain_override, dec, scratch)
            .run(options_.record_trace ? &trace : nullptr, stats);
    if (!ok) {
      journal.rollback(mark);
      continue;
    }

    stats.makespan_after = sched.makespan();
    stats.gain_total = stats.makespan_before - stats.makespan_after;
    stats.max_memory_after = sched.max_memory();
    for (ProcId p = 0; p < sched.architecture().processor_count(); ++p) {
      stats.memory_after.push_back(sched.memory_on(p));
    }
    stats.wall_seconds = watch.seconds();
    if (options_.metrics != nullptr) fold_stats(*options_.metrics, stats);
    return RebalanceResult{std::move(stats), std::move(trace)};
  }

  // Fall back: the input schedule is valid and Gtotal = 0, so Theorem 1's
  // lower bound holds unconditionally.
  BalanceStats stats = base;
  stats.attempts_used = kAttempts;
  stats.fell_back = true;
  stats.makespan_after = base.makespan_before;
  stats.gain_total = 0;
  stats.max_memory_after = base.max_memory_before;
  stats.memory_after = base.memory_before;
  stats.wall_seconds = watch.seconds();
  if (options_.metrics != nullptr) fold_stats(*options_.metrics, stats);
  return RebalanceResult{std::move(stats), {}};
}

}  // namespace lbmem
