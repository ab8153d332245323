#pragma once
/// \file validator.hpp
/// \brief Ground-truth checker for distributed strict-periodic schedules.
///
/// The load-balancing heuristic, the baselines and the scheduler all claim
/// to produce valid schedules; this module is the independent referee. It
/// checks, from first principles:
///
///  V1. completeness — every task has a start, every instance a processor;
///  V2. strict periodicity — implied by construction (starts derive from
///      the first instance), but re-checked via the instance timing API;
///  V3. processor exclusivity — occupation intervals of instances sharing a
///      processor are pairwise disjoint on the hyper-period circle (this is
///      exactly non-overlap of the infinitely repeated schedule and
///      subsumes the paper's Block Condition, Eq. 4);
///  V4. precedence + communication — every consumer instance starts at or
///      after the arrival of all consumed data (paper Eqs. 1-2 semantics);
///  V5. memory capacity — per-processor resident memory within capacity
///      (only when the architecture declares a finite capacity).

#include <span>
#include <string>
#include <vector>

#include "lbmem/sched/schedule.hpp"
#include "lbmem/util/epoch_set.hpp"

namespace lbmem {

/// One rule violation, suitable for diffing in tests.
struct Violation {
  enum class Kind {
    Incomplete,
    Overlap,
    Precedence,
    MemoryCapacity,
    NegativeStart,
  };
  Kind kind;
  std::string detail;
};

/// Result of validating one schedule.
struct ValidationReport {
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }

  /// All violation details joined by newlines (empty when ok()).
  std::string to_string() const;
};

/// Validate \p sched against V1-V5. Never throws on rule violations; they
/// are collected in the report.
ValidationReport validate(const Schedule& sched);

/// validate(sched).ok() for a schedule that was valid until the instances
/// in \p moved changed processor or start, given that the caller has
/// proven their new footprints overlap nothing (DESIGN.md F35). Checks V1
/// and V5, and V4 at every moved instance and every consumer instance of
/// one — each instance once, tracked in \p seen, the caller's scratch
/// (cleared here, its contents overwritten). V3 is the caller's proof.
/// Once \p seen has grown to the graph's instance count, the cost follows
/// |moved| and its consumers plus O(M), not the size of the schedule
/// (DESIGN.md F41). \p moved may hold duplicates. Debug builds of the
/// balancer compare every verdict with validate() (F44).
bool is_valid_around(const Schedule& sched,
                     std::span<const TaskInstance> moved, EpochSet& seen);

/// Convenience: throw ScheduleError with the full report when invalid.
void validate_or_throw(const Schedule& sched);

}  // namespace lbmem
