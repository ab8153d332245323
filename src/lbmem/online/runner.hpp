#pragma once
/// \file runner.hpp
/// \brief Trace replay harness: applies an event trace to a Rebalancer,
/// validates the schedule after every event, and aggregates per-event
/// metrics into an OnlineReport (rendered by report/online.hpp).

#include <vector>

#include "lbmem/obs/metrics.hpp"
#include "lbmem/online/rebalancer.hpp"

namespace lbmem {

/// Replay results: the per-event outcomes plus trajectory aggregates.
struct OnlineReport {
  std::vector<EventOutcome> events;
  /// count_violations() after each event (parallel to `events`; always 0
  /// for a correct engine).
  std::vector<int> violations;

  int applied = 0;
  int rejected = 0;
  int total_violations = 0;
  int total_migrations = 0;
  int total_repaired = 0;
  int total_balance_moves = 0;
  /// Full-resolve outcomes discarded for re-populating a failed processor
  /// (see EventOutcome::resolver_discarded; 0 outside resolver mode).
  int total_resolver_discards = 0;
  /// Degraded-mode ladder totals (DESIGN.md F28; all 0 with the ladder
  /// off): widened-scope retry attempts, recoveries per rung, the deepest
  /// rung any event needed, and every shed task in shed order.
  int total_retries = 0;
  int recovered_retry = 0;
  int recovered_replace = 0;
  int recovered_shed = 0;
  int degraded_mode = 0;
  std::vector<std::string> shed;
  Time total_balance_gain = 0;
  /// Worst per-processor memory seen anywhere along the trajectory.
  Mem peak_max_memory = 0;
  Time final_makespan = 0;
  Mem final_max_memory = 0;
  double total_wall_seconds = 0.0;
  double max_wall_seconds = 0.0;
  /// Per-event repair latency in microseconds (one sample per event; the
  /// p50/p99 columns of report/online come from here). Wall clock — a
  /// timing figure, stripped by the report layer under --timing=off.
  obs::LatencyHistogram repair_latency_us;
  /// Per-applied-event dirty-set size (blocks re-evaluated by the balance
  /// stage). Deterministic: a property of the decision sequence.
  obs::LatencyHistogram dirty_blocks;
};

/// Violations of \p system's current schedule: validate/'s findings plus
/// one per failed processor that still hosts work, a rule the validator
/// cannot know about. The acceptance bar for the online engine is zero
/// after every event.
int count_violations(const Rebalancer& system);

/// Replays traces against a Rebalancer.
class OnlineRunner {
 public:
  /// Apply every event of \p trace to \p system in order, counting
  /// violations after each one; a rejected event leaves the previous valid
  /// state in place and the replay goes on.
  OnlineReport replay(Rebalancer& system, const EventTrace& trace) const;
};

}  // namespace lbmem
