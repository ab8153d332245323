#pragma once
/// \file robustness.hpp
/// \brief The perturbed-execution robustness harness (DESIGN.md Section
/// 11): seeded replications of simulate_perturbed over one schedule, with
/// the failure -> online-repair handoff and aggregate miss-rate statistics.
///
/// Each replication executes the schedule for sim.hyperperiods windows
/// under the spec's noise with a replication-derived seed. Injected
/// ProcessorFailures (any number, independent fail times) split the run
/// into *phases* at hyper-period boundaries:
///
///   * a failure at tick `at` (window w_f = at / H) is live from `at` to
///     the end of window w_f — every dispatch on the dead processor in
///     that span is lost;
///   * at the boundary (w_f+1)*H the failure is handed to the
///     online/Rebalancer once per report (noise never changes what repair
///     does). If the repair — possibly escalated through the degraded
///     ladder, DESIGN.md F28 — is accepted, the repaired table takes over
///     for the following phase: recovery_latency = (w_f+1)*H - at, the
///     table-swap discipline of strict-periodic dispatchers. If it is
///     rejected (Rebalancer rolls back, F14), the processor stays dead for
///     the rest of the run, losing every dispatch placed on it.
///
/// Dependences crossing a swap boundary are not tracked across windows
/// (each window re-derives its producers); the boundary hyper-period is
/// where the miss-rate-before figure already charges the damage.
///
/// Determinism: replication seeds are derived by value
/// (PerturbSpec::replication), draws and burst-chain states are keyed by
/// absolute window coordinates (stitched phases see exactly what an
/// unsplit run sees), and repairs run once per report — so the report is
/// bit-identical however replications are ordered or distributed over
/// threads.

#include <string>
#include <vector>

#include "lbmem/online/rebalancer.hpp"
#include "lbmem/sim/engine.hpp"

namespace lbmem {

/// Harness configuration.
struct RobustnessOptions {
  /// Window shape per replication (hyperperiods >= 1).
  SimOptions sim;
  /// Noise model + optional failure injection; seed is the root seed.
  PerturbSpec perturb;
  /// Seeded replications to run (>= 1).
  int replications = 3;
  /// Online-engine configuration for the failure repair.
  RebalancerOptions repair;
};

/// Deterministic miss-rate-driven candidate selection (DESIGN.md F30).
/// pick() returns the first never-observed candidate (exploration in
/// registration order), else the candidate with the lowest pooled mean
/// observed miss rate, ties to the earlier registration. A pure fold of
/// the observation sequence — thread-count invariant by construction.
class MissRateSelector {
 public:
  explicit MissRateSelector(std::vector<std::string> names);

  /// Index of the candidate the next decision should use.
  int pick() const;
  /// Pool one miss-rate observation for candidate \p index.
  void observe(int index, double miss_rate);

  const std::string& name(int index) const;
  int size() const { return static_cast<int>(entries_.size()); }
  /// Pooled mean for \p index (0 when never observed).
  double pooled(int index) const;
  int observations(int index) const;

 private:
  struct Entry {
    std::string name;
    double sum = 0.0;
    int count = 0;
  };
  std::vector<Entry> entries_;
};

/// One replication's outcome.
struct RobustnessReplication {
  SimMetrics metrics;  ///< merged across windows when a failure split them
  double miss_rate = 0.0;
  double span_inflation = 1.0;
  /// Failure runs only: miss rate of the failure window [0, w_f] and of
  /// the post-handoff tail (0 when there is no tail).
  double miss_rate_before = 0.0;
  double miss_rate_after = 0.0;
};

/// One injected processor failure's fate.
struct FailureOutcome {
  ProcId proc = kNoProc;
  Time at = 0;
  /// The repair (ladder included) was accepted.
  bool repaired = false;
  /// Failure to repaired-table activation: (w_f+1)*H - at (0 on reject).
  Time recovery_latency = 0;
  /// Degraded-mode rung that produced the accepted table (0 = plain).
  int degraded_rung = 0;
  /// Tasks dropped by the shed rung for this repair.
  std::vector<std::string> shed;
  /// Repair summary, or the Rebalancer's rejection reason.
  std::string detail;
};

/// The aggregate robustness report.
struct RobustnessReport {
  std::vector<RobustnessReplication> replications;
  /// The spec configured at least one ProcessorFailure inside the window.
  bool failure_injected = false;
  /// Every injected failure's repair was accepted (false: at least one
  /// hard failure, rollback).
  bool recovered = false;
  /// Worst failure-to-repaired-table-activation latency over the repaired
  /// failures: max of (w_f+1)*H - fail_at.
  Time recovery_latency = 0;
  /// Repair summary, or the Rebalancer's rejection reason (the first
  /// failure's detail; see `failures` for the rest).
  std::string repair_detail;
  /// Per-failure outcomes, in injection (fail-time) order.
  std::vector<FailureOutcome> failures;
  /// Nearest-rank percentiles of the per-replication miss rates.
  double miss_p50 = 0.0;
  double miss_p99 = 0.0;
  double mean_span_inflation = 1.0;
  /// Means of the per-replication before/after-recovery miss rates
  /// (failure runs only; 0 otherwise).
  double mean_miss_before = 0.0;
  double mean_miss_after = 0.0;
  /// Sums over the replications.
  std::int64_t total_violations = 0;
  std::int64_t total_deadline_misses = 0;
  std::int64_t total_lost_instances = 0;
};

/// Nearest-rank percentile (pct in [0, 100]) of \p values; 0 when empty.
/// Exposed for the scenario summary's pooled percentiles.
double robustness_percentile(std::vector<double> values, double pct);

/// Run the harness on \p schedule. Requires a complete schedule,
/// replications >= 1, and every configured failure's fail time inside
/// [0, hyperperiods * H).
RobustnessReport run_robustness(const Schedule& schedule,
                                const RobustnessOptions& options);

}  // namespace lbmem
