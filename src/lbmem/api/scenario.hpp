#pragma once
/// \file scenario.hpp
/// \brief Head-to-head scenario runner (DESIGN.md F18): sweep a registry
/// subset across a generator suite and collect a comparison report. The
/// rendering (table / JSON) lives in report/solve.hpp; this module only
/// produces the structured result, so other drivers (benches, notebooks)
/// can consume the same data.

#include <cstdint>
#include <string>
#include <vector>

#include "lbmem/api/registry.hpp"
#include "lbmem/gen/suites.hpp"
#include "lbmem/sim/engine.hpp"

namespace lbmem {

/// What to sweep: a generator suite and the solver subset to race on it.
struct ScenarioSpec {
  /// Workloads: spec.count instances from seeds base_seed, base_seed+1, …
  /// (unschedulable seeds are skipped and counted).
  SuiteSpec suite;
  /// Registry names to run, in this order; empty = every registered
  /// solver in registration order.
  std::vector<std::string> solvers;
  /// Threads for the (instance x solver) sweep (DESIGN.md F20, F43):
  /// 1 (the default) runs the cells in order on the calling thread, 0
  /// resolves to the hardware concurrency. Every cell solves its own
  /// Problem and writes its own pre-sized slot, so the report — cell
  /// order, summary, JSON — is identical for every thread count
  /// (wall-clock fields aside, which are never deterministic). Every
  /// registered solver runs on its cell's thread, so the sweep does not
  /// oversubscribe.
  int threads = 1;
  /// Robustness mode: run this many seeded perturbed replications of the
  /// discrete-event executor per *feasible* cell, under suite.perturb's
  /// noise model (0 = off, the static comparison). Every instance derives
  /// one noise stream from (suite.perturb.seed, instance seed) — shared by
  /// all solvers racing on it, so a task draws the same overrun whichever
  /// schedule hosts it and the comparison is apples-to-apples — and
  /// replication seeds are derived by value, so the report is bit-identical
  /// across thread counts and replication order.
  int replications = 0;
  /// Executor window per replication (hyper-periods, local buffers).
  /// sim.metrics must stay null: run() throws PreconditionError otherwise,
  /// before generating the suite. The replications record into their
  /// cell's registry instead (see `metrics`).
  SimOptions sim;
  /// Miss-rate-driven solver selection (DESIGN.md F30): adds a virtual
  /// "adaptive" summary row that, per instance (in suite order), mirrors
  /// the cell of the candidate with the best pooled perturbed miss rate
  /// observed on the *previous* instances — unobserved candidates are
  /// explored first in spec order, an infeasible pick observes the
  /// worst-case rate of 1.0 (an infeasible schedule misses everything).
  /// A sequential post-pass over already-solved cells, so the row is
  /// byte-identical for every thread count. Requires replications > 0.
  bool adaptive = false;
  /// Observability sink (DESIGN.md F25): when set, the sweep counts its
  /// cells (Deterministic class) and records one per-solver wall-time
  /// histogram sample per cell (`compare.wall_us.<solver>`, Timing class),
  /// and the robustness replications record their `sim.*` and
  /// `robustness.*` metrics. Each cell records into a registry of its own
  /// and folds it into this one under a lock when it ends (DESIGN.md F43),
  /// so the metrics are identical for every thread count. It must outlive
  /// run().
  obs::Registry* metrics = nullptr;
};

/// One solver's outcome on one suite instance.
struct ScenarioCell {
  std::string solver;
  std::uint64_t seed = 0;
  bool feasible = false;
  Time makespan = 0;
  Mem max_memory = 0;
  Time gain = 0;  ///< initial-schedule makespan minus the solver's
  double wall_seconds = 0.0;
  std::string detail;  ///< configuration echo or the infeasibility reason
  // Robustness mode (ScenarioSpec::replications > 0), feasible cells only:
  bool perturbed = false;
  /// Per-replication miss rates, in replication order.
  std::vector<double> rep_miss_rates;
  double miss_p50 = 0.0;
  double miss_p99 = 0.0;
  double mean_span_inflation = 1.0;
  /// Executor invariant violations summed over the replications.
  std::int64_t sim_violations = 0;
};

/// Per-solver aggregates. Quality means (makespan, memory, gain) average
/// over the *solved* instances — an infeasible run has no makespan to
/// average. Wall time averages over *all* instances: a solver that burns
/// seconds before declaring infeasible pays for them in the timing
/// column, and `solved` sits next to it so the two denominators are
/// always visible together.
struct ScenarioSolverSummary {
  std::string solver;
  int solved = 0;  ///< instances with a feasible outcome
  double mean_makespan = 0.0;
  double mean_max_memory = 0.0;
  double mean_gain = 0.0;
  double mean_wall_seconds = 0.0;  ///< over all instances, solved or not
  // Robustness mode: percentiles pooled over every replication of every
  // solved instance (miss rates are comparable across instances — they are
  // already normalized by instance size), inflation averaged over them.
  double miss_p50 = 0.0;
  double miss_p99 = 0.0;
  double mean_span_inflation = 1.0;
};

/// The full sweep result.
struct ScenarioReport {
  int instances = 0;      ///< suite instances actually generated
  int skipped_seeds = 0;  ///< unschedulable seeds the generator skipped
  /// Echo of ScenarioSpec::replications (> 0: robustness columns present).
  int replications = 0;
  /// instance-major: all solvers on instance 0, then instance 1, …
  std::vector<ScenarioCell> cells;
  /// solver order of the spec (summary row even when nothing solved).
  std::vector<ScenarioSolverSummary> summary;
  /// Adaptive mode (ScenarioSpec::adaptive): present when true.
  bool adaptive = false;
  /// Per instance, the candidate the adaptive policy ran (suite order).
  std::vector<std::string> adaptive_picks;
  /// The virtual policy's aggregates (solver == "adaptive").
  ScenarioSolverSummary adaptive_summary;
};

/// Runs registry subsets over generator suites.
class ScenarioRunner {
 public:
  /// \p registry must outlive the runner.
  explicit ScenarioRunner(const SolverRegistry& registry =
                              SolverRegistry::builtin());

  /// Run the sweep. Throws Error on an unknown solver name and
  /// PreconditionError on a non-null spec.sim.metrics (both before any
  /// workload is generated); ScheduleError never escapes — per-instance
  /// infeasibility is data, not failure.
  ScenarioReport run(const ScenarioSpec& spec) const;

 private:
  const SolverRegistry* registry_;
};

}  // namespace lbmem
