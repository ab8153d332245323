#pragma once
/// \file solver.hpp
/// \brief The polymorphic solver facade (DESIGN.md F18): one interface
/// over the paper heuristic, the GA and greedy baselines, and the exact
/// partitioners, so drivers (CLI, examples, benches, scenario suites) can
/// iterate over algorithms instead of hard-coding call shapes.
///
/// Contracts:
///  * solve() never throws for "this solver cannot handle this instance";
///    it returns an infeasible Outcome with the reason in `detail`.
///    Programming errors (precondition violations) still throw.
///  * An engaged Outcome::schedule always passes validate/ — every adapter
///    runs the independent validator before handing a schedule out, so an
///    algorithm that silently produces an over-capacity or conflicting
///    placement surfaces as infeasible, not as a bad schedule.
///  * SolveStats is the unified superset of BalanceStats / GaResult /
///    the partition results: the common block is always filled (before
///    figures come from the Problem's initial schedule, so every solver is
///    measured against the same anchor); family blocks are guarded by
///    has_* flags (a partition baseline has no block counters to report —
///    see DESIGN.md F18 on why partition-only stats exist at all).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "lbmem/api/problem.hpp"

namespace lbmem {

/// What a solver can and cannot do — drivers use these to pick subsets
/// and to build instances a solver accepts (DESIGN.md F18).
struct SolverCaps {
  /// Can place the instances of one task on different processors (the
  /// paper heuristic's block granularity); whole-task solvers cannot.
  bool splits_instances = false;
  /// Refines Problem::initial_schedule() (vs. placing from scratch using
  /// only graph + architecture + comm).
  bool refines_initial = false;
  /// Honors a finite per-processor memory capacity during the search (any
  /// solver may still *return* infeasible when the result busts it).
  bool respects_capacity = false;
  /// Optimizes only the min-max memory partition (Theorem 2's objective);
  /// timing comes from the forced earliest-start schedule afterwards.
  bool partition_only = false;
  /// 0 = any processor count; otherwise the exact M required (the
  /// two-machine DP).
  int machines_exact = 0;
  /// Same Problem, same Outcome, every run (all built-ins are; the GA is
  /// deterministic per configured seed).
  bool deterministic = true;
};

/// Unified outcome metrics (superset of BalanceStats / GaResult / the
/// partition results). The common block is always valid; family blocks
/// only when their has_* flag is set.
struct SolveStats {
  // -- common (always filled; "before" = the Problem's initial schedule) --
  Time makespan_before = 0;
  Time makespan_after = 0;
  /// makespan_before - makespan_after. Signed: the heuristic guarantees
  /// >= 0 (Theorem 1), from-scratch solvers may regress.
  Time gain_total = 0;
  Mem max_memory_before = 0;
  Mem max_memory_after = 0;
  std::vector<Mem> memory_before;  ///< per processor
  std::vector<Mem> memory_after;   ///< per processor
  double wall_seconds = 0.0;

  // -- paper-heuristic family (BalanceStats) ------------------------------
  bool has_balance = false;
  int blocks_total = 0;
  int blocks_category1 = 0;
  int moves_off_home = 0;
  int gains_applied = 0;
  int forced_stays = 0;
  int attempts_used = 0;
  bool fell_back = false;

  // -- GA family (GaResult) -----------------------------------------------
  bool has_ga = false;
  double fitness = 0.0;
  int evaluations = 0;
  int infeasible_evaluations = 0;

  // -- partition family (PartitionResult / BnbResult) ---------------------
  bool has_partition = false;
  Mem partition_max_load = 0;      ///< the paper's ω over memory weights
  Mem partition_lower_bound = 0;   ///< max(ceil(total/M), max weight)
  bool partition_proven_optimal = false;
  std::uint64_t partition_nodes = 0;  ///< B&B nodes explored (0 for DP)
};

/// What one solve produced: a valid schedule (when feasible), the unified
/// stats, and a per-solver detail line (configuration echo, or the reason
/// the instance was infeasible for this solver).
struct Outcome {
  /// Engaged iff the solver found a schedule; valid by contract.
  std::optional<Schedule> schedule;
  SolveStats stats;
  std::string detail;
  /// Shares the Problem's graph ownership: a Schedule holds a raw pointer
  /// to its TaskGraph, so an Outcome must keep the graph alive even after
  /// the (possibly temporary) Problem it was solved from is gone.
  std::shared_ptr<const TaskGraph> graph;

  bool feasible() const { return schedule.has_value(); }
};

/// The facade every algorithm implements.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Stable registry key (e.g. "heuristic-lex", "ga", "bnb-partition").
  virtual const std::string& name() const = 0;

  virtual SolverCaps capabilities() const = 0;

  /// Solve \p problem. Never throws for unsupported/unschedulable
  /// instances — see the file comment for the Outcome contract.
  virtual Outcome solve(const Problem& problem) const = 0;
};

namespace detail {

/// Fill the common "before" block of \p stats from the problem's initial
/// schedule (the shared comparison anchor).
void fill_before(SolveStats& stats, const Schedule& initial);

/// Fill the common "after" block (and gain_total) from \p result.
void fill_after(SolveStats& stats, const Schedule& result);

/// Validate \p schedule and build the Outcome: engaged on success,
/// infeasible with the validator's report as detail otherwise. The
/// "after" block is filled from the schedule on success, and the
/// problem's graph ownership is carried into the Outcome.
Outcome finish_outcome(const Problem& problem, SolveStats stats,
                       Schedule schedule, std::string detail);

/// An infeasible Outcome (no schedule; "after" mirrors "before").
Outcome infeasible_outcome(const Problem& problem, SolveStats stats,
                           std::string detail);

}  // namespace detail

}  // namespace lbmem
