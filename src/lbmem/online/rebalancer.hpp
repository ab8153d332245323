#pragma once
/// \file rebalancer.hpp
/// \brief Event-driven schedule repair with warm-start incremental
/// balancing — the online subsystem's core engine.
///
/// The Rebalancer owns a running system (task graph + valid schedule +
/// failed-processor set) and applies runtime events to it:
///
///  1. **Patch** — the event is turned into a *dirty task set* and the
///     schedule is repaired constructively: dirty tasks are re-placed
///     whole (earliest feasible strict-periodic start over the alive
///     processors, preferring their previous processor), in topological
///     order, cascading to consumers whose data-readiness the re-placement
///     broke (DESIGN.md F11). Arrivals/removals edit the graph through
///     TaskGraph::without and carry placements over (DESIGN.md F10/F13).
///  2. **Warm-start incremental balance** — only the blocks around the
///     dirtied tasks are re-decomposed (build_blocks_around) and re-run
///     through the paper's heuristic (LoadBalancer::rebalance), reusing
///     the engine's persistently maintained all-instances occupancy
///     instead of rebuilding it, and pricing migrations through
///     BalanceOptions::migration_penalty (DESIGN.md F9/F12).
///
/// Every applied event leaves a schedule that passes validate/ — events
/// whose repair is infeasible are *rejected*: the pre-event state is kept
/// untouched (including un-marking a failed processor, DESIGN.md F14) and
/// the outcome reports the reason.
///
/// With RebalancerOptions::degraded the engine instead escalates through
/// the degraded-mode repair ladder (DESIGN.md F28) before giving up:
/// widened-scope retries, a constructive re-place of every task, and
/// finally explicit load shedding — dropping the lowest-priority tasks
/// into a reported `shed` set instead of failing hard. Each rung preserves
/// the F14 contract: a rung that does not produce a valid schedule leaves
/// the system exactly as before.

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "lbmem/lb/load_balancer.hpp"
#include "lbmem/online/event.hpp"
#include "lbmem/sched/timeline.hpp"

namespace lbmem {

/// Online-engine configuration.
struct RebalancerOptions {
  /// Policy of the balance stage (including migration_penalty and memory-
  /// capacity enforcement). closed_procs is managed by the engine.
  BalanceOptions balance;
  /// Warm-start incremental balance over the dirty neighborhood (true) or
  /// a full LoadBalancer::balance after every patch (false; the baseline
  /// the bench compares against).
  bool incremental = true;
  /// Observability sink (DESIGN.md F25): when set, every apply() folds
  /// its outcome into this registry — applied/rejected counters, the
  /// repaired-tasks / migration totals, the dirty-set-size histogram
  /// (Deterministic class) and the per-event repair-latency histogram
  /// (Timing class). The balance stage inherits the pointer through
  /// BalanceOptions::metrics unless `balance.metrics` was already set.
  /// The registry must outlive the engine.
  obs::Registry* metrics = nullptr;
  /// Degraded-mode repair ladder (DESIGN.md F28): run it when the dirty-
  /// set repair (and the historic full re-place escalation) would
  /// otherwise reject the event. Off by default, in which case a rejected
  /// dirty-set repair escalates once to a full re-place and then rejects.
  bool degraded = false;
};

/// What one event did to the system.
struct EventOutcome {
  Event event;
  /// False: the event was infeasible; the state was rolled back untouched.
  bool applied = false;
  std::string reject_reason;
  /// The event replaced the task graph (arrival, removal or shed).
  bool graph_rebuilt = false;
  /// The hyper-period changed and every task was re-placed (DESIGN.md F13).
  bool full_replace = false;
  /// Tasks re-placed by the dirty-set repair (cascade included).
  int repaired_tasks = 0;
  /// Blocks re-evaluated by the balance stage.
  int dirty_blocks = 0;
  /// Surviving instances whose processor changed across the event.
  int migrated_instances = 0;
  /// Balance-stage movement and gain (0 when the stage is off/fell back).
  int balance_moves = 0;
  Time balance_gain = 0;
  bool balance_fell_back = false;
  /// Degraded-mode ladder (DESIGN.md F28): the rung that produced the
  /// committed schedule. 0 = the plain dirty-set repair (or the historic
  /// full re-place escalation) sufficed; 1 = widened-scope retry;
  /// 2 = constructive re-place of every task; 3 = load shedding.
  int degraded_rung = 0;
  /// Widened-scope retry attempts consumed (rung 1), whether or not one
  /// of them succeeded.
  int degraded_retries = 0;
  /// Tasks dropped by the shed rung (names, in shed order). The tasks are
  /// gone from the running graph; Rebalancer::shed_tasks() accumulates
  /// them across events.
  std::vector<std::string> shed;
  /// Post-event system state.
  Time makespan = 0;
  Mem max_memory = 0;
  int alive_tasks = 0;
  int alive_procs = 0;
  /// Patch + balance latency.
  double wall_seconds = 0.0;
};

/// The online engine. Construction takes ownership of the graph the
/// schedule references (arrival/removal events replace it).
class Rebalancer {
 public:
  /// \p schedule must be complete, valid, and reference \p graph.
  Rebalancer(std::unique_ptr<TaskGraph> graph, Schedule schedule,
             RebalancerOptions options = {});

  /// Convenience: deep-copies \p graph and rebinds a copy of \p schedule
  /// to the copy (callers keep their originals).
  static Rebalancer adopt(const TaskGraph& graph, const Schedule& schedule,
                          RebalancerOptions options = {});

  /// Apply one event: patch, repair, incrementally rebalance. Returns the
  /// outcome; on rejection the system is exactly as before the call.
  EventOutcome apply(const Event& event);

  /// Convenience for the robustness harness and failover tests: a
  /// ProcessorFailure observed at simulated tick \p at. Equivalent to
  /// apply(Event{at, ProcessorFailure{proc}}).
  EventOutcome fail_processor(ProcId proc, Time at = 0);

  const TaskGraph& graph() const { return *graph_; }
  const Schedule& schedule() const { return *sched_; }
  const RebalancerOptions& options() const { return options_; }

  /// Per-processor failed flags (size M).
  const std::vector<std::uint8_t>& failed_procs() const { return failed_; }
  int alive_processor_count() const;

  /// Tasks dropped by the shed rung so far (names, in shed order).
  const std::vector<std::string>& shed_tasks() const { return shed_; }
  /// Arm or disarm the degraded-mode repair ladder between events — the
  /// stream service's overload-escalation hook (DESIGN.md F33): under
  /// backlog pressure a hard reject is worse than a shed, so the service
  /// flips the ladder on past its high-water mark and restores the
  /// configured state once the backlog drains.
  void set_degraded_enabled(bool enabled) { options_.degraded = enabled; }
  bool degraded_enabled() const { return options_.degraded; }

 private:
  struct Patched;  // candidate post-patch state (rebalancer.cpp)

  static Patched full_replace_candidate(const TaskGraph& graph,
                                        const Schedule& pre,
                                        std::span<const TaskId> remap);
  void run_balance_stage(const std::vector<TaskId>& seeds,
                         EventOutcome& out);

  RebalancerOptions options_;
  std::unique_ptr<TaskGraph> graph_;
  std::optional<Schedule> sched_;
  std::vector<std::uint8_t> failed_;
  /// Warm all-instances occupancy, always mirroring *sched_.
  std::vector<ProcTimeline> occ_;
  /// Shed-rung victims accumulated across events (DESIGN.md F28).
  std::vector<std::string> shed_;
};

}  // namespace lbmem
