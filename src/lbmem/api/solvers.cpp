#include "lbmem/api/solvers.hpp"

#include <sstream>
#include <utility>

#include "lbmem/baseline/bnb_partitioner.hpp"
#include "lbmem/baseline/dp_partitioner.hpp"
#include "lbmem/baseline/partition.hpp"
#include "lbmem/baseline/simple_balancers.hpp"
#include "lbmem/util/stopwatch.hpp"

namespace lbmem {

namespace {

/// Common tail of the from-scratch whole-task adapters: time the run,
/// translate "no schedule" into an infeasible Outcome, validate the rest.
Outcome finish_optional(const Problem& problem, SolveStats stats,
                        std::optional<Schedule> schedule,
                        const Stopwatch& watch, std::string detail,
                        const char* infeasible_reason) {
  stats.wall_seconds = watch.seconds();
  if (!schedule) {
    return detail::infeasible_outcome(problem, std::move(stats),
                                      infeasible_reason);
  }
  return detail::finish_outcome(problem, std::move(stats),
                                std::move(*schedule), std::move(detail));
}

}  // namespace

SolveStats to_solve_stats(const BalanceStats& stats) {
  SolveStats out;
  out.makespan_before = stats.makespan_before;
  out.makespan_after = stats.makespan_after;
  out.gain_total = stats.gain_total;
  out.max_memory_before = stats.max_memory_before;
  out.max_memory_after = stats.max_memory_after;
  out.memory_before = stats.memory_before;
  out.memory_after = stats.memory_after;
  out.wall_seconds = stats.wall_seconds;
  out.has_balance = true;
  out.blocks_total = stats.blocks_total;
  out.blocks_category1 = stats.blocks_category1;
  out.moves_off_home = stats.moves_off_home;
  out.gains_applied = stats.gains_applied;
  out.forced_stays = stats.forced_stays;
  out.attempts_used = stats.attempts_used;
  out.fell_back = stats.fell_back;
  return out;
}

std::vector<Mem> task_memory_weights(const TaskGraph& graph) {
  std::vector<Mem> weights(graph.task_count());
  for (TaskId t = 0; t < static_cast<TaskId>(graph.task_count()); ++t) {
    weights[static_cast<std::size_t>(t)] =
        graph.task(t).memory * static_cast<Mem>(graph.instance_count(t));
  }
  return weights;
}

// ---- InitialSolver --------------------------------------------------------

const std::string& InitialSolver::name() const {
  static const std::string kName = "initial";
  return kName;
}

SolverCaps InitialSolver::capabilities() const {
  SolverCaps caps;
  caps.refines_initial = true;  // "refines" by the identity transform
  return caps;
}

Outcome InitialSolver::solve(const Problem& problem) const {
  SolveStats stats;
  detail::fill_before(stats, problem.initial_schedule());
  return detail::finish_outcome(problem, std::move(stats),
                                problem.initial_schedule(),
                                "the initial schedule, no balancing");
}

// ---- HeuristicSolver ------------------------------------------------------

HeuristicSolver::HeuristicSolver(BalanceOptions options)
    : HeuristicSolver(heuristic_solver_name(options.policy),
                      std::move(options)) {}

HeuristicSolver::HeuristicSolver(std::string name, BalanceOptions options)
    : name_(std::move(name)), options_(std::move(options)) {}

const std::string& HeuristicSolver::name() const { return name_; }

SolverCaps HeuristicSolver::capabilities() const {
  SolverCaps caps;
  caps.splits_instances = true;
  caps.refines_initial = true;
  caps.respects_capacity = true;
  return caps;
}

Outcome HeuristicSolver::solve(const Problem& problem) const {
  BalanceOptions options = options_;
  // A Problem with a finite capacity means the capacity is part of the
  // instance; the heuristic is the one solver that can actively respect it.
  if (problem.architecture().has_memory_limit()) {
    options.enforce_memory_capacity = true;
  }
  Stopwatch watch;
  BalanceResult result =
      LoadBalancer(options).balance(problem.initial_schedule());
  SolveStats stats = to_solve_stats(result.stats);
  stats.wall_seconds = watch.seconds();
  return detail::finish_outcome(problem, std::move(stats),
                                std::move(result.schedule),
                                "policy=" + to_string(options_.policy));
}

std::string heuristic_solver_name(CostPolicy policy) {
  switch (policy) {
    case CostPolicy::Lexicographic: return "heuristic-lex";
    case CostPolicy::PaperFormula: return "heuristic-formula";
    case CostPolicy::PaperLiteral: return "heuristic-literal";
    case CostPolicy::GainOnly: return "heuristic-gain";
    case CostPolicy::MemoryOnly: return "heuristic-memory";
  }
  return "heuristic";
}

// ---- GaSolver -------------------------------------------------------------

GaSolver::GaSolver(GaOptions options) : GaSolver("ga", std::move(options)) {}

GaSolver::GaSolver(std::string name, GaOptions options)
    : name_(std::move(name)), options_(std::move(options)) {}

const std::string& GaSolver::name() const { return name_; }

SolverCaps GaSolver::capabilities() const {
  return SolverCaps{};  // whole-task, from scratch, capacity-oblivious
}

Outcome GaSolver::solve(const Problem& problem) const {
  SolveStats stats;
  detail::fill_before(stats, problem.initial_schedule());

  Stopwatch watch;
  std::optional<GaResult> result = ga_balance(
      problem.graph(), problem.architecture(), problem.comm(), options_);
  stats.wall_seconds = watch.seconds();
  if (!result) {
    return detail::infeasible_outcome(
        problem, std::move(stats),
        "no feasible assignment found in the GA run");
  }

  stats.has_ga = true;
  stats.fitness = result->fitness;
  stats.evaluations = result->evaluations;
  stats.infeasible_evaluations = result->infeasible_evaluations;

  std::ostringstream detail_line;
  detail_line << "population=" << options_.population << " generations="
              << options_.generations << " seed=" << options_.seed;
  return detail::finish_outcome(problem, std::move(stats),
                                std::move(result->schedule),
                                detail_line.str());
}

// ---- simple whole-task greedies -------------------------------------------

const std::string& RoundRobinSolver::name() const {
  static const std::string kName = "round-robin";
  return kName;
}

SolverCaps RoundRobinSolver::capabilities() const { return SolverCaps{}; }

Outcome RoundRobinSolver::solve(const Problem& problem) const {
  SolveStats stats;
  detail::fill_before(stats, problem.initial_schedule());
  Stopwatch watch;
  std::optional<Schedule> schedule = round_robin_schedule(
      problem.graph(), problem.architecture(), problem.comm());
  return finish_optional(problem, std::move(stats), std::move(schedule),
                         watch,
                         "task i on processor i mod M, topological order",
                         "the round-robin assignment is unschedulable");
}

const std::string& MemoryGreedySolver::name() const {
  static const std::string kName = "memory-greedy";
  return kName;
}

SolverCaps MemoryGreedySolver::capabilities() const { return SolverCaps{}; }

Outcome MemoryGreedySolver::solve(const Problem& problem) const {
  SolveStats stats;
  detail::fill_before(stats, problem.initial_schedule());
  Stopwatch watch;
  std::optional<Schedule> schedule = memory_greedy_schedule(
      problem.graph(), problem.architecture(), problem.comm());
  return finish_optional(problem, std::move(stats), std::move(schedule),
                         watch,
                         "decreasing memory, least-loaded processor first",
                         "the memory-greedy assignment is unschedulable");
}

// ---- partition baselines --------------------------------------------------

namespace {

/// Shared tail of the partition adapters: schedule the whole-task
/// assignment with the forced earliest-start scheduler and validate.
Outcome schedule_partition(SolveStats stats, const Problem& problem,
                           const PartitionResult& partition,
                           const Stopwatch& watch, std::string detail_line) {
  std::vector<ProcId> assignment(partition.assignment.begin(),
                                 partition.assignment.end());
  std::optional<Schedule> schedule;
  std::string reason;
  try {
    schedule = build_forced_schedule(problem.graph(), problem.architecture(),
                                     problem.comm(), assignment);
  } catch (const ScheduleError& e) {
    reason = std::string("the partition assignment is unschedulable: ") +
             e.what();
  }
  stats.wall_seconds = watch.seconds();
  if (!schedule) {
    return detail::infeasible_outcome(problem, std::move(stats),
                                      std::move(reason));
  }
  return detail::finish_outcome(problem, std::move(stats),
                                std::move(*schedule),
                                std::move(detail_line));
}

}  // namespace

BnbPartitionSolver::BnbPartitionSolver(std::uint64_t node_budget)
    : node_budget_(node_budget) {}

const std::string& BnbPartitionSolver::name() const {
  static const std::string kName = "bnb-partition";
  return kName;
}

SolverCaps BnbPartitionSolver::capabilities() const {
  SolverCaps caps;
  caps.partition_only = true;
  return caps;
}

Outcome BnbPartitionSolver::solve(const Problem& problem) const {
  const std::vector<Mem> weights = task_memory_weights(problem.graph());
  const int machines = problem.architecture().processor_count();

  SolveStats stats;
  detail::fill_before(stats, problem.initial_schedule());

  Stopwatch watch;
  const BnbResult result = bnb_partition(weights, machines, node_budget_);
  stats.has_partition = true;
  stats.partition_max_load = result.partition.max_load;
  stats.partition_lower_bound = partition_lower_bound(weights, machines);
  stats.partition_proven_optimal = result.proven_optimal;
  stats.partition_nodes = result.nodes_explored;

  std::ostringstream detail_line;
  detail_line << "min-max memory partition, "
              << (result.proven_optimal ? "optimal proven"
                                        : "node budget exhausted")
              << ", nodes=" << result.nodes_explored;
  return schedule_partition(std::move(stats), problem, result.partition,
                            watch, detail_line.str());
}

const std::string& DpPartitionSolver::name() const {
  static const std::string kName = "dp-partition";
  return kName;
}

SolverCaps DpPartitionSolver::capabilities() const {
  SolverCaps caps;
  caps.partition_only = true;
  caps.machines_exact = 2;
  return caps;
}

Outcome DpPartitionSolver::solve(const Problem& problem) const {
  SolveStats stats;
  detail::fill_before(stats, problem.initial_schedule());

  const int machines = problem.architecture().processor_count();
  if (machines != 2) {
    return detail::infeasible_outcome(
        problem, std::move(stats),
        "the subset-sum DP handles exactly 2 processors (M=" +
            std::to_string(machines) + ")");
  }
  const std::vector<Mem> weights = task_memory_weights(problem.graph());
  Mem total = 0;
  for (const Mem w : weights) total += w;
  // dp_partition_two's documented precondition; report it as an instance
  // limitation instead of tripping the PreconditionError.
  if (total > (Mem{1} << 22)) {
    return detail::infeasible_outcome(
        problem, std::move(stats),
        "total memory weight " + std::to_string(total) +
            " exceeds the DP's 2^22 bound");
  }

  Stopwatch watch;
  const PartitionResult partition = dp_partition_two(weights);
  stats.has_partition = true;
  stats.partition_max_load = partition.max_load;
  stats.partition_lower_bound = partition_lower_bound(weights, machines);
  stats.partition_proven_optimal = true;

  return schedule_partition(std::move(stats), problem, partition, watch,
                            "exact two-machine subset-sum DP");
}

}  // namespace lbmem
