#pragma once
/// \file problem.hpp
/// \brief The one problem spec every solver consumes (DESIGN.md F18).
///
/// A Problem bundles what the paper's comparison varies over: an
/// application graph, a homogeneous architecture, a communication model,
/// and a complete initial schedule (the output of the paper's ref-[4]
/// scheduling stage). Solvers that refine an existing distribution (the
/// block heuristic) start from the initial schedule; solvers that place
/// from scratch (GA, round-robin, the partition baselines) read only the
/// graph/architecture/comm triple but still report their result against
/// the initial schedule's makespan and memory, so every Outcome is
/// comparable to every other.
///
/// Problems are built two ways:
///  * generate() — seeded random workload + initial schedule (WorkloadSpec
///    mirrors the CLI's workload flags and gen/suites' SuiteSpec);
///  * the owning constructor — share a graph with an existing schedule
///    (gen/suites' SuiteInstance plugs in directly).

#include <cstdint>
#include <memory>

#include "lbmem/gen/random_graph.hpp"
#include "lbmem/sched/scheduler.hpp"

namespace lbmem {

/// Generator-built problem description: the workload shape plus the
/// architecture and schedule-construction knobs. Mirrors the CLI's
/// workload flags one to one.
struct WorkloadSpec {
  RandomGraphParams graph;
  std::uint64_t seed = 1;
  int processors = 4;
  Time comm_cost = 2;  ///< flat communication time C
  Mem memory_capacity = kUnlimitedMemory;
  SchedulerOptions scheduler;
};

/// One solvable instance: graph + architecture + comm + initial schedule.
class Problem {
 public:
  /// Wrap an existing scheduled system. \p initial must be complete and
  /// reference \p graph.
  Problem(std::shared_ptr<const TaskGraph> graph, Schedule initial);

  /// Generate a workload, schedule it, and wrap the result. Throws
  /// ScheduleError when the seed is unschedulable under the spec's policy.
  static Problem generate(const WorkloadSpec& spec);

  const TaskGraph& graph() const { return *graph_; }
  std::shared_ptr<const TaskGraph> shared_graph() const { return graph_; }
  const Architecture& architecture() const {
    return initial_.architecture();
  }
  const CommModel& comm() const { return initial_.comm(); }

  /// The complete, valid-by-construction initial schedule the solvers
  /// refine or compare against.
  const Schedule& initial_schedule() const { return initial_; }

 private:
  std::shared_ptr<const TaskGraph> graph_;
  Schedule initial_;
};

}  // namespace lbmem
