#include "lbmem/api/problem.hpp"

#include <utility>

#include "lbmem/util/check.hpp"

namespace lbmem {

Problem::Problem(std::shared_ptr<const TaskGraph> graph, Schedule initial)
    : graph_(std::move(graph)), initial_(std::move(initial)) {
  LBMEM_REQUIRE(graph_ != nullptr, "Problem needs a task graph");
  LBMEM_REQUIRE(&initial_.graph() == graph_.get(),
                "the initial schedule must reference the Problem's graph");
  LBMEM_REQUIRE(initial_.complete(),
                "the initial schedule must be complete");
}

Problem Problem::generate(const WorkloadSpec& spec) {
  auto graph = std::make_shared<const TaskGraph>(
      random_task_graph(spec.graph, spec.seed));
  Schedule initial = build_initial_schedule(
      *graph, Architecture(spec.processors, spec.memory_capacity),
      CommModel::flat(spec.comm_cost), spec.scheduler);
  return Problem(std::move(graph), std::move(initial));
}

}  // namespace lbmem
