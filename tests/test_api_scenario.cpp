/// ScenarioRunner + report/solve rendering: sweeps are deterministic
/// modulo wall time, aggregates match the cells, and unknown names fail
/// before generation.

#include <gtest/gtest.h>

#include "lbmem/api/scenario.hpp"
#include "lbmem/api/solvers.hpp"
#include "lbmem/report/solve.hpp"

namespace lbmem {
namespace {

ScenarioSpec small_spec() {
  ScenarioSpec spec;
  spec.suite.params.tasks = 12;
  spec.suite.params.intended_processors = 2;
  spec.suite.processors = 2;
  spec.suite.comm_cost = 2;
  spec.suite.count = 2;
  spec.suite.base_seed = 7;
  return spec;
}

TEST(ApiScenario, SweepIsDeterministicModuloWallTime) {
  ScenarioSpec spec = small_spec();
  spec.solvers = {"initial", "heuristic-lex", "memory-greedy", "ga",
                  "dp-partition"};
  const ScenarioRunner runner;
  const ScenarioReport first = runner.run(spec);
  const ScenarioReport second = runner.run(spec);
  ASSERT_EQ(first.cells.size(), second.cells.size());
  for (std::size_t i = 0; i < first.cells.size(); ++i) {
    EXPECT_EQ(first.cells[i].solver, second.cells[i].solver);
    EXPECT_EQ(first.cells[i].seed, second.cells[i].seed);
    EXPECT_EQ(first.cells[i].feasible, second.cells[i].feasible);
    EXPECT_EQ(first.cells[i].makespan, second.cells[i].makespan);
    EXPECT_EQ(first.cells[i].max_memory, second.cells[i].max_memory);
    EXPECT_EQ(first.cells[i].gain, second.cells[i].gain);
    EXPECT_EQ(first.cells[i].detail, second.cells[i].detail);
  }
  // The timing-free renderings are byte-identical across runs.
  EXPECT_EQ(summarize_scenario(first, /*include_timing=*/false),
            summarize_scenario(second, /*include_timing=*/false));
  EXPECT_EQ(scenario_report_to_json(first, /*include_timing=*/false),
            scenario_report_to_json(second, /*include_timing=*/false));
}

TEST(ApiScenario, SummaryAggregatesMatchTheCells) {
  ScenarioSpec spec = small_spec();
  spec.solvers = {"heuristic-lex", "round-robin"};
  const ScenarioReport report = ScenarioRunner().run(spec);
  ASSERT_EQ(report.summary.size(), 2u);
  for (const ScenarioSolverSummary& row : report.summary) {
    double makespan = 0;
    int solved = 0;
    for (const ScenarioCell& cell : report.cells) {
      if (cell.solver != row.solver || !cell.feasible) continue;
      makespan += static_cast<double>(cell.makespan);
      ++solved;
    }
    EXPECT_EQ(row.solved, solved) << row.solver;
    if (solved > 0) {
      EXPECT_DOUBLE_EQ(row.mean_makespan, makespan / solved) << row.solver;
    }
  }
}

TEST(ApiScenario, SummaryWallTimeAveragesOverAllInstances) {
  // Wall time is averaged over every instance, solved or not: a solver
  // that burns time before declaring infeasible must not look free. The
  // 3-processor suite makes dp-partition (machines_exact = 2) infeasible
  // on every instance, so its summary row has solved == 0 but still a
  // wall mean backed by all of its cells.
  ScenarioSpec spec = small_spec();
  spec.suite.params.intended_processors = 3;
  spec.suite.processors = 3;
  spec.solvers = {"heuristic-lex", "dp-partition"};
  const ScenarioReport report = ScenarioRunner().run(spec);
  ASSERT_GT(report.instances, 0);
  ASSERT_EQ(report.summary.size(), 2u);
  for (const ScenarioSolverSummary& row : report.summary) {
    double wall = 0;
    int cells = 0;
    for (const ScenarioCell& cell : report.cells) {
      if (cell.solver != row.solver) continue;
      wall += cell.wall_seconds;
      ++cells;
    }
    EXPECT_EQ(cells, report.instances) << row.solver;
    EXPECT_DOUBLE_EQ(row.mean_wall_seconds, wall / report.instances)
        << row.solver;
  }
  EXPECT_EQ(report.summary[1].solver, "dp-partition");
  EXPECT_EQ(report.summary[1].solved, 0);
}

TEST(ApiScenario, CellsAreInstanceMajorOverTheSolverSubset) {
  ScenarioSpec spec = small_spec();
  spec.solvers = {"initial", "heuristic-lex"};
  const ScenarioReport report = ScenarioRunner().run(spec);
  ASSERT_EQ(report.instances, 2);
  ASSERT_EQ(report.cells.size(), 4u);
  EXPECT_EQ(report.cells[0].solver, "initial");
  EXPECT_EQ(report.cells[1].solver, "heuristic-lex");
  EXPECT_EQ(report.cells[0].seed, report.cells[1].seed);
  EXPECT_EQ(report.cells[2].solver, "initial");
}

TEST(ApiScenario, EmptySubsetRunsEveryRegisteredSolver) {
  const ScenarioSpec spec = small_spec();
  const ScenarioReport report = ScenarioRunner().run(spec);
  EXPECT_EQ(report.cells.size(),
            static_cast<std::size_t>(report.instances) *
                SolverRegistry::builtin().size());
}

TEST(ApiScenario, PerturbedSweepIsThreadCountInvariant) {
  // Robustness replications attach to each feasible cell; the rendered
  // report (timing off) must be byte-identical for every thread count —
  // the PR-6 determinism contract extended to the perturbed sweep.
  ScenarioSpec spec = small_spec();
  spec.solvers = {"initial", "heuristic-lex", "memory-greedy"};
  spec.replications = 3;
  spec.suite.perturb.wcet_jitter = 0.5;
  spec.suite.perturb.comm_jitter = 0.5;
  spec.suite.perturb.bus_fifo = true;
  spec.threads = 1;
  const ScenarioReport sequential = ScenarioRunner().run(spec);
  spec.threads = 8;
  const ScenarioReport threaded = ScenarioRunner().run(spec);
  EXPECT_EQ(scenario_report_to_json(sequential, /*include_timing=*/false),
            scenario_report_to_json(threaded, /*include_timing=*/false));
  // The robustness columns are populated, not vacuously equal.
  bool any_perturbed = false;
  for (const ScenarioCell& cell : sequential.cells) {
    if (!cell.perturbed) continue;
    any_perturbed = true;
    EXPECT_EQ(cell.rep_miss_rates.size(), 3u);
  }
  EXPECT_TRUE(any_perturbed);
}

TEST(ApiScenario, SharedNoiseStreamIsSolverFair) {
  // The noise seed derives from the workload seed, not the solver, so the
  // same (instance, replication) draws identical overruns under every
  // solver: a pure re-labeling of the same schedule must score the same.
  ScenarioSpec spec = small_spec();
  spec.solvers = {"initial", "initial"};
  spec.replications = 2;
  spec.suite.perturb.wcet_jitter = 1.0;
  const ScenarioReport report = ScenarioRunner().run(spec);
  ASSERT_EQ(report.summary.size(), 2u);
  EXPECT_DOUBLE_EQ(report.summary[0].miss_p50, report.summary[1].miss_p50);
  EXPECT_DOUBLE_EQ(report.summary[0].mean_span_inflation,
                   report.summary[1].mean_span_inflation);
}

TEST(ApiScenario, AdaptiveRowExploresThenMirrorsTheBestCandidate) {
  // DESIGN.md F30: the virtual policy explores unobserved candidates in
  // spec order, then exploits the best pooled miss rate; every pick
  // mirrors an existing cell, so its aggregates are reachable outcomes.
  ScenarioSpec spec = small_spec();
  spec.suite.count = 4;
  spec.solvers = {"initial", "heuristic-lex", "memory-greedy"};
  spec.replications = 2;
  spec.suite.perturb.wcet_jitter = 0.75;
  spec.adaptive = true;
  const ScenarioReport report = ScenarioRunner().run(spec);
  ASSERT_TRUE(report.adaptive);
  EXPECT_EQ(report.adaptive_summary.solver, "adaptive");
  ASSERT_EQ(report.adaptive_picks.size(),
            static_cast<std::size_t>(report.instances));
  // Exploration first: the opening picks walk the spec order.
  EXPECT_EQ(report.adaptive_picks[0], "initial");
  EXPECT_EQ(report.adaptive_picks[1], "heuristic-lex");
  EXPECT_EQ(report.adaptive_picks[2], "memory-greedy");
  // Every pick names a configured candidate.
  for (const std::string& pick : report.adaptive_picks) {
    EXPECT_TRUE(pick == "initial" || pick == "heuristic-lex" ||
                pick == "memory-greedy")
        << pick;
  }
  EXPECT_LE(report.adaptive_summary.solved, report.instances);
}

TEST(ApiScenario, AdaptiveRowIsThreadCountInvariant) {
  // The adaptive post-pass is a sequential fold over already-solved
  // cells: picks, summary row, and JSON must not depend on thread count.
  ScenarioSpec spec = small_spec();
  spec.suite.count = 3;
  spec.solvers = {"initial", "heuristic-lex", "memory-greedy"};
  spec.replications = 2;
  spec.suite.perturb.wcet_jitter = 0.5;
  spec.adaptive = true;
  spec.threads = 1;
  const ScenarioReport sequential = ScenarioRunner().run(spec);
  spec.threads = 8;
  const ScenarioReport threaded = ScenarioRunner().run(spec);
  EXPECT_EQ(sequential.adaptive_picks, threaded.adaptive_picks);
  EXPECT_EQ(scenario_report_to_json(sequential, /*include_timing=*/false),
            scenario_report_to_json(threaded, /*include_timing=*/false));
}

TEST(ApiScenario, UnknownSolverNameFailsBeforeGeneration) {
  ScenarioSpec spec = small_spec();
  spec.solvers = {"heuristic-lex", "does-not-exist"};
  EXPECT_THROW(ScenarioRunner().run(spec), Error);
}

}  // namespace
}  // namespace lbmem
