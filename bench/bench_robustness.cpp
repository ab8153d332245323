/// \file bench_robustness.cpp
/// \brief Cost of the perturbed-execution robustness harness: the plain
/// executor vs. simulate_perturbed under each noise channel, the FIFO bus
/// contention pass, the full replication harness, and the mid-run
/// ProcessorFailure -> Rebalancer repair handoff. One balanced N=400 / M=6
/// workload is shared by every benchmark so the numbers compare the
/// perturbation machinery, not different schedules.
/// Recorded into BENCH_robustness.json by tools/bench_record.sh.

#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <stdexcept>

#include "lbmem/api/problem.hpp"
#include "lbmem/api/solvers.hpp"
#include "lbmem/gen/suites.hpp"
#include "lbmem/sim/robustness.hpp"

namespace {

using namespace lbmem;

constexpr int kTasks = 400;
constexpr int kProcs = 6;
constexpr int kHyperperiods = 2;

const Schedule& bench_schedule() {
  static const Outcome outcome = [] {
    SuiteSpec spec;
    spec.params.tasks = kTasks;
    spec.params.period_levels = 3;
    spec.params.edge_probability = 0.15;
    spec.params.max_in_degree = 2;
    spec.processors = kProcs;
    spec.comm_cost = 2;
    spec.count = 1;
    spec.base_seed = 77'000 + static_cast<std::uint64_t>(kTasks) * 31 +
                     static_cast<std::uint64_t>(kProcs);
    spec.max_seed_attempts = 400;
    auto suite = make_suite(spec);
    if (suite.empty()) {
      throw std::runtime_error("no schedulable N=400/M=6 instance");
    }
    const Problem problem(suite.front().graph,
                          std::move(suite.front().schedule));
    Outcome solved = HeuristicSolver().solve(problem);
    if (!solved.feasible()) {
      throw std::runtime_error("bench workload did not balance");
    }
    return solved;
  }();
  return *outcome.schedule;
}

PerturbSpec noisy_spec() {
  PerturbSpec spec;
  spec.seed = 12345;
  spec.wcet_jitter = 0.25;
  spec.comm_jitter = 0.5;
  spec.stall_prob = 0.05;
  spec.stall_ticks = 3;
  return spec;
}

void BM_SimulateBaseline(benchmark::State& state) {
  const Schedule& sched = bench_schedule();
  for (auto _ : state) {
    const SimMetrics m = simulate(sched, SimOptions{kHyperperiods, true});
    benchmark::DoNotOptimize(m.span);
  }
}

void BM_SimulatePerturbed(benchmark::State& state) {
  const Schedule& sched = bench_schedule();
  const PerturbSpec spec = noisy_spec();
  std::int64_t violations = 0;
  for (auto _ : state) {
    const SimMetrics m = simulate_perturbed(
        sched, SimOptions{kHyperperiods, true}, spec, 0);
    violations = m.violations;
    benchmark::DoNotOptimize(m.span);
  }
  state.counters["violations"] = static_cast<double>(violations);
}

void BM_SimulatePerturbedFifoBus(benchmark::State& state) {
  const Schedule& sched = bench_schedule();
  PerturbSpec spec = noisy_spec();
  spec.bus_fifo = true;
  std::int64_t violations = 0;
  for (auto _ : state) {
    const SimMetrics m = simulate_perturbed(
        sched, SimOptions{kHyperperiods, true}, spec, 0);
    violations = m.violations;
    benchmark::DoNotOptimize(m.span);
  }
  state.counters["violations"] = static_cast<double>(violations);
}

void BM_RobustnessHarness(benchmark::State& state) {
  const Schedule& sched = bench_schedule();
  RobustnessOptions rob;
  rob.sim.hyperperiods = kHyperperiods;
  rob.replications = static_cast<int>(state.range(0));
  rob.perturb = noisy_spec();
  rob.perturb.bus_fifo = true;
  double miss_p99 = 0;
  for (auto _ : state) {
    const RobustnessReport report = run_robustness(sched, rob);
    miss_p99 = report.miss_p99;
    benchmark::DoNotOptimize(report.total_violations);
  }
  state.counters["miss_p99"] = miss_p99;
}

void BM_FailureRecovery(benchmark::State& state) {
  // The full graceful-degradation path: failure window, one Rebalancer
  // repair, stitched tail on the repaired schedule.
  const Schedule& sched = bench_schedule();
  const Time h = sched.graph().hyperperiod();
  RobustnessOptions rob;
  rob.sim.hyperperiods = kHyperperiods;
  rob.replications = 1;
  rob.perturb = noisy_spec();
  rob.perturb.failures = {{0, h / 2}};
  int recovered = 0;
  for (auto _ : state) {
    const RobustnessReport report = run_robustness(sched, rob);
    recovered = report.recovered ? 1 : 0;
    benchmark::DoNotOptimize(report.recovery_latency);
  }
  state.counters["recovered"] = recovered;
}

BENCHMARK(BM_SimulateBaseline)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulatePerturbed)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulatePerturbedFifoBus)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RobustnessHarness)->Arg(3)->Arg(10)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FailureRecovery)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return lbmem_bench::run_benchmarks(argc, argv);
}
