/// \file bench_degraded.cpp
/// \brief Cost of the degraded-mode machinery (DESIGN.md F27/F28/F30):
/// correlated-burst noise derivation on top of the perturbed executor,
/// the concurrent-failure robustness harness with the repair ladder on,
/// the full four-rung walk to the shed rung on a capacity-starved system,
/// and the miss-rate selector's pick/observe fold behind
/// `compare --adaptive`. The executor benchmarks share
/// bench_robustness's balanced N=400 / M=6 workload so the numbers
/// compare the burst machinery, not different schedules.
/// Recorded into BENCH_degraded.json by tools/bench_record.sh.

#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "lbmem/api/problem.hpp"
#include "lbmem/api/solvers.hpp"
#include "lbmem/gen/suites.hpp"
#include "lbmem/online/rebalancer.hpp"
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

void BM_SimulateBursty(benchmark::State& state) {
  // The i.i.d. noise of bench_robustness's BM_SimulatePerturbed plus a
  // Gilbert–Elliott chain on every channel: the delta is the per-window
  // storm derivation and the intensity scaling.
  const Schedule& sched = bench_schedule();
  PerturbSpec spec = noisy_spec();
  spec.wcet_burst = GilbertElliott{0.2, 0.3, 3.0};
  spec.comm_burst = GilbertElliott{0.2, 0.3, 3.0};
  spec.stall_burst = GilbertElliott{0.2, 0.3, 3.0};
  std::int64_t misses = 0;
  for (auto _ : state) {
    const SimMetrics m = simulate_perturbed(
        sched, SimOptions{kHyperperiods, true}, spec, 0);
    misses = m.deadline_misses;
    benchmark::DoNotOptimize(m.span);
  }
  state.counters["deadline_misses"] = static_cast<double>(misses);
}

void BM_ConcurrentFailureRecovery(benchmark::State& state) {
  // Two processors die at different ticks; the harness repairs both
  // through the ladder and stitches three schedule tables per
  // replication.
  const Schedule& sched = bench_schedule();
  const Time h = sched.graph().hyperperiod();
  RobustnessOptions rob;
  rob.sim.hyperperiods = kHyperperiods;
  rob.replications = 1;
  rob.perturb = noisy_spec();
  rob.perturb.failures = {{0, h / 2}, {1, h + h / 2}};
  rob.repair.degraded = true;
  int recovered = 0;
  for (auto _ : state) {
    const RobustnessReport report = run_robustness(sched, rob);
    recovered = report.recovered ? 1 : 0;
    benchmark::DoNotOptimize(report.recovery_latency);
  }
  state.counters["recovered"] = recovered;
}

void BM_DegradedShedLadder(benchmark::State& state) {
  // Worst-case ladder walk: one fat task per processor, capacity that
  // fits exactly one — every rung fails until the shed rung drops the
  // orphan, so the iteration prices the full escalation.
  TaskGraph g;
  const int procs = 8;
  for (int t = 0; t < procs; ++t) {
    g.add_task("t" + std::to_string(t), 4, 1, 60);
  }
  g.freeze();
  Schedule s(g, Architecture(procs, /*memory_capacity=*/100),
             CommModel::flat(1));
  for (TaskId t = 0; t < static_cast<TaskId>(procs); ++t) {
    s.set_first_start(t, 0);
    s.assign_all(t, static_cast<ProcId>(t));
  }
  RebalancerOptions opts;
  opts.balance.enforce_memory_capacity = true;
  opts.degraded = true;
  std::size_t shed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Rebalancer system = Rebalancer::adopt(g, s, opts);
    state.ResumeTiming();
    const EventOutcome out = system.fail_processor(procs - 1, 2);
    shed = out.shed.size();
    benchmark::DoNotOptimize(out.degraded_rung);
  }
  state.counters["shed"] = static_cast<double>(shed);
}

void BM_MissRateSelector(benchmark::State& state) {
  // The adaptive fold itself: pick + observe across a candidate panel,
  // once per decision — must stay negligible next to a single repair.
  const int candidates = static_cast<int>(state.range(0));
  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(candidates));
  for (int c = 0; c < candidates; ++c) {
    names.push_back("solver-" + std::to_string(c));
  }
  for (auto _ : state) {
    MissRateSelector sel(names);
    for (int round = 0; round < 64; ++round) {
      const int pick = sel.pick();
      sel.observe(pick, 0.01 * ((round + pick) % 7));
    }
    benchmark::DoNotOptimize(sel.pick());
  }
}

BENCHMARK(BM_SimulateBursty)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ConcurrentFailureRecovery)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DegradedShedLadder)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MissRateSelector)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  return lbmem_bench::run_benchmarks(argc, argv);
}
