/// \file bench_online.cpp
/// \brief Online-rebalancing latency: event-driven incremental repair
/// versus re-running the offline heuristic from scratch.
///
/// The headline comparison (recorded in BENCH_online.json by
/// tools/bench_record.sh) is BM_OnlineWcet vs BM_FullWcet at N=4000/M=8:
/// both apply the *same* alternating WcetChange events through the
/// Rebalancer; the first uses the warm-start incremental balance (partial
/// block decomposition + warm occupancy), the second re-runs a full
/// LoadBalancer::balance after the identical patch. The subsystem's
/// acceptance bar is a >= 5x advantage for the incremental path.
///
/// BM_OnlineArrivalRemoval measures the graph-rebuild event class
/// (admission + removal pairs, steady state), BM_OnlineFailure the
/// heaviest event (evacuating one of M processors; system rebuilt outside
/// the timed region).

#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "lbmem/gen/suites.hpp"
#include "lbmem/lb/load_balancer.hpp"
#include "lbmem/online/rebalancer.hpp"

namespace {

using namespace lbmem;

/// Balanced steady-state system per (tasks, processors), built once.
struct PristineSystem {
  std::shared_ptr<const TaskGraph> graph;
  std::unique_ptr<Schedule> balanced;
  TaskId flip_task = -1;   ///< task whose WCET the wcet benches toggle
  Time flip_high = 0;      ///< its original WCET (>= 2)
};

const PristineSystem& pristine(int tasks, int processors) {
  static std::map<std::pair<int, int>, std::unique_ptr<PristineSystem>>
      cache;
  auto& slot = cache[{tasks, processors}];
  if (!slot) {
    SuiteSpec spec;
    spec.params.tasks = tasks;
    spec.params.period_levels = 3;
    spec.params.edge_probability = 0.15;
    spec.params.max_in_degree = 2;
    spec.processors = processors;
    spec.comm_cost = 2;
    spec.count = 1;
    spec.base_seed = 77'000 + static_cast<std::uint64_t>(tasks) * 31 +
                     static_cast<std::uint64_t>(processors);
    spec.max_seed_attempts = 400;
    auto suite = make_suite(spec);
    if (suite.empty()) {
      throw std::runtime_error("no schedulable instance for N=" +
                               std::to_string(tasks) +
                               " M=" + std::to_string(processors));
    }
    auto system = std::make_unique<PristineSystem>();
    system->graph = suite.front().graph;
    system->balanced = std::make_unique<Schedule>(
        LoadBalancer().balance(suite.front().schedule).schedule);
    for (TaskId t = 0;
         t < static_cast<TaskId>(system->graph->task_count()); ++t) {
      const Time wcet = system->graph->task(t).wcet;
      if (wcet >= 2 && wcet > system->flip_high) {
        system->flip_task = t;
        system->flip_high = wcet;
      }
    }
    if (system->flip_task < 0) {
      throw std::runtime_error("no task with wcet >= 2 to toggle");
    }
    slot = std::move(system);
  }
  return *slot;
}

Rebalancer make_engine(const PristineSystem& system, bool incremental) {
  RebalancerOptions options;
  options.incremental = incremental;
  return Rebalancer::adopt(*system.graph, *system.balanced, options);
}

/// Alternating WcetChange events (E, E-1, E, ...) applied in steady state;
/// one apply() per benchmark iteration.
void wcet_flip_loop(benchmark::State& state, bool incremental) {
  const int tasks = static_cast<int>(state.range(0));
  const int processors = static_cast<int>(state.range(1));
  const PristineSystem& system = pristine(tasks, processors);
  Rebalancer engine = make_engine(system, incremental);
  const std::string name = system.graph->task(system.flip_task).name;

  std::int64_t rejected = 0;
  bool low = true;
  for (auto _ : state) {
    Event event;
    event.at = 1;
    event.payload =
        WcetChange{name, low ? system.flip_high - 1 : system.flip_high};
    low = !low;
    const EventOutcome outcome = engine.apply(event);
    if (!outcome.applied) ++rejected;
    benchmark::DoNotOptimize(outcome.makespan);
  }
  state.counters["tasks"] = tasks;
  state.counters["procs"] = processors;
  state.counters["rejected"] = static_cast<double>(rejected);
}

void BM_OnlineWcet(benchmark::State& state) {
  wcet_flip_loop(state, /*incremental=*/true);
}

void BM_FullWcet(benchmark::State& state) {
  wcet_flip_loop(state, /*incremental=*/false);
}

/// Steady-state admission + removal: each iteration admits one task wired
/// to an existing producer, then removes it again (two apply() calls).
void BM_OnlineArrivalRemoval(benchmark::State& state) {
  const int tasks = static_cast<int>(state.range(0));
  const int processors = static_cast<int>(state.range(1));
  const PristineSystem& system = pristine(tasks, processors);
  Rebalancer engine = make_engine(system, /*incremental=*/true);
  const std::string producer = system.graph->task(0).name;
  const Time period = system.graph->task(0).period;

  std::int64_t rejected = 0;
  for (auto _ : state) {
    NewTaskSpec spec;
    spec.name = "bench_dyn";
    spec.period = period;
    spec.wcet = 1;
    spec.memory = 4;
    spec.producers.push_back(NewTaskSpec::Producer{producer, 2});
    Event arrive;
    arrive.at = 1;
    arrive.payload = TaskArrival{spec};
    if (!engine.apply(arrive).applied) ++rejected;
    Event remove;
    remove.at = 2;
    remove.payload = TaskRemoval{"bench_dyn"};
    if (!engine.apply(remove).applied) ++rejected;
  }
  state.counters["tasks"] = tasks;
  state.counters["procs"] = processors;
  state.counters["rejected"] = static_cast<double>(rejected);
  state.counters["events_per_iter"] = 2;
}

/// One processor failure per iteration; the engine is rebuilt from the
/// pristine state outside the timed region.
void BM_OnlineFailure(benchmark::State& state) {
  const int tasks = static_cast<int>(state.range(0));
  const int processors = static_cast<int>(state.range(1));
  const PristineSystem& system = pristine(tasks, processors);

  std::int64_t rejected = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Rebalancer engine = make_engine(system, /*incremental=*/true);
    Event event;
    event.at = 1;
    event.payload = ProcessorFailure{static_cast<ProcId>(processors - 1)};
    state.ResumeTiming();
    if (!engine.apply(event).applied) ++rejected;
  }
  state.counters["tasks"] = tasks;
  state.counters["procs"] = processors;
  state.counters["rejected"] = static_cast<double>(rejected);
}

}  // namespace

// The latency sweep: incremental event handling across system sizes (to
// N=8000, perfbench serve-local's size), plus the from-scratch comparator
// up to the acceptance point N=4000/M=8.
BENCHMARK(BM_OnlineWcet)
    ->ArgsProduct({{250, 1000, 4000, 8000}, {8}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FullWcet)
    ->ArgsProduct({{250, 1000, 4000}, {8}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OnlineArrivalRemoval)
    ->Args({1000, 8})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OnlineFailure)
    ->Args({1000, 8})
    ->Args({4000, 8})
    ->Unit(benchmark::kMillisecond);

LBMEM_BENCHMARK_MAIN()
