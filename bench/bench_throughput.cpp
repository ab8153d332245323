/// \file bench_throughput.cpp
/// \brief Sustained-traffic throughput of the streaming event service
/// (stream/service.hpp): events/sec plus p50/p99 queueing delay and
/// per-batch repair latency over large seeded Poisson traces.
///
/// The headline recording (BENCH_throughput.json via tools/bench_record.sh)
/// is BM_ServeSustained at N=4000/10000/20000 tasks on M=8 processors: a
/// wcet-heavy Poisson trace is admitted, coalesced and drained through a
/// fresh Rebalancer per iteration, and the service's own report supplies
/// the counters — `events_per_sec` uses the serve loop's internal wall
/// clock (final validation excluded), the latency percentiles come from
/// the queue-delay and batch-repair histograms merged across iterations.
/// BM_ServeCoalesceOff is the comparator that prices the coalescer: the
/// identical trace with coalescing disabled.

#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "lbmem/gen/event_trace.hpp"
#include "lbmem/gen/suites.hpp"
#include "lbmem/lb/load_balancer.hpp"
#include "lbmem/online/rebalancer.hpp"
#include "lbmem/stream/service.hpp"

namespace {

using namespace lbmem;

/// Balanced steady-state system plus a seeded traffic trace per
/// (tasks, processors), built once and reused across iterations.
struct PristineSystem {
  std::shared_ptr<const TaskGraph> graph;
  std::unique_ptr<Schedule> balanced;
  EventTrace trace;
};

/// Events per serve() call. Large enough that queue dynamics (windows,
/// batching, coalescing opportunities) dominate over setup effects while
/// keeping one serve() at N=4000 to seconds, not minutes — about 15 s
/// (54 events/s, 18 ms per event) in Release on 4 vCPUs, and the CTest
/// smoke also runs this binary under the sanitizer presets.
constexpr int kTraceEvents = 800;

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
    spec.base_seed = 88'000 + static_cast<std::uint64_t>(tasks) * 31 +
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

    // Wcet-heavy Poisson traffic: mode changes dominate (the common case
    // a deployed balancer amortizes), with a trickle of software updates;
    // a tight mean gap keeps several events per admission window so the
    // coalescer and the batch drain actually engage.
    EventTraceParams traffic;
    traffic.events = kTraceEvents;
    traffic.arrival = ArrivalModel::Poisson;
    traffic.mean_gap = 8.0;
    traffic.wcet_weight = 0.8;
    traffic.arrival_weight = 0.1;
    traffic.removal_weight = 0.08;
    traffic.failure_weight = 0.02;
    traffic.max_failures = 1;
    system->trace = random_event_trace(*system->graph,
                                       Architecture(processors), traffic,
                                       spec.base_seed + 1);
    slot = std::move(system);
  }
  return *slot;
}

/// One serve() of the cached trace per iteration against a fresh engine;
/// the engine rebuild is untimed. Counters aggregate the service reports.
void serve_loop(benchmark::State& state, bool coalesce) {
  const int tasks = static_cast<int>(state.range(0));
  const int processors = static_cast<int>(state.range(1));
  const PristineSystem& system = pristine(tasks, processors);

  StreamOptions options;
  options.queue_capacity = 8192;  // roomy: measure latency, not shedding
  options.coalesce = coalesce;
  const StreamService service(options);

  obs::LatencyHistogram queue_delay_us;
  obs::LatencyHistogram batch_repair_us;
  double wall_seconds = 0.0;
  std::int64_t drained = 0, coalesced = 0, shed = 0, violations = 0;
  for (auto _ : state) {
    state.PauseTiming();
    // Ladder off: the study prices the serve loop (admission, coalescing,
    // budget drain, plain repair/reject), not degraded-mode recovery —
    // with the ladder armed every infeasible re-estimate would walk a
    // full re-placement, drowning the queueing signal (bench_degraded
    // already prices the ladder itself).
    Rebalancer engine = Rebalancer::adopt(*system.graph, *system.balanced);
    state.ResumeTiming();

    const StreamReport report = service.serve(engine, system.trace);
    queue_delay_us.merge(report.queue_delay_us);
    batch_repair_us.merge(report.batch_repair_us);
    wall_seconds += report.wall_seconds;
    drained += report.applied + report.rejected;
    coalesced += report.coalesced;
    shed += report.shed_overflow;
    if (report.final_violations > 0) ++violations;
    benchmark::DoNotOptimize(report.final_makespan);
  }
  state.counters["tasks"] = tasks;
  state.counters["procs"] = processors;
  state.counters["trace_events"] = kTraceEvents;
  state.counters["events_per_sec"] =
      wall_seconds > 0.0 ? static_cast<double>(drained) / wall_seconds : 0.0;
  state.counters["queue_delay_p50_us"] =
      static_cast<double>(queue_delay_us.percentile(50));
  state.counters["queue_delay_p99_us"] =
      static_cast<double>(queue_delay_us.percentile(99));
  state.counters["batch_repair_p50_us"] =
      static_cast<double>(batch_repair_us.percentile(50));
  state.counters["batch_repair_p99_us"] =
      static_cast<double>(batch_repair_us.percentile(99));
  state.counters["coalesced_per_iter"] = benchmark::Counter(
      static_cast<double>(coalesced),
      benchmark::Counter::kAvgIterations);
  state.counters["shed"] = static_cast<double>(shed);
  state.counters["violations"] = static_cast<double>(violations);
}

void BM_ServeSustained(benchmark::State& state) {
  serve_loop(state, /*coalesce=*/true);
}

void BM_ServeCoalesceOff(benchmark::State& state) {
  serve_loop(state, /*coalesce=*/false);
}

}  // namespace

// The throughput sweep across system sizes, plus the coalescer-off
// comparator at the acceptance point N=4000/M=8.
BENCHMARK(BM_ServeSustained)
    ->ArgsProduct({{4000, 10000, 20000}, {8}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ServeCoalesceOff)
    ->Args({4000, 8})
    ->Unit(benchmark::kMillisecond);

LBMEM_BENCHMARK_MAIN()
