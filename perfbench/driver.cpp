/// \file driver.cpp
/// \brief One process of the end-to-end benchmark: builds one workload from
/// a seed, drives it through lbmem's public API, checks the outputs, and
/// prints one JSON line for perfbench/run.py.
///
///     perfbench_driver --workload serve-local|serve-churn
///                      --seed N --seconds S --trace 0|1
///                      [--size full|small] [--out DIR]
///
/// `--trace 0` measures the end-to-end figures with no tracer installed.
/// `--trace 1` runs the workload once untraced (the overhead reference),
/// then once with the span tracer and a metrics registry attached, and
/// reports the raw per-layer figures; the Chrome trace goes to
/// DIR/<workload>.trace.json for run.py's span analysis. A failed
/// correctness check prints the reason on stderr and exits 3 without a
/// result line.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "lbmem/gen/event_trace.hpp"
#include "lbmem/gen/suites.hpp"
#include "lbmem/lb/block_builder.hpp"
#include "lbmem/lb/load_balancer.hpp"
#include "lbmem/obs/metrics.hpp"
#include "lbmem/obs/trace.hpp"
#include "lbmem/online/rebalancer.hpp"
#include "lbmem/stream/service.hpp"
#include "lbmem/stream/trace_io.hpp"
#include "lbmem/util/json.hpp"
#include "lbmem/util/rng.hpp"
#include "lbmem/util/stopwatch.hpp"
#include "lbmem/validate/validator.hpp"

namespace {

using namespace lbmem;

/// A correctness check failed: the run must not report numbers.
struct GateFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void require(bool ok, const std::string& what) {
  if (!ok) throw GateFailure(what);
}

// ---- workload shapes --------------------------------------------------------

constexpr int kProcessors = 8;
constexpr int kHotTasks = 64;           // serve-local: tasks receiving events
constexpr double kLocalMeanGap = 8.0;   // serve-local: Poisson mean, ticks
constexpr double kChurnMeanGap = 128.0;  // serve-churn: Poisson mean, ticks

struct Size {
  int tasks = 0;
  int lanes = 0;   ///< instances, each with its own trace
  int events = 0;  ///< events per trace
  int setups = 0;  ///< set-up repetitions behind the setup_s median
};

Size size_of(const std::string& workload, bool small) {
  if (workload == "serve-local") {
    return small ? Size{400, 1, 60, 2} : Size{8000, 2, 400, 3};
  }
  return small ? Size{300, 2, 15, 2} : Size{2000, 12, 30, 3};
}

/// The bench_throughput instance family at \p tasks tasks.
SuiteSpec family(int tasks, int count, std::uint64_t base_seed) {
  SuiteSpec spec;
  spec.params.tasks = tasks;
  spec.params.period_levels = 3;
  spec.params.edge_probability = 0.15;
  spec.params.max_in_degree = 2;
  spec.processors = kProcessors;
  spec.comm_cost = 2;
  spec.count = count;
  spec.base_seed = base_seed;
  spec.max_seed_attempts = 400;
  return spec;
}

BalanceOptions balance_options(obs::Registry* metrics) {
  BalanceOptions options;
  options.threads = 1;
  options.metrics = metrics;
  return options;
}

/// WCET re-estimates on a hot set of kHotTasks tasks, one drawn from each
/// equal slice of the eligible id range (ids follow the generator's layer
/// order, so the set spans the graph). Eligible tasks have WCET >= 3, the
/// smallest WCET a +-20% re-estimate can change after rounding; every event
/// changes its task's current WCET. Poisson arrivals.
EventTrace hot_wcet_trace(const TaskGraph& graph, int events, Rng& rng) {
  std::vector<TaskId> eligible;
  for (TaskId t = 0; t < static_cast<TaskId>(graph.task_count()); ++t) {
    if (graph.task(t).wcet >= 3) eligible.push_back(t);
  }
  if (eligible.size() < static_cast<std::size_t>(kHotTasks)) {
    throw std::runtime_error("too few tasks with WCET >= 3 for the hot set");
  }
  std::vector<TaskId> hot;
  std::vector<Time> current;
  for (int h = 0; h < kHotTasks; ++h) {
    const auto lo = static_cast<std::int64_t>(eligible.size()) * h / kHotTasks;
    const auto hi =
        static_cast<std::int64_t>(eligible.size()) * (h + 1) / kHotTasks - 1;
    hot.push_back(eligible[static_cast<std::size_t>(rng.uniform(lo, hi))]);
    current.push_back(graph.task(hot.back()).wcet);
  }
  EventTrace trace;
  Time at = 0;
  for (int i = 0; i < events; ++i) {
    at += std::llround(-std::log(1.0 - rng.uniform01()) * kLocalMeanGap);
    const auto h = static_cast<std::size_t>(rng.uniform(0, kHotTasks - 1));
    const Task& task = graph.task(hot[h]);
    const Time lo = std::llround(0.8 * static_cast<double>(task.wcet));
    const Time hi = std::min<Time>(
        task.period, std::llround(1.2 * static_cast<double>(task.wcet)));
    Time wcet = current[h];
    while (wcet == current[h]) wcet = rng.uniform(lo, hi);
    current[h] = wcet;
    Event& event = trace.emplace_back();
    event.at = at;
    event.payload = WcetChange{task.name, wcet};
  }
  return trace;
}

/// Arrival/removal-dominated traffic from the library's trace generator,
/// with a few WCET re-estimates; \p fail opens it with one processor
/// failure. At the start every processor's evacuation succeeds on these
/// instances; later in the trace the arrivals have filled the survivors
/// and the evacuation is rejected, which would leave the failure unrepaired.
EventTrace churn_trace(const TaskGraph& graph, int events, bool fail,
                       Rng& rng) {
  EventTraceParams params;
  params.events = events;
  params.arrival_weight = 0.45;
  params.removal_weight = 0.35;
  params.wcet_weight = 0.2;
  params.failure_weight = 0.0;
  params.max_failures = 0;
  params.arrival = ArrivalModel::Poisson;
  params.mean_gap = kChurnMeanGap;
  EventTrace trace = random_event_trace(graph, Architecture(kProcessors),
                                        params, rng.next_u64());
  if (fail) {
    const Time first = trace.empty() ? 0 : trace.front().at;
    trace.insert(trace.begin(),
                 Event{first, ProcessorFailure{static_cast<ProcId>(
                                  rng.uniform(0, kProcessors - 1))}});
  }
  return trace;
}

// ---- statistics -------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

/// The highest percentile of a fixed ladder with at least ten of \p count
/// samples beyond it (p50 when there are fewer than twenty samples). The
/// choice is logged, since it is part of what latency_tail_ms means.
double tail_percentile(std::int64_t count) {
  double chosen = 50.0;
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(count) * (100.0 - pct) / 100.0 >= 10.0) {
      chosen = pct;
      break;
    }
  }
  std::fprintf(stderr, "perfbench: latency tail is p%g of %lld samples\n",
               chosen, static_cast<long long>(count));
  return chosen;
}

/// High-water resident set of this process image, from /proc (getrusage's
/// ru_maxrss would also count the launching process's pages, which survive
/// fork + exec in that figure).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

std::int64_t snapshot_value(const obs::Snapshot& snap, const char* name) {
  const obs::SnapshotEntry* entry = snap.find(name);
  return entry ? entry->value : 0;
}

const obs::LatencyHistogram* snapshot_histogram(const obs::Snapshot& snap,
                                                const char* name) {
  const obs::SnapshotEntry* entry = snap.find(name);
  return entry ? &entry->histogram : nullptr;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---- output -----------------------------------------------------------------

std::string number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// Named figures with units, in insertion order.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void add(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {value, unit}});
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items.size(); ++i) {
      out += (i ? ", \"" : "\"") + items[i].first + "\": {\"value\": " +
             number(items[i].second.first) + ", \"unit\": \"" +
             items[i].second.second + "\"}";
    }
    return out + "}";
  }
};

/// Figures that are pure functions of the inputs; run.py requires them to
/// repeat exactly across runs of one build.
using Deterministic = std::map<std::string, std::int64_t>;

std::string json(const Deterministic& det) {
  std::string out = "{";
  for (const auto& [name, value] : det) {
    out += (out.size() > 1 ? ", \"" : "\"") + name +
           "\": " + std::to_string(value);
  }
  return out + "}";
}

struct Result {
  Metrics metrics;
  Deterministic deterministic;
  std::vector<std::string> checks;
  std::int64_t attempted = 0;
  std::int64_t ops = 0;  ///< operations in the traced pass (trace 1)
  std::string spans_file;
  std::vector<std::string> replay;  ///< trace 1, serve-*: kind/outcome/rebuilt
};

// ---- correctness checks -------------------------------------------------------

/// The final state of an engine that served \p trace: a valid schedule,
/// every injected processor failure applied (a rejected evacuation leaves
/// the processor alive, so the failure went unrepaired), and nothing on a
/// failed processor.
void check_final_state(const Rebalancer& engine, const EventTrace& trace) {
  const Schedule& sched = engine.schedule();
  const ValidationReport report = validate(sched);
  if (!report.ok()) {
    throw GateFailure("final schedule fails validate(): " +
                      report.violations.front().detail);
  }
  const std::vector<std::uint8_t>& failed = engine.failed_procs();
  for (const Event& event : trace) {
    if (event.kind() != EventKind::ProcessorFailure) continue;
    const ProcId p = std::get<ProcessorFailure>(event.payload).proc;
    require(failed[static_cast<std::size_t>(p)] != 0,
            "the failure of processor " + std::to_string(p) +
                " was rejected and never repaired");
  }
  for (ProcId p = 0; p < static_cast<ProcId>(failed.size()); ++p) {
    require(!failed[static_cast<std::size_t>(p)] ||
                sched.instances_on(p).empty(),
            "failed processor " + std::to_string(p) + " still hosts work");
  }
}

// ---- serve-* ------------------------------------------------------------------

/// Balanced running systems, each with its own traffic trace ("lanes"),
/// rebuilt per set-up. Per-lane set-up phases are summed.
struct ServeSystem {
  struct Lane {
    std::shared_ptr<const TaskGraph> graph;
    std::optional<Schedule> balanced;  ///< references *graph
    EventTrace trace;
  };
  std::vector<Lane> lanes;
  double gen_s = 0.0, balance_s = 0.0, trace_s = 0.0, parse_s = 0.0,
         engine_s = 0.0;
  double setup_s() const {
    return gen_s + balance_s + trace_s + parse_s + engine_s;
  }
  std::int64_t events() const {
    std::int64_t n = 0;
    for (const Lane& lane : lanes) n += std::ssize(lane.trace);
    return n;
  }
};

ServeSystem setup_serve(const std::string& workload, const Size& size,
                        std::uint64_t seed) {
  Rng seeds(seed ^ (workload == "serve-local" ? 0x51ULL : 0xC7ULL));
  const std::uint64_t instance_seed = seeds.next_u64() % 1'000'000'007ULL;
  ServeSystem sys;

  Stopwatch watch;
  auto suite = make_suite(family(size.tasks, size.lanes, instance_seed));
  if (std::ssize(suite) != size.lanes) {
    throw std::runtime_error("too few schedulable instances");
  }
  sys.gen_s = watch.seconds();

  for (SuiteInstance& instance : suite) {
    ServeSystem::Lane& lane = sys.lanes.emplace_back();
    lane.graph = instance.graph;

    watch.reset();
    lane.balanced.emplace(LoadBalancer(balance_options(nullptr))
                              .balance(instance.schedule)
                              .schedule);
    sys.balance_s += watch.seconds();

    watch.reset();
    Rng rng(seeds.next_u64());
    const std::string text = trace_to_string(
        workload == "serve-local"
            ? hot_wcet_trace(*lane.graph, size.events, rng)
            : churn_trace(*lane.graph, size.events,
                          sys.lanes.size() == suite.size(), rng));
    sys.trace_s += watch.seconds();

    // The engine serves the parsed text, as `serve --trace-in` does.
    watch.reset();
    lane.trace = parse_trace(text);
    sys.parse_s += watch.seconds();
    require(trace_to_string(lane.trace) == text,
            "trace text does not survive a parse round trip");

    watch.reset();
    const Rebalancer engine = Rebalancer::adopt(*lane.graph, *lane.balanced);
    sys.engine_s += watch.seconds();
  }
  return sys;
}

/// One repetition: every lane's trace served once on a fresh engine.
struct ServeRep {
  std::int64_t events_in = 0, drained = 0, coalesced = 0;
  obs::LatencyHistogram queue_delay_us, queue_delay_cycles, batch_events;
  double wall_s = 0.0;       ///< summed serve() wall time
  double validate_ms = 0.0;  ///< summed validate() time
  Deterministic det;
};

ServeRep serve_rep(const ServeSystem& sys, obs::Registry& registry) {
  RebalancerOptions engine_options;
  engine_options.balance = balance_options(nullptr);
  engine_options.metrics = &registry;
  StreamOptions options;
  options.validate_final = false;  // validated below, outside the wall time
  options.metrics = &registry;
  const StreamService service(options);

  ServeRep rep;
  for (const ServeSystem::Lane& lane : sys.lanes) {
    const EventTrace& trace = lane.trace;
    Rebalancer engine =
        Rebalancer::adopt(*lane.graph, *lane.balanced, engine_options);
    StreamReport r;
    Stopwatch wall;
    {
      obs::ScopedSpan span("perfbench.serve", "perfbench");
      r = service.serve(engine, trace);
    }
    rep.wall_s += wall.seconds();

    Stopwatch validate_watch;
    check_final_state(engine, trace);
    rep.validate_ms += validate_watch.seconds() * 1e3;
    require(r.shed_overflow == 0 && r.shed_tasks.empty() &&
                engine.shed_tasks().empty(),
            "events or tasks were shed");
    const std::int64_t drained = r.applied + r.rejected + r.deferred;
    require(drained + r.coalesced == r.events_in &&
                r.events_in == std::ssize(trace),
            "offered events are not all accounted for");

    rep.events_in += r.events_in;
    rep.drained += drained;
    rep.coalesced += r.coalesced;
    rep.queue_delay_us.merge(r.queue_delay_us);
    rep.queue_delay_cycles.merge(r.queue_delay_cycles);
    rep.batch_events.merge(r.batch_events);
    Deterministic& det = rep.det;
    det["events_in"] += r.events_in;
    det["applied"] += r.applied;
    det["rejected"] += r.rejected;
    det["deferred"] += r.deferred;
    det["coalesced"] += r.coalesced;
    det["batches"] += r.batches;
    det["cycles"] += r.cycles;
    det["makespan_sum"] += engine.schedule().makespan();
    det["max_memory_sum"] += engine.schedule().max_memory();
    det["alive_tasks_sum"] += std::ssize(engine.graph().tasks());
    det["alive_procs_sum"] += engine.alive_processor_count();
    det["failed_procs"] += kProcessors - engine.alive_processor_count();
  }
  const obs::Snapshot snap = registry.snapshot();
  rep.det["migrated_instances"] =
      snapshot_value(snap, "online.migrated_instances");
  rep.det["repaired_tasks"] = snapshot_value(snap, "online.repaired_tasks");
  return rep;
}

/// Replays every lane's trace event by event on a fresh engine (no
/// coalescing), and returns "kind outcome rebuilt" per event in order: the
/// per-kind x outcome attribution that serve()'s aggregates cannot give.
std::vector<std::string> replay_outcomes(const ServeSystem& sys) {
  RebalancerOptions engine_options;
  engine_options.balance = balance_options(nullptr);
  std::vector<std::string> outcomes;
  obs::ScopedSpan span("perfbench.replay", "perfbench");
  for (const ServeSystem::Lane& lane : sys.lanes) {
    Rebalancer engine =
        Rebalancer::adopt(*lane.graph, *lane.balanced, engine_options);
    for (const Event& event : lane.trace) {
      const EventOutcome out = engine.apply(event);
      const char* verdict = !out.applied       ? "rejected"
                            : out.full_replace ? "full_replace"
                                               : "applied";
      outcomes.push_back(to_string(event.kind()) + " " + verdict + " " +
                         (out.graph_rebuilt ? "1" : "0"));
    }
    check_final_state(engine, lane.trace);
    require(engine.shed_tasks().empty(), "replay shed tasks");
  }
  return outcomes;
}

/// Span capacity for one traced serve rep plus one replay, from an
/// untraced rep's counters: per event its own span, repair and balance
/// stage; per balance run its run, attempt and validate spans; per block
/// four spans per attempt. Doubled for the replay, plus slack.
std::size_t span_budget(const obs::Snapshot& snap, std::int64_t events) {
  const std::int64_t runs = snapshot_value(snap, "lb.balance_runs");
  const std::int64_t blocks = snapshot_value(snap, "lb.blocks_total");
  const std::int64_t attempts = 3;  // BalanceOptions::max_attempts default
  const std::int64_t per_pass =
      4 * events + runs * (1 + 2 * attempts) + 4 * blocks * attempts;
  return static_cast<std::size_t>(2 * per_pass + 65'536);
}

/// Per-layer figures read from the registry the measured pass recorded
/// into, normalized per operation where they are totals.
void add_registry_layers(Metrics& m, const obs::Snapshot& snap, double ops,
                         double offered) {
  const auto value = [&](const char* name) {
    return static_cast<double>(snapshot_value(snap, name));
  };
  const double evaluated = value("lb.dest_evaluated");
  const double skipped = value("lb.dest_skipped_by_bound");
  const obs::LatencyHistogram* dirty =
      snapshot_histogram(snap, "online.dirty_blocks");
  m.add("lb.dest_evaluated", ratio(evaluated, ops), "count");
  m.add("lb.dest_skipped_by_bound", ratio(skipped, ops), "count");
  m.add("lb.prune_ratio", ratio(skipped, evaluated + skipped), "ratio");
  m.add("online.repaired_tasks_per_event",
        ratio(value("online.repaired_tasks"), ops), "count");
  m.add("online.events_rejected", value("online.events_rejected"), "count");
  m.add("online.reject_ratio", ratio(value("online.events_rejected"), offered),
        "ratio");
  m.add("online.migrated_per_event",
        ratio(value("online.migrated_instances"), ops), "count");
  m.add("online.dirty_blocks.p50",
        dirty ? static_cast<double>(dirty->percentile(50)) : 0.0, "count");
}

/// stream.* figures of one serve repetition.
void add_stream_layers(Metrics& m, const ServeRep& r) {
  m.add("stream.coalesced_ratio",
        ratio(static_cast<double>(r.coalesced),
              static_cast<double>(r.events_in)),
        "ratio");
  m.add("stream.batch_events.p50",
        static_cast<double>(r.batch_events.percentile(50)), "count");
  m.add("stream.queue_delay_cycles.p50",
        static_cast<double>(r.queue_delay_cycles.percentile(50)), "cycles");
  m.add("stream.queue_delay_cycles.p99",
        static_cast<double>(r.queue_delay_cycles.percentile(99)), "cycles");
}

void add_tracer_layers(Metrics& m, const obs::Tracer& tracer,
                       double traced_rate, double untraced_rate) {
  m.add("obs.spans_recorded", static_cast<double>(tracer.span_count()),
        "count");
  m.add("obs.spans_dropped", static_cast<double>(tracer.dropped()), "count");
  m.add("obs.trace_overhead_ratio", ratio(traced_rate, untraced_rate),
        "ratio");
}

void write_spans(Result& result, const obs::Tracer& tracer,
                 const std::string& path) {
  require(tracer.dropped() == 0,
          "the tracer dropped " + std::to_string(tracer.dropped()) + " spans");
  result.checks.push_back("spans_complete");
  result.spans_file = path;
  std::ofstream out(path);
  tracer.write_json(out);
  if (!out) throw std::runtime_error("cannot write " + path);
}

void add_end_to_end(Result& result, const std::vector<double>& setup_times,
                    double ops_per_s, double p50_ms, double tail_ms,
                    double makespan, double max_memory) {
  Metrics& m = result.metrics;
  m.add("setup_s", median(setup_times), "s");
  m.add("ops_per_s", ops_per_s, "1/s");
  m.add("latency_p50_ms", p50_ms, "ms");
  m.add("latency_tail_ms", tail_ms, "ms");
  m.add("makespan", makespan, "ticks");
  m.add("max_memory", max_memory, "mem");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
}

Result run_serve(const std::string& workload, const Size& size,
                 std::uint64_t seed, double seconds, bool traced,
                 const std::string& out_dir) {
  Result result;
  std::vector<double> setup_times;
  std::optional<ServeSystem> sys;
  for (int i = 0; i < (traced ? 1 : size.setups); ++i) {
    sys.reset();
    sys.emplace(setup_serve(workload, size, seed));
    setup_times.push_back(sys->setup_s());
  }
  result.checks = {"trace_roundtrip", "validate", "failures_repaired",
                   "nothing_shed", "events_accounted"};

  if (!traced) {
    // Repetitions of the identical traces until the time is spent; every
    // repetition must reproduce the first one's deterministic figures.
    std::vector<double> rate, p50, tail;
    Stopwatch elapsed;
    do {
      obs::Registry registry;
      const ServeRep rep = serve_rep(*sys, registry);
      if (rate.empty()) result.deterministic = rep.det;
      require(rep.det == result.deterministic,
              "a repetition changed the deterministic figures");
      const obs::LatencyHistogram& delay = rep.queue_delay_us;
      rate.push_back(ratio(static_cast<double>(rep.drained), rep.wall_s));
      p50.push_back(static_cast<double>(delay.percentile(50)) / 1e3);
      tail.push_back(
          static_cast<double>(delay.percentile(tail_percentile(rep.drained))) /
          1e3);
      result.attempted += rep.events_in;
    } while (elapsed.seconds() < seconds);
    result.checks.push_back("reps_identical");
    const auto lanes = static_cast<double>(size.lanes);
    add_end_to_end(
        result, setup_times, median(rate), median(p50), median(tail),
        static_cast<double>(result.deterministic["makespan_sum"]) / lanes,
        static_cast<double>(result.deterministic["max_memory_sum"]) / lanes);
    return result;
  }

  // Traced: an untraced reference rep (the tracer's overhead baseline and
  // its buffer size), then a traced rep and a traced replay.
  obs::Registry reference_registry;
  const ServeRep reference = serve_rep(*sys, reference_registry);
  obs::Tracer tracer(
      span_budget(reference_registry.snapshot(), reference.events_in));
  obs::Registry registry;
  std::optional<ServeRep> rep;
  {
    obs::TracerScope scope(&tracer);
    rep.emplace(serve_rep(*sys, registry));
    result.replay = replay_outcomes(*sys);
  }
  require(rep->det == reference.det,
          "tracing changed the deterministic figures");
  write_spans(result, tracer, out_dir + "/" + workload + ".trace.json");
  result.deterministic = rep->det;
  result.attempted = rep->events_in;
  result.ops = rep->drained;

  Metrics& m = result.metrics;
  m.add("gen.instance_s", sys->gen_s / size.lanes, "s");
  m.add("gen.trace_ms", sys->trace_s * 1e3, "ms");
  m.add("stream.parse_us_per_event",
        ratio(sys->parse_s * 1e6, static_cast<double>(sys->events())),
        "us");
  m.add("lb.initial_balance_ms", sys->balance_s * 1e3 / size.lanes, "ms");
  // The lb.build_blocks span fires only in a full LoadBalancer::balance,
  // never inside serve() (the engine's scoped rebalance builds blocks
  // around its dirty tasks), so the block decomposition every full balance
  // starts with is timed here, on each balanced schedule.
  Stopwatch blocks_watch;
  for (const ServeSystem::Lane& lane : sys->lanes) {
    const BlockDecomposition blocks = build_blocks(*lane.balanced);
    require(!blocks.blocks.empty(), "build_blocks() found no block");
  }
  m.add("lb.build_blocks_ms", blocks_watch.seconds() * 1e3 / size.lanes, "ms");
  add_registry_layers(m, registry.snapshot(), static_cast<double>(rep->drained),
                      static_cast<double>(rep->events_in));
  add_stream_layers(m, *rep);
  m.add("validate.final_ms", rep->validate_ms / size.lanes, "ms");
  add_tracer_layers(
      m, tracer, ratio(static_cast<double>(rep->drained), rep->wall_s),
      ratio(static_cast<double>(reference.drained), reference.wall_s));
  return result;
}

// ---- command line -------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool traced = false;
  bool small = false;
  std::string out_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      have_seconds = args.seconds >= 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument(flag);
      args.traced = value == "1";
      have_trace = true;
    } else if (flag == "--size") {
      if (value != "full" && value != "small") throw std::invalid_argument(flag);
      args.small = value == "small";
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      throw std::invalid_argument(flag);
    }
  }
  if (argc % 2 == 0 || !have_seed || !have_seconds || !have_trace ||
      (args.workload != "serve-local" && args.workload != "serve-churn")) {
    throw std::invalid_argument("missing or invalid arguments");
  }
  return args;
}

std::string json_strings(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i ? ", \"" : "\"") + json_escape(items[i]) + "\"";
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload "
                 "serve-local|serve-churn --seed N --seconds S "
                 "--trace 0|1 [--size full|small] [--out DIR] (%s)\n",
                 e.what());
    return 2;
  }
  try {
    const Size size = size_of(args.workload, args.small);
    const Result result = run_serve(args.workload, size, args.seed,
                                    args.seconds, args.traced, args.out_dir);
    std::printf(
        "{\"workload\": \"%s\", \"checks\": %s, \"deterministic\": %s, "
        "\"metrics\": %s, \"attempted\": %lld, "
        "\"ops\": %lld, \"spans_file\": \"%s\", \"replay\": %s}\n",
        args.workload.c_str(), json_strings(result.checks).c_str(),
        json(result.deterministic).c_str(), result.metrics.json().c_str(),
        static_cast<long long>(result.attempted),
        static_cast<long long>(result.ops),
        json_escape(result.spans_file).c_str(),
        json_strings(result.replay).c_str());
    return 0;
  } catch (const GateFailure& e) {
    std::fprintf(stderr, "perfbench: correctness check failed: %s\n",
                 e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 4;
  }
}

