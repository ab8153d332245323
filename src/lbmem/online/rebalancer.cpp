#include "lbmem/online/rebalancer.hpp"

#include <algorithm>
#include <numeric>
#include <set>
#include <utility>

#include "lbmem/lb/block_builder.hpp"
#include "lbmem/obs/metrics.hpp"
#include "lbmem/obs/trace.hpp"
#include "lbmem/sched/journal.hpp"
#include "lbmem/sched/scheduler.hpp"
#include "lbmem/util/check.hpp"
#include "lbmem/util/stopwatch.hpp"

namespace lbmem {

namespace {

/// Degraded-mode ladder bounds (DESIGN.md F28): widened-scope retries
/// (rung 1) and the most tasks the shed rung (rung 3) may drop per event.
constexpr int kMaxRetries = 2;
constexpr int kMaxShed = 4;

#if LBMEM_TIMELINE_VERIFY
/// Does \p occ hold exactly the pieces of build_occupancy(\p sched)?
bool mirrors(const std::vector<ProcTimeline>& occ, const Schedule& sched) {
  const std::vector<ProcTimeline> fresh = build_occupancy(sched);
  return std::equal(occ.begin(), occ.end(), fresh.begin(), fresh.end(),
                    [](const ProcTimeline& a, const ProcTimeline& b) {
                      return a.same_pieces(b);
                    });
}

/// The makespan as a scan over every task's last instance: the reference
/// for Schedule's maintained one (DESIGN.md F38).
Time scanned_makespan(const Schedule& sched) {
  const TaskGraph& graph = sched.graph();
  Time m = 0;
  for (TaskId t = 0; t < static_cast<TaskId>(graph.task_count()); ++t) {
    m = std::max(m, sched.end(TaskInstance{t, graph.instance_count(t) - 1}));
  }
  return m;
}
#endif

/// Every task id in order: the id remap of an event that keeps the graph.
std::vector<TaskId> task_ids(const TaskGraph& graph) {
  std::vector<TaskId> ids(graph.task_count());
  std::iota(ids.begin(), ids.end(), TaskId{0});
  return ids;
}

/// Surviving instances whose processor changed across the event; \p remap
/// maps \p pre's task ids to \p post's (-1: removed or shed).
int count_migrations(const Schedule& pre, const Schedule& post,
                     std::span<const TaskId> remap) {
  int migrations = 0;
  for (TaskId t = 0; t < static_cast<TaskId>(remap.size()); ++t) {
    const TaskId nt = remap[static_cast<std::size_t>(t)];
    if (nt < 0) continue;
    const InstanceIdx n = std::min(pre.graph().instance_count(t),
                                   post.graph().instance_count(nt));
    for (InstanceIdx k = 0; k < n; ++k) {
      if (pre.proc(TaskInstance{t, k}) != post.proc(TaskInstance{nt, k})) {
        ++migrations;
      }
    }
  }
  return migrations;
}

/// Direct consumers of \p t (balance seeds: their data timing changed).
void add_consumers(const TaskGraph& graph, TaskId t,
                   std::vector<TaskId>& seeds) {
  for (const std::int32_t e : graph.deps_out(t)) {
    seeds.push_back(graph.dependences()[static_cast<std::size_t>(e)].consumer);
  }
}

/// Grow the sorted, duplicate-free task set \p dirty by one dependency
/// ring: every producer or consumer of a dirty task becomes dirty (the
/// rung-1 scope widening, DESIGN.md F28). Returns false when the ring added
/// nothing (fixpoint — retrying would repeat the identical repair).
bool widen_by_ring(const TaskGraph& graph, std::vector<TaskId>& dirty) {
  std::vector<TaskId> next = dirty;
  for (const TaskId t : dirty) {
    for (const std::int32_t e : graph.deps_in(t)) {
      next.push_back(graph.dependences()[static_cast<std::size_t>(e)].producer);
    }
    for (const std::int32_t e : graph.deps_out(t)) {
      next.push_back(graph.dependences()[static_cast<std::size_t>(e)].consumer);
    }
  }
  std::sort(next.begin(), next.end());
  next.erase(std::unique(next.begin(), next.end()), next.end());
  const bool grew = next.size() != dirty.size();
  dirty.swap(next);
  return grew;
}

/// Shed-rung victim order (DESIGN.md F28): longest period first (the
/// lowest rate-monotonic priority), heaviest memory among equals, name as
/// the deterministic last resort.
std::vector<TaskId> shed_order(const TaskGraph& graph) {
  std::vector<TaskId> order = task_ids(graph);
  std::sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    const Task& ta = graph.task(a);
    const Task& tb = graph.task(b);
    if (ta.period != tb.period) return ta.period > tb.period;
    if (ta.memory != tb.memory) return ta.memory > tb.memory;
    return ta.name < tb.name;
  });
  return order;
}

/// Scope guard running \p undo unless dismissed — apply()'s strong
/// exception guarantee: whatever throws, the event leaves nothing behind.
template <typename Undo>
class Rollback {
 public:
  explicit Rollback(Undo undo) : undo_(std::move(undo)) {}
  Rollback(const Rollback&) = delete;
  Rollback& operator=(const Rollback&) = delete;
  ~Rollback() { fire(); }
  /// Undo now; later calls and the destructor do nothing.
  void fire() noexcept {
    if (!armed_) return;
    armed_ = false;
    undo_();
  }
  void dismiss() { armed_ = false; }

 private:
  Undo undo_;
  bool armed_ = true;
};

/// A whole-task placement: processor and first start.
struct Placement {
  ProcId proc = kNoProc;
  Time start = 0;
};

/// Where whole task \p t goes on the state behind \p edits (DESIGN.md
/// F11): the earliest feasible start over the alive processors, then the
/// preferred processor \p pref, then less memory. A processor is skipped
/// when admitting t whole would overrun the memory capacity, with
/// \p resident[p] (t's current residency; empty when t is placed nowhere)
/// counted as freed. \p bounds are t's precedence lower bounds per
/// processor. proc is kNoProc when nothing fits.
Placement choose_processor(const ScheduleJournal& edits, TaskId t,
                           ProcId pref, std::span<const Mem> resident,
                           std::span<const Time> bounds,
                           const std::vector<std::uint8_t>& failed) {
  const Schedule& work = edits.schedule();
  const Task& task = work.graph().task(t);
  const InstanceIdx n = work.graph().instance_count(t);
  const Architecture& arch = work.architecture();
  Placement best;
  for (ProcId p = 0; p < arch.processor_count(); ++p) {
    const auto i = static_cast<std::size_t>(p);
    if (failed[i]) continue;
    if (arch.has_memory_limit() &&
        work.memory_on(p) - (resident.empty() ? 0 : resident[i]) +
                task.memory * static_cast<Mem>(n) >
            arch.memory_capacity()) {
      continue;  // admitting t whole on p would overrun the capacity
    }
    const auto start = edits.occupancy()[i].earliest_fit(
        bounds[i], task.period, task.wcet, n);
    if (!start) continue;
    bool better = false;
    if (best.proc == kNoProc) {
      better = true;
    } else if (*start != best.start) {
      better = *start < best.start;
    } else {
      const bool cand_pref = (p == pref);
      const bool best_pref = (best.proc == pref);
      if (cand_pref != best_pref) {
        better = cand_pref;
      } else {
        better = work.memory_on(p) < work.memory_on(best.proc);
      }
    }
    if (better) best = Placement{p, *start};
  }
  return best;
}

std::string no_placement(const Task& task) {
  return "no feasible placement for task " + task.name;
}

/// The dirty-set repair (DESIGN.md F11): re-place every dirty task whole —
/// through choose_processor(), preferring its current instance-0 processor,
/// which keeps its pre-repair value until the task itself is re-placed — in
/// topological order, cascading to consumers whose data-readiness a
/// re-placement broke (consumers are always later in the order, so one pass
/// suffices). Every edit goes through \p edits. Returns an empty string on
/// success, else the reason the repair is infeasible.
std::string repair(ScheduleJournal& edits, std::span<const TaskId> initial,
                   const std::vector<std::uint8_t>& failed,
                   std::vector<TaskId>& repaired) {
  const Schedule& work = edits.schedule();
  const TaskGraph& graph = work.graph();
  // Pending dirty tasks by topological rank: popped in topological order,
  // and a cascade only adds consumers, which rank later than every task
  // already popped — so membership in the pending set is all the cascade
  // needs, and a local event never touches the other tasks.
  std::set<std::pair<std::int32_t, TaskId>> dirty;
  const auto key = [&](TaskId t) {
    return std::pair{graph.topological_rank(t), t};
  };
  for (const TaskId t : initial) dirty.insert(key(t));
  const auto detach = [&](TaskId t) {
    const InstanceIdx n = graph.instance_count(t);
    for (InstanceIdx k = 0; k < n; ++k) {
      const TaskInstance inst{t, k};
      const ProcId p = work.proc(inst);
      if (p != kNoProc) edits.remove(p, inst, work.start(inst));
    }
  };
  // Detach the initial dirty set up front so it does not constrain its own
  // re-placement; cascade additions are detached when their turn comes
  // (removing an absent owner is a no-op), which is merely conservative.
  for (const auto& [rank, t] : dirty) detach(t);

  // Scratch hoisted out of the loop: a fresh allocation per task adds up.
  std::vector<Mem> resident;
  std::vector<Time> bounds;
  while (!dirty.empty()) {
    const TaskId t = dirty.begin()->second;
    dirty.erase(dirty.begin());
    detach(t);
    const Task& task = graph.task(t);
    const InstanceIdx n = graph.instance_count(t);

    // t's current residency per processor: the schedule still carries its
    // stale assignment, so a capacity projection must not double-count it.
    if (work.architecture().has_memory_limit()) {
      resident.assign(
          static_cast<std::size_t>(work.architecture().processor_count()), 0);
      for (InstanceIdx k = 0; k < n; ++k) {
        const ProcId p = work.proc(TaskInstance{t, k});
        if (p != kNoProc) resident[static_cast<std::size_t>(p)] += task.memory;
      }
    }

    precedence_lower_bounds(work, t, bounds);
    const Placement best = choose_processor(edits, t, work.proc({t, 0}),
                                            resident, bounds, failed);
    if (best.proc == kNoProc) return no_placement(task);

    commit_whole_task(edits, t, best.proc, best.start);
    repaired.push_back(t);

    // Cascade: a later start or a new processor can invalidate consumers.
    for (const std::int32_t e : graph.deps_out(t)) {
      const Dependence& dep =
          graph.dependences()[static_cast<std::size_t>(e)];
      if (dirty.contains(key(dep.consumer))) continue;
      const InstanceIdx nc = graph.instance_count(dep.consumer);
      for (InstanceIdx k = 0; k < nc; ++k) {
        const TaskInstance inst{dep.consumer, k};
        if (work.data_ready(inst, work.proc(inst)) > work.start(inst)) {
          dirty.insert(key(dep.consumer));
          break;
        }
      }
    }
  }
  return {};
}

}  // namespace

std::string place_fresh(ScheduleJournal& edits,
                        std::span<const ProcId> preferred,
                        const std::vector<std::uint8_t>& failed,
                        std::vector<TaskId>& placed) {
  const Schedule& work = edits.schedule();
  const TaskGraph& graph = work.graph();
  placed.reserve(placed.size() + graph.task_count());
  std::vector<Time> bounds;
  for (const TaskId t : graph.topological_order()) {
    precedence_lower_bounds(work, t, bounds);
    const Placement best =
        choose_processor(edits, t, preferred[static_cast<std::size_t>(t)], {},
                         bounds, failed);
    if (best.proc == kNoProc) return no_placement(graph.task(t));
    commit_whole_task(edits, t, best.proc, best.start);
    placed.push_back(t);
  }
  return {};
}

Rebalancer::Rebalancer(std::unique_ptr<TaskGraph> graph, Schedule schedule,
                       RebalancerOptions options)
    : options_(std::move(options)),
      graph_(std::move(graph)),
      sched_(std::move(schedule)) {
  LBMEM_REQUIRE(graph_ != nullptr, "Rebalancer requires a graph");
  LBMEM_REQUIRE(&sched_->graph() == graph_.get(),
                "the schedule must reference the owned graph");
  LBMEM_REQUIRE(sched_->complete(),
                "Rebalancer requires a complete schedule");
  // The engine's occupancy mirrors every instance, and the balance stage
  // runs in place over it (LoadBalancer::rebalance).
  LBMEM_REQUIRE(options_.balance.overlap_rule == OverlapRule::AllInstances,
                "the online engine requires OverlapRule::AllInstances");
  failed_.assign(
      static_cast<std::size_t>(sched_->architecture().processor_count()), 0);
  occ_ = build_occupancy(*sched_);
}

Rebalancer Rebalancer::adopt(const TaskGraph& graph, const Schedule& schedule,
                             RebalancerOptions options) {
  LBMEM_REQUIRE(&schedule.graph() == &graph,
                "the schedule must reference the given graph");
  auto copy = std::make_unique<TaskGraph>(graph);
  Schedule rebound = carry_over(schedule, *copy, task_ids(*copy));
  return Rebalancer(std::move(copy), std::move(rebound), std::move(options));
}

int Rebalancer::alive_processor_count() const {
  return static_cast<int>(failed_.size()) -
         static_cast<int>(std::count(failed_.begin(), failed_.end(), 1));
}

void Rebalancer::run_balance_stage(ScheduleJournal& journal,
                                   std::vector<TaskId> seeds,
                                   EventOutcome& out) {
  LBMEM_TRACE_SPAN("online.balance_stage");
  BalanceOptions bopts = options_.balance;
  bopts.closed_procs = failed_;
  if (bopts.metrics == nullptr) bopts.metrics = options_.metrics;
  const LoadBalancer balancer(bopts);

  // Incremental: the blocks around the seeds. --mode=full: every block,
  // which decides exactly what balance() would on this state.
  const BlockDecomposition dec = [&] {
    if (!options_.incremental) {
      LBMEM_TRACE_SPAN("lb.build_blocks");
      return build_blocks(*sched_);
    }
    std::sort(seeds.begin(), seeds.end());
    seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
    return build_blocks_around(*sched_, seeds, scratch_.marks);
  }();
  const RebalanceResult result = balancer.rebalance(journal, dec, scratch_);

  out.dirty_blocks = result.stats.blocks_total;
  out.balance_fell_back = result.stats.fell_back;
  if (result.stats.fell_back) return;  // the repaired state stands
  out.balance_moves = result.stats.moves_off_home;
  out.balance_gain = result.stats.gain_total;
}

EventOutcome Rebalancer::fail_processor(ProcId proc, Time at) {
  return apply(Event{at, ProcessorFailure{proc}});
}

namespace {

// Span names must be static literals (the tracer stores the pointer).
const char* event_span_name(EventKind kind) {
  switch (kind) {
    case EventKind::TaskArrival: return "online.TaskArrival";
    case EventKind::TaskRemoval: return "online.TaskRemoval";
    case EventKind::WcetChange: return "online.WcetChange";
    case EventKind::ProcessorFailure: return "online.ProcessorFailure";
  }
  return "online.Event";
}

// One fold per apply(), at the shared epilogue. Every name is registered
// on every fold so the emitted name set never depends on event history.
// The dirty-set size is a property of the decision sequence (Deterministic);
// the per-event latency is wall clock (Timing).
void fold_event(obs::Registry& reg, const EventOutcome& out) {
  const auto applied =
      reg.counter("online.events_applied", obs::MetricClass::Deterministic);
  const auto rejected =
      reg.counter("online.events_rejected", obs::MetricClass::Deterministic);
  const auto repaired =
      reg.counter("online.repaired_tasks", obs::MetricClass::Deterministic);
  const auto migrated = reg.counter("online.migrated_instances",
                                    obs::MetricClass::Deterministic);
  const auto dirty =
      reg.histogram("online.dirty_blocks", obs::MetricClass::Deterministic);
  const auto latency =
      reg.histogram("online.repair_latency_us", obs::MetricClass::Timing);
  // Degraded-mode ladder (DESIGN.md F28): retry attempts, recoveries per
  // rung, shed victims, and the deepest rung ever needed as a gauge.
  const auto retries = reg.counter("online.degraded.retries",
                                   obs::MetricClass::Deterministic);
  const auto rec_retry = reg.counter("online.degraded.recovered_retry",
                                     obs::MetricClass::Deterministic);
  const auto rec_replace = reg.counter("online.degraded.recovered_replace",
                                       obs::MetricClass::Deterministic);
  const auto rec_shed = reg.counter("online.degraded.recovered_shed",
                                    obs::MetricClass::Deterministic);
  const auto shed = reg.counter("online.degraded.shed_tasks",
                                obs::MetricClass::Deterministic);
  const auto mode =
      reg.gauge("online.degraded_mode", obs::MetricClass::Deterministic);
  reg.add(applied, out.applied ? 1 : 0);
  reg.add(rejected, out.applied ? 0 : 1);
  reg.add(retries, out.degraded_retries);
  if (out.applied) {
    reg.add(repaired, out.repaired_tasks);
    reg.add(migrated, out.migrated_instances);
    reg.record(dirty, out.dirty_blocks);
    reg.add(rec_retry, out.degraded_rung == 1 ? 1 : 0);
    reg.add(rec_replace, out.degraded_rung == 2 ? 1 : 0);
    reg.add(rec_shed, out.degraded_rung == 3 ? 1 : 0);
    reg.add(shed, static_cast<std::int64_t>(out.shed.size()));
  }
  reg.raise(mode, out.degraded_rung);
  reg.record(latency, static_cast<std::int64_t>(out.wall_seconds * 1e6));
}

}  // namespace

EventOutcome Rebalancer::apply(const Event& event) {
  obs::ScopedSpan event_span(event_span_name(event.kind()), "online");
  Stopwatch watch;
  EventOutcome out;
  out.event = event;
  // Shared epilogue: post-event system state + latency, filled once at
  // every exit (no-op, reject, success).
  const auto finish = [&] {
#if LBMEM_TIMELINE_VERIFY
    // The warm occupancy is load-bearing: the balancer's moved-set
    // validation trusts it to mirror the schedule (DESIGN.md F12, F35).
    LBMEM_REQUIRE(mirrors(occ_, *sched_),
                  "occupancy diverged from the schedule");
    // Every event's reported makespan is the maintained one.
    LBMEM_REQUIRE(sched_->makespan() == scanned_makespan(*sched_),
                  "maintained makespan diverged from a scan");
#endif
    out.makespan = sched_->makespan();
    out.max_memory = sched_->max_memory();
    out.alive_tasks = static_cast<int>(graph_->task_count());
    out.alive_procs = alive_processor_count();
    out.wall_seconds = watch.seconds();
    if (options_.metrics != nullptr) fold_event(*options_.metrics, out);
  };

  // Strong exception guarantee (DESIGN.md F14, F36): every change below is
  // undone unless the event commits as apply()'s last step. The repair
  // rungs and the balance stage edit *sched_ and occ_ in place through
  // `journal`. A state that is new anyway (placements carried onto a new
  // graph, a full re-place, a shed) is swapped in before it is repaired, and
  // the pre-event graph, schedule and occupancy wait in `prior` until
  // apply() returns. A full re-place fills its empty state without
  // journaling (F40): swapping `prior` back undoes it whole.
  ScheduleJournal journal(*sched_, occ_);
  struct Prior {
    std::unique_ptr<TaskGraph> graph;  // set once graph_ was replaced
    std::optional<Schedule> sched;     // engaged once a state swapped in
    std::optional<std::vector<ProcTimeline>> occ;  // once occ_ was replaced
    ScheduleJournal::Mark mark = 0;    // journal length at the first swap
  } prior;
  ProcId failed_proc = kNoProc;
  const std::size_t shed_before = shed_.size();
  Rollback undo([&]() noexcept {
    // The swapped-in state's edits first (a kept occ_ has some), then the
    // swap, then the edits before it (the WCET and its busy-time
    // correction included).
    journal.rollback(prior.mark);
    if (prior.graph) graph_.swap(prior.graph);
    if (prior.sched) sched_.swap(prior.sched);
    if (prior.occ) occ_.swap(*prior.occ);
    journal.rollback(0);
    if (failed_proc != kNoProc) {
      failed_[static_cast<std::size_t>(failed_proc)] = 0;
    }
    shed_.erase(shed_.begin() + static_cast<std::ptrdiff_t>(shed_before),
                shed_.end());
  });

  std::string reject;
  // Pre-event task id -> post-event id (-1: removed or shed). Filled by a
  // graph edit, or as the identity once a graph-keeping event re-places
  // every task.
  std::vector<TaskId> remap;
  // Balance seeds besides the repaired tasks, and the tasks re-placed.
  std::vector<TaskId> seeds;
  std::vector<TaskId> repaired;
  const bool degraded = options_.degraded;

  // Swap in a state that is new anyway, by moves only (nothing can throw
  // half way): \p graph (null: keep graph_), \p sched and \p occ (nullopt:
  // keep occ_). The first replacement of each part moves the pre-event one
  // into `prior`; a later one drops a state nobody keeps.
  const auto swap_in = [&](std::unique_ptr<TaskGraph> graph, Schedule sched,
                           std::optional<std::vector<ProcTimeline>> occ) {
    if (!prior.sched) {
      prior.mark = journal.mark();
      prior.sched.emplace(std::move(*sched_));
    }
    *sched_ = std::move(sched);
    if (occ) {
      if (!prior.occ) prior.occ.emplace(std::move(occ_));
      occ_ = std::move(*occ);
    }
    if (graph) {
      if (!prior.graph) prior.graph = std::move(graph_);
      graph_ = std::move(graph);
    }
  };

  // A full re-place (DESIGN.md F13, F40): swap in an empty schedule over
  // \p graph (null: graph_) and place every task in one pass, preferring
  // its pre-event processor through \p ids (pre-event task id -> graph's
  // id). The pass records nothing: nobody keeps a failed attempt's state,
  // which the next swap or a reject's swap back drops whole. The balance
  // stage is then seeded with the placed tasks only.
  const auto full_replace = [&](std::unique_ptr<TaskGraph> graph,
                                std::span<const TaskId> ids) -> std::string {
    const Schedule& pre = prior.sched ? *prior.sched : *sched_;
    const TaskGraph& g = graph ? *graph : *graph_;
    std::vector<ProcId> preferred(g.task_count(), kNoProc);
    for (TaskId t = 0; t < static_cast<TaskId>(ids.size()); ++t) {
      const TaskId nt = ids[static_cast<std::size_t>(t)];
      if (nt >= 0) {
        preferred[static_cast<std::size_t>(nt)] = pre.proc(TaskInstance{t, 0});
      }
    }
    std::vector<ProcTimeline> occ(
        static_cast<std::size_t>(pre.architecture().processor_count()),
        ProcTimeline(g.hyperperiod()));
    swap_in(std::move(graph), Schedule(g, pre.architecture(), pre.comm()),
            std::move(occ));
    seeds.clear();
    repaired.clear();
    ScheduleJournal fresh(*sched_, occ_, /*record=*/false);
    std::string err = place_fresh(fresh, preferred, failed_, repaired);
    if (err.empty()) out.full_replace = true;
    return err;
  };

  // Rung 3: shed the lowest-priority tasks (longest period first) until a
  // full re-place of the survivors fits, bounded by kMaxShed. Each attempt
  // shrinks the unshrunk post-event graph, which leaves graph_ first: into
  // `prior` when the event kept its graph (then also the pre-event one),
  // else into `post`.
  const auto shed = [&](const std::string& err) -> std::string {
    if (!degraded) return err;  // historic behavior: reject
    std::unique_ptr<TaskGraph> post = std::move(graph_);
    if (!prior.graph) prior.graph.swap(post);
    const TaskGraph& graph = post ? *post : *prior.graph;
    const std::vector<TaskId> order = shed_order(graph);
    const int cap =
        std::min(kMaxShed, static_cast<int>(graph.task_count()) - 1);
    for (int s = 1; s <= cap; ++s) {
      const std::vector<TaskId> victims(order.begin(), order.begin() + s);
      std::vector<TaskId> shed_remap;
      auto shrunk =
          std::make_unique<TaskGraph>(graph.without(victims, shed_remap));
      shrunk->freeze();
      std::vector<TaskId> composed = remap;
      for (TaskId& id : composed) {
        if (id >= 0) id = shed_remap[static_cast<std::size_t>(id)];
      }
      if (!full_replace(std::move(shrunk), composed).empty()) continue;
      out.degraded_rung = 3;
      for (const TaskId v : victims) out.shed.push_back(graph.task(v).name);
      remap = std::move(composed);
      return {};
    }
    return err;  // the whole ladder failed: report the rung-0 reason
  };

  // The repair ladder (DESIGN.md F28) on the live state. Rung 0 repairs
  // \p dirty; without degraded mode a failure escalates once to a full
  // re-place and then rejects (the historic F11/F13 behavior). With
  // degraded mode the failure climbs: widened-scope retries, the full
  // re-place, and finally load shedding. A failed rung leaks nothing into
  // the next: a retry rolls back to the state before rung 0, and a full
  // re-place starts from an empty schedule.
  const auto climb = [&](std::vector<TaskId> dirty) -> std::string {
    const ScheduleJournal::Mark base = journal.mark();
    const auto attempt = [&] {
      repaired.clear();
      std::string err = repair(journal, dirty, failed_, repaired);
      if (!err.empty()) journal.rollback(base);
      return err;
    };
    const std::string err = attempt();
    if (err.empty()) return {};
    if (degraded) {
      // Rung 1: re-attempt with the dirty set widened by one dependency
      // ring per retry, until widening adds nothing.
      for (int r = 0; r < kMaxRetries && widen_by_ring(*graph_, dirty); ++r) {
        ++out.degraded_retries;
        if (attempt().empty()) {
          out.degraded_rung = 1;
          return {};
        }
      }
    }
    if (remap.empty()) remap = task_ids(*graph_);  // the graph was kept
    if (full_replace(nullptr, remap).empty()) {
      if (degraded) out.degraded_rung = 2;
      return {};
    }
    return shed(err);
  };

  switch (event.kind()) {
    case EventKind::WcetChange: {
      const WcetChange& change = std::get<WcetChange>(event.payload);
      const TaskId t = graph_->try_find(change.task);
      if (t < 0) {
        reject = "wcet change for unknown task " + change.task;
        break;
      }
      if (change.wcet == graph_->task(t).wcet) {
        // Nothing changed: apply as a no-op instead of paying for a
        // repair and a balance round.
        out.applied = true;
        finish();
        return out;
      }
      try {
        journal.set_wcet(*graph_, t, change.wcet);
      } catch (const ModelError& e) {
        reject = e.what();
        break;
      }
      // t's occupancy pieces still have the old length; the repair
      // re-places t, so its pieces then carry the new WCET.
      seeds.push_back(t);
      add_consumers(*graph_, t, seeds);
      LBMEM_TRACE_SPAN("online.repair");
      reject = climb({t});
      break;
    }

    case EventKind::ProcessorFailure: {
      const ProcId p = std::get<ProcessorFailure>(event.payload).proc;
      if (p < 0 || p >= sched_->architecture().processor_count()) {
        reject = "failure of unknown processor";
        break;
      }
      if (failed_[static_cast<std::size_t>(p)]) {
        reject = "processor already failed";
        break;
      }
      if (alive_processor_count() <= 1) {
        reject = "cannot fail the last alive processor";
        break;
      }
      failed_proc = p;
      failed_[static_cast<std::size_t>(p)] = 1;
      std::vector<TaskId> dirty;
      for (const TaskInstance inst : sched_->instances_on(p)) {
        dirty.push_back(inst.task);
      }
      std::sort(dirty.begin(), dirty.end());
      dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
      LBMEM_TRACE_SPAN("online.repair");
      reject = climb(std::move(dirty));
      break;
    }

    case EventKind::TaskArrival: {
      const NewTaskSpec& spec = std::get<TaskArrival>(event.payload).spec;
      try {
        auto rebuilt = std::make_unique<TaskGraph>(graph_->without({}, remap));
        const TaskId nid = rebuilt->add_task(
            Task{spec.name, spec.period, spec.wcet, spec.memory});
        for (const NewTaskSpec::Producer& producer : spec.producers) {
          const TaskId pid = rebuilt->try_find(producer.task);
          if (pid < 0) {
            throw ModelError("arrival references unknown producer " +
                             producer.task);
          }
          rebuilt->add_dependence(pid, nid, producer.data_size);
        }
        rebuilt->freeze();

        LBMEM_TRACE_SPAN("online.repair");
        // Existing ids are stable (the new task is appended last), so occ_'s
        // owners still match when the hyper-period held.
        const bool same_h = rebuilt->hyperperiod() == graph_->hyperperiod();
        Schedule carried = carry_over(*sched_, *rebuilt, remap);
        const Architecture& arch = carried.architecture();
        if (!same_h && arch.has_memory_limit() &&
            carried.max_memory() > arch.memory_capacity()) {
          // A grown hyper-period multiplies every processor's resident
          // memory; past the capacity, re-place every task (DESIGN.md F13).
          reject = full_replace(std::move(rebuilt), remap);
          if (!reject.empty()) reject = shed(reject);
          break;
        }
        std::optional<std::vector<ProcTimeline>> occ;
        if (!same_h) occ = build_occupancy(carried);
        swap_in(std::move(rebuilt), std::move(carried), std::move(occ));
        seeds.push_back(nid);
        reject = climb({nid});
      } catch (const ModelError& e) {
        reject = e.what();
      }
      break;
    }

    case EventKind::TaskRemoval: {
      const std::string& name = std::get<TaskRemoval>(event.payload).task;
      const TaskId victim = graph_->try_find(name);
      if (victim < 0) {
        reject = "removal of unknown task " + name;
        break;
      }
      if (graph_->task_count() == 1) {
        reject = "cannot remove the last task";
        break;
      }
      auto rebuilt = std::make_unique<TaskGraph>(
          graph_->without(std::span<const TaskId>(&victim, 1), remap));
      rebuilt->freeze();
      LBMEM_TRACE_SPAN("online.repair");
      if (rebuilt->hyperperiod() != graph_->hyperperiod()) {
        // The victim's period was load-bearing for the hyper-period;
        // folding the old circle onto the smaller one is not validity-
        // preserving, so every task is re-placed (DESIGN.md F13).
        reject = full_replace(std::move(rebuilt), remap);
        if (!reject.empty()) reject = shed(reject);
        break;
      }
      // Seed the balance around the hole the victim left: its producers
      // and consumers.
      for (const std::int32_t e : graph_->deps_in(victim)) {
        const TaskId producer =
            graph_->dependences()[static_cast<std::size_t>(e)].producer;
        seeds.push_back(remap[static_cast<std::size_t>(producer)]);
      }
      for (const std::int32_t e : graph_->deps_out(victim)) {
        const TaskId consumer =
            graph_->dependences()[static_cast<std::size_t>(e)].consumer;
        seeds.push_back(remap[static_cast<std::size_t>(consumer)]);
      }
      Schedule carried = carry_over(*sched_, *rebuilt, remap);
      // Ids shifted, so the occupancy owners must be rebuilt.
      std::vector<ProcTimeline> occ = build_occupancy(carried);
      swap_in(std::move(rebuilt), std::move(carried), std::move(occ));
      reject = climb({});  // fewer tasks constrain nothing: none is dirty
      break;
    }
  }

  if (!reject.empty()) {
    undo.fire();  // report the pre-event state
    out.applied = false;
    out.reject_reason = reject;
    finish();
    return out;
  }

  shed_.insert(shed_.end(), out.shed.begin(), out.shed.end());
  out.applied = true;
  out.graph_rebuilt = prior.graph != nullptr;
  out.repaired_tasks = static_cast<int>(repaired.size());
  seeds.insert(seeds.end(), repaired.begin(), repaired.end());
  run_balance_stage(journal, std::move(seeds), out);

  out.migrated_instances = prior.sched
                               ? count_migrations(*prior.sched, *sched_, remap)
                               : journal.migrations();
  finish();
  journal.commit();
  undo.dismiss();
  return out;
}

}  // namespace lbmem
