#include "lbmem/online/rebalancer.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <utility>

#include "lbmem/lb/block_builder.hpp"
#include "lbmem/obs/metrics.hpp"
#include "lbmem/obs/trace.hpp"
#include "lbmem/sched/scheduler.hpp"
#include "lbmem/util/check.hpp"
#include "lbmem/util/stopwatch.hpp"

namespace lbmem {

namespace {

/// Degraded-mode ladder bounds (DESIGN.md F28): widened-scope retries
/// (rung 1) and the most tasks the shed rung (rung 3) may drop per event.
constexpr int kMaxRetries = 2;
constexpr int kMaxShed = 4;

/// Task id by name, or -1 (events identify tasks by name; DESIGN.md F10).
TaskId maybe_find(const TaskGraph& graph, const std::string& name) {
  for (TaskId t = 0; t < static_cast<TaskId>(graph.task_count()); ++t) {
    if (graph.task(t).name == name) return t;
  }
  return -1;
}

/// All-instances occupancy of \p sched. Unassigned instances (a not-yet-
/// admitted arrival) simply have no footprint. instances_on() is sorted by
/// start, which keeps the sorted-vector inserts cheap.
std::vector<ProcTimeline> build_occupancy(const Schedule& sched) {
  const int m = sched.architecture().processor_count();
  std::vector<ProcTimeline> occ(static_cast<std::size_t>(m),
                                ProcTimeline(sched.graph().hyperperiod()));
  for (ProcId p = 0; p < m; ++p) {
    for (const TaskInstance inst : sched.instances_on(p)) {
      occ[static_cast<std::size_t>(p)].add(
          sched.start(inst), sched.graph().task(inst.task).wcet, inst);
    }
  }
  return occ;
}

#if LBMEM_TIMELINE_VERIFY
/// Does \p occ hold exactly the pieces of build_occupancy(\p sched)?
bool mirrors(const std::vector<ProcTimeline>& occ, const Schedule& sched) {
  const std::vector<ProcTimeline> fresh = build_occupancy(sched);
  return std::equal(occ.begin(), occ.end(), fresh.begin(), fresh.end(),
                    [](const ProcTimeline& a, const ProcTimeline& b) {
                      return a.same_pieces(b);
                    });
}
#endif

/// Processor of each task's first instance (kNoProc when unassigned) —
/// the repair's migration-avoiding placement preference.
std::vector<ProcId> instance0_procs(const Schedule& sched) {
  const auto count = static_cast<TaskId>(sched.graph().task_count());
  std::vector<ProcId> preferred(static_cast<std::size_t>(count), kNoProc);
  for (TaskId t = 0; t < count; ++t) {
    preferred[static_cast<std::size_t>(t)] = sched.proc(TaskInstance{t, 0});
  }
  return preferred;
}

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

/// Grow \p dirty by one dependency ring: every producer or consumer of a
/// dirty task becomes dirty (the rung-1 scope widening, DESIGN.md F28).
/// Returns false when the ring added nothing (fixpoint — retrying would
/// repeat the identical repair).
bool widen_by_ring(const TaskGraph& graph, std::vector<std::uint8_t>& dirty) {
  std::vector<std::uint8_t> next = dirty;
  for (const Dependence& dep : graph.dependences()) {
    if (dirty[static_cast<std::size_t>(dep.producer)]) {
      next[static_cast<std::size_t>(dep.consumer)] = 1;
    }
    if (dirty[static_cast<std::size_t>(dep.consumer)]) {
      next[static_cast<std::size_t>(dep.producer)] = 1;
    }
  }
  const bool grew = next != dirty;
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

/// Scope guard undoing a durable engine mutation (set_wcet, failed_ flag)
/// unless dismissed — keeps the "rejected events leave the system exactly
/// as before" promise even when patching throws (bad_alloc, precondition).
template <typename Undo>
class Rollback {
 public:
  explicit Rollback(Undo undo) : undo_(std::move(undo)) {}
  Rollback(const Rollback&) = delete;
  Rollback& operator=(const Rollback&) = delete;
  ~Rollback() {
    if (armed_) undo_();
  }
  void dismiss() { armed_ = false; }

 private:
  Undo undo_;
  bool armed_ = true;
};

}  // namespace

/// Candidate post-patch state, committed only when the repair succeeds
/// (rejected events must leave the system untouched; DESIGN.md F14).
struct Rebalancer::Patched {
  explicit Patched(Schedule s) : sched(std::move(s)) {}

  Schedule sched;
  std::vector<ProcTimeline> occ;
  std::vector<std::uint8_t> dirty;      ///< per (post-event) TaskId
  std::vector<ProcId> preferred;        ///< placement preference per task
  std::vector<TaskId> repaired;
  std::vector<TaskId> seeds;            ///< balance-stage seed tasks
  bool full_replace = false;
};

namespace {

/// The dirty-set repair (DESIGN.md F11): re-place every dirty task whole —
/// earliest feasible strict-periodic start over the alive processors,
/// preferring its previous processor — in topological order, cascading to
/// consumers whose data-readiness a re-placement broke (consumers are
/// always later in the order, so one pass suffices). Returns an empty
/// string on success, else the reason the repair is infeasible.
std::string repair(Schedule& work, std::vector<ProcTimeline>& occ,
                   std::vector<std::uint8_t>& dirty,
                   const std::vector<ProcId>& preferred,
                   const std::vector<std::uint8_t>& failed,
                   std::vector<TaskId>& repaired) {
  const TaskGraph& graph = work.graph();
  const auto detach = [&](TaskId t) {
    const InstanceIdx n = graph.instance_count(t);
    for (InstanceIdx k = 0; k < n; ++k) {
      const TaskInstance inst{t, k};
      const ProcId p = work.proc(inst);
      if (p != kNoProc) occ[static_cast<std::size_t>(p)].remove(inst);
    }
  };
  // Detach the initial dirty set up front so it does not constrain its own
  // re-placement; cascade additions are detached when their turn comes
  // (remove() is a no-op on absent owners), which is merely conservative.
  for (TaskId t = 0; t < static_cast<TaskId>(graph.task_count()); ++t) {
    if (dirty[static_cast<std::size_t>(t)]) detach(t);
  }

  // Scratch hoisted out of the loop: a full-replace escalation re-places
  // every task, and a fresh allocation per task adds up.
  std::vector<Mem> resident;
  for (const TaskId t : graph.topological_order()) {
    if (!dirty[static_cast<std::size_t>(t)]) continue;
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

    ProcId best_proc = kNoProc;
    Time best_start = 0;
    for (ProcId p = 0;
         p < work.architecture().processor_count(); ++p) {
      if (failed[static_cast<std::size_t>(p)]) continue;
      if (work.architecture().has_memory_limit() &&
          work.memory_on(p) - resident[static_cast<std::size_t>(p)] +
                  task.memory * static_cast<Mem>(n) >
              work.architecture().memory_capacity()) {
        continue;  // admitting t whole on p would overrun the capacity
      }
      const Time lb = precedence_lower_bound(work, t, p);
      const auto start = occ[static_cast<std::size_t>(p)].earliest_fit(
          lb, task.period, task.wcet, n);
      if (!start) continue;
      bool better = false;
      if (best_proc == kNoProc) {
        better = true;
      } else if (*start != best_start) {
        better = *start < best_start;
      } else {
        const ProcId pref = preferred[static_cast<std::size_t>(t)];
        const bool cand_pref = (p == pref);
        const bool best_pref = (best_proc == pref);
        if (cand_pref != best_pref) {
          better = cand_pref;
        } else {
          better = work.memory_on(p) < work.memory_on(best_proc);
        }
      }
      if (better) {
        best_proc = p;
        best_start = *start;
      }
    }
    if (best_proc == kNoProc) {
      return "no feasible placement for task " + task.name;
    }

    commit_whole_task(work, occ, t, best_proc, best_start);
    repaired.push_back(t);

    // Cascade: a later start or a new processor can invalidate consumers.
    for (const std::int32_t e : graph.deps_out(t)) {
      const Dependence& dep =
          graph.dependences()[static_cast<std::size_t>(e)];
      if (dirty[static_cast<std::size_t>(dep.consumer)]) continue;
      const InstanceIdx nc = graph.instance_count(dep.consumer);
      for (InstanceIdx k = 0; k < nc; ++k) {
        const TaskInstance inst{dep.consumer, k};
        if (work.data_ready(inst, work.proc(inst)) > work.start(inst)) {
          dirty[static_cast<std::size_t>(dep.consumer)] = 1;
          break;
        }
      }
    }
  }
  return {};
}

}  // namespace

/// Fresh candidate that re-places *every* task (hyper-period changes and
/// the escalation path when a local repair is infeasible; DESIGN.md F13).
/// Placement preferences come from the pre-event schedule through \p remap
/// (\p pre's task id -> \p graph's).
Rebalancer::Patched Rebalancer::full_replace_candidate(
    const TaskGraph& graph, const Schedule& pre,
    std::span<const TaskId> remap) {
  Rebalancer::Patched candidate{
      Schedule(graph, pre.architecture(), pre.comm())};
  candidate.full_replace = true;
  candidate.occ.assign(
      static_cast<std::size_t>(pre.architecture().processor_count()),
      ProcTimeline(graph.hyperperiod()));
  candidate.dirty.assign(graph.task_count(), 1);
  candidate.preferred.assign(graph.task_count(), kNoProc);
  for (TaskId t = 0; t < static_cast<TaskId>(remap.size()); ++t) {
    const TaskId nt = remap[static_cast<std::size_t>(t)];
    if (nt >= 0) {
      candidate.preferred[static_cast<std::size_t>(nt)] =
          pre.proc(TaskInstance{t, 0});
    }
  }
  return candidate;
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

void Rebalancer::run_balance_stage(const std::vector<TaskId>& seeds,
                                   EventOutcome& out) {
  LBMEM_TRACE_SPAN("online.balance_stage");
  BalanceOptions bopts = options_.balance;
  bopts.closed_procs = failed_;
  if (bopts.metrics == nullptr) bopts.metrics = options_.metrics;
  const LoadBalancer balancer(bopts);

  // Scoped rebalancing is only defined under AllInstances (see
  // RebalanceScope); a MovedOnly configuration degrades to a full balance.
  const bool scoped = options_.incremental &&
                      bopts.overlap_rule == OverlapRule::AllInstances;
  BalanceResult result = [&] {
    if (!scoped) return balancer.balance(*sched_);
    std::vector<TaskId> deduped(seeds);
    std::sort(deduped.begin(), deduped.end());
    deduped.erase(std::unique(deduped.begin(), deduped.end()),
                  deduped.end());
    const BlockDecomposition dec = build_blocks_around(*sched_, deduped);
    RebalanceScope scope;
    scope.blocks = &dec;
    scope.occupancy = &occ_;
    scope.return_occupancy = true;
    return balancer.rebalance(*sched_, scope);
  }();

  out.dirty_blocks = result.stats.blocks_total;
  out.balance_fell_back = result.stats.fell_back;
  if (result.stats.fell_back) return;  // keep the repaired schedule

  out.balance_moves = result.stats.moves_off_home;
  out.balance_gain = result.stats.gain_total;
  sched_ = std::move(result.schedule);
  occ_ = result.occupancy.empty() ? build_occupancy(*sched_)
                                  : std::move(result.occupancy);
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
#endif
    out.makespan = sched_->makespan();
    out.max_memory = sched_->max_memory();
    out.alive_tasks = static_cast<int>(graph_->task_count());
    out.alive_procs = alive_processor_count();
    out.wall_seconds = watch.seconds();
    if (options_.metrics != nullptr) fold_event(*options_.metrics, out);
  };

  // Snapshot for the migration diff and (conceptually) the rollback: the
  // candidate-state patching below never mutates *sched_ in place, so a
  // rejected event only ever needs its explicit graph-level undo. Taken
  // lazily so cheap rejects and no-op events skip the O(instances) copy;
  // every applied path materializes it while building its candidate,
  // before anything commits. (A WcetChange materializes it after the
  // set_wcet graph mutation, which is safe: the snapshot copies only the
  // schedule's own vectors, untouched by the graph edit.)
  std::optional<Schedule> pre_snapshot;
  const auto pre = [&]() -> const Schedule& {
    if (!pre_snapshot) pre_snapshot.emplace(*sched_);
    return *pre_snapshot;
  };

  std::string reject;
  // Pre-event task id -> post-event id (-1: removed or shed); the identity
  // unless the event or the shed rung edits the graph.
  std::vector<TaskId> remap = task_ids(*graph_);
  std::unique_ptr<TaskGraph> new_graph;   // null = graph kept
  std::unique_ptr<TaskGraph> shed_graph;  // rung 3 shrank the graph
  std::optional<Patched> patched;

  // The repair ladder. Rung 0 is the plain dirty-set repair; without
  // degraded mode a failure escalates once to a full re-place and then
  // rejects (the historic F11/F13 behavior). With degraded mode the
  // failure climbs: widened-scope retries, the constructive full
  // re-place, and finally load shedding (DESIGN.md F28). Every rung
  // builds its candidate from pristine pre-event state via make_base /
  // full_replace_candidate, so a failed rung leaks nothing into the next
  // — and a rejected event leaks nothing at all (F14).
  const auto try_repair = [&](Patched& c) {
    return repair(c.sched, c.occ, c.dirty, c.preferred, failed_, c.repaired);
  };
  const auto run_ladder = [&](const std::function<Patched()>& make_base,
                              const TaskGraph& graph) -> std::string {
    LBMEM_TRACE_SPAN("online.repair");
    Patched candidate = make_base();
    const std::vector<std::uint8_t> base_dirty = candidate.dirty;
    const bool base_full = candidate.full_replace;
    std::string err = try_repair(candidate);
    if (err.empty()) {
      patched.emplace(std::move(candidate));
      return {};
    }
    const bool degraded = options_.degraded;
    if (!base_full) {
      // Rung 1 (degraded only): re-attempt with the dirty set widened by
      // one dependency ring per retry.
      if (degraded) {
        std::vector<std::uint8_t> dirty = base_dirty;
        for (int r = 0; r < kMaxRetries; ++r) {
          if (!widen_by_ring(graph, dirty)) break;  // fixpoint: no new scope
          Patched retry = make_base();
          retry.dirty = dirty;
          ++out.degraded_retries;
          if (try_repair(retry).empty()) {
            out.degraded_rung = 1;
            patched.emplace(std::move(retry));
            return {};
          }
        }
      }
      // Rung 2 / the historic escalation: re-place every task.
      Patched full = full_replace_candidate(graph, pre(), remap);
      if (try_repair(full).empty()) {
        full.seeds = full.repaired;
        if (degraded) out.degraded_rung = 2;
        patched.emplace(std::move(full));
        return {};
      }
    }
    if (!degraded) return err;  // historic behavior: reject
    // Rung 3: shed the lowest-priority tasks (longest period first) until
    // a full re-place of the survivors fits, bounded by kMaxShed.
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
      Patched cand = full_replace_candidate(*shrunk, pre(), composed);
      if (!try_repair(cand).empty()) continue;
      cand.seeds = cand.repaired;
      out.degraded_rung = 3;
      for (const TaskId v : victims) out.shed.push_back(graph.task(v).name);
      remap = std::move(composed);
      shed_graph = std::move(shrunk);
      patched.emplace(std::move(cand));
      return {};
    }
    return err;  // the whole ladder failed: report the rung-0 reason
  };

  switch (event.kind()) {
    case EventKind::WcetChange: {
      const WcetChange& change = std::get<WcetChange>(event.payload);
      const TaskId t = maybe_find(*graph_, change.task);
      if (t < 0) {
        reject = "wcet change for unknown task " + change.task;
        break;
      }
      const Time old_wcet = graph_->task(t).wcet;
      if (change.wcet == old_wcet) {
        // Nothing changed: apply as a no-op instead of paying for a
        // schedule copy, an aggregate refresh and a balance round.
        out.applied = true;
        finish();
        return out;
      }
      try {
        graph_->set_wcet(t, change.wcet);
      } catch (const ModelError& e) {
        reject = e.what();
        break;
      }
      // Guarded so the mutation unwinds on reject AND on any exception
      // thrown while patching (DESIGN.md F14).
      Rollback undo([this, t, old_wcet] { graph_->set_wcet(t, old_wcet); });
      const auto make_base = [&] {
        Patched candidate{pre()};
        candidate.sched.refresh_aggregates();
        // The occupancy copy holds old-length pieces for t; the repair
        // re-places t, so its pieces then carry the new WCET.
        candidate.occ = occ_;
        candidate.dirty.assign(graph_->task_count(), 0);
        candidate.dirty[static_cast<std::size_t>(t)] = 1;
        candidate.preferred = instance0_procs(pre());
        candidate.seeds.push_back(t);
        add_consumers(*graph_, t, candidate.seeds);
        return candidate;
      };
      reject = run_ladder(make_base, *graph_);
      if (!reject.empty()) break;  // ~Rollback restores the old WCET
      undo.dismiss();
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
      failed_[static_cast<std::size_t>(p)] = 1;
      // Un-fail on reject and on any exception while patching (F14).
      Rollback undo([this, p] { failed_[static_cast<std::size_t>(p)] = 0; });
      const auto make_base = [&] {
        Patched candidate{pre()};
        candidate.occ = occ_;
        candidate.dirty.assign(graph_->task_count(), 0);
        for (const TaskInstance inst : pre().instances_on(p)) {
          candidate.dirty[static_cast<std::size_t>(inst.task)] = 1;
        }
        candidate.preferred = instance0_procs(pre());
        return candidate;
      };
      reject = run_ladder(make_base, *graph_);
      if (!reject.empty()) break;  // ~Rollback un-fails the processor
      undo.dismiss();
      break;
    }

    case EventKind::TaskArrival: {
      const NewTaskSpec& spec = std::get<TaskArrival>(event.payload).spec;
      try {
        auto rebuilt = std::make_unique<TaskGraph>(graph_->without({}, remap));
        const TaskId nid = rebuilt->add_task(
            Task{spec.name, spec.period, spec.wcet, spec.memory});
        for (const NewTaskSpec::Producer& producer : spec.producers) {
          const TaskId pid = maybe_find(*rebuilt, producer.task);
          if (pid < 0) {
            throw ModelError("arrival references unknown producer " +
                             producer.task);
          }
          rebuilt->add_dependence(pid, nid, producer.data_size);
        }
        rebuilt->freeze();

        // Existing ids are stable (the new task is appended last), so the
        // occupancy owners still match when the hyper-period held.
        const bool same_h = rebuilt->hyperperiod() == graph_->hyperperiod();
        const auto make_base = [&] {
          Patched candidate{carry_over(pre(), *rebuilt, remap)};
          const Architecture& arch = candidate.sched.architecture();
          if (!same_h && arch.has_memory_limit() &&
              candidate.sched.max_memory() > arch.memory_capacity()) {
            // A grown hyper-period multiplies every processor's resident
            // memory; past the capacity, re-place every task (DESIGN.md F13).
            return full_replace_candidate(*rebuilt, pre(), remap);
          }
          candidate.occ = same_h ? occ_ : build_occupancy(candidate.sched);
          candidate.dirty.assign(rebuilt->task_count(), 0);
          candidate.dirty[static_cast<std::size_t>(nid)] = 1;
          candidate.preferred = instance0_procs(candidate.sched);
          candidate.seeds.push_back(nid);
          return candidate;
        };
        reject = run_ladder(make_base, *rebuilt);
        if (reject.empty()) new_graph = std::move(rebuilt);
      } catch (const ModelError& e) {
        reject = e.what();
      }
      break;
    }

    case EventKind::TaskRemoval: {
      const std::string& name = std::get<TaskRemoval>(event.payload).task;
      const TaskId victim = maybe_find(*graph_, name);
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
      const auto make_base = [&] {
        if (rebuilt->hyperperiod() != graph_->hyperperiod()) {
          // The victim's period was load-bearing for the hyper-period;
          // folding the old circle onto the smaller one is not validity-
          // preserving, so every task is re-placed (DESIGN.md F13). Every
          // task is then repaired and seeds the balance stage.
          return full_replace_candidate(*rebuilt, pre(), remap);
        }
        Patched candidate{carry_over(pre(), *rebuilt, remap)};
        // Ids shifted, so the occupancy owners must be rebuilt.
        candidate.occ = build_occupancy(candidate.sched);
        candidate.dirty.assign(rebuilt->task_count(), 0);
        candidate.preferred = instance0_procs(candidate.sched);
        // Seed the balance around the hole the victim left.
        for (const Dependence& dep : graph_->dependences()) {
          if (dep.producer != victim && dep.consumer != victim) continue;
          const TaskId other =
              dep.producer == victim ? dep.consumer : dep.producer;
          candidate.seeds.push_back(remap[static_cast<std::size_t>(other)]);
        }
        return candidate;
      };
      reject = run_ladder(make_base, *rebuilt);
      if (reject.empty()) new_graph = std::move(rebuilt);
      break;
    }
  }

  if (!reject.empty() || !patched.has_value()) {
    out.applied = false;
    out.reject_reason =
        reject.empty() ? std::string("event produced no state") : reject;
    finish();
    return out;
  }

  // The shed rung shrank the task graph — even for events that normally
  // keep it (WcetChange, ProcessorFailure).
  if (shed_graph) new_graph = std::move(shed_graph);
  shed_.insert(shed_.end(), out.shed.begin(), out.shed.end());

  out.applied = true;
  out.graph_rebuilt = (new_graph != nullptr);
  out.full_replace = patched->full_replace;
  out.repaired_tasks = static_cast<int>(patched->repaired.size());

  std::vector<TaskId> seeds = patched->seeds;
  seeds.insert(seeds.end(), patched->repaired.begin(),
               patched->repaired.end());

  // Commit. The swap keeps the pre-event graph alive in new_graph until
  // the migration diff below (the `pre` snapshot references it).
  if (new_graph) graph_.swap(new_graph);
  sched_ = std::move(patched->sched);
  occ_ = std::move(patched->occ);
  run_balance_stage(seeds, out);

  out.migrated_instances = count_migrations(pre(), *sched_, remap);
  finish();
  return out;
}

}  // namespace lbmem
