#include "lbmem/sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "lbmem/obs/metrics.hpp"
#include "lbmem/obs/trace.hpp"
#include "lbmem/sim/bus.hpp"
#include "lbmem/util/check.hpp"

namespace lbmem {

namespace {

struct ExecEvent {
  Time at;
  enum class Kind { End = 0, Start = 1 } kind;  // ends before starts at a tick
  TaskInstance inst;
  ProcId proc;
  Time end;  ///< the instance's (actual) completion, for overlap records
};

struct BufferEvent {
  Time at;
  Mem delta;  // +size on arrival, -size on consumption
};

/// An instance currently executing on a processor (overlap sweep state).
struct RunningInst {
  TaskInstance inst;
  Time end;
};

/// One consumed datum: producer -> consumer, with its (possibly perturbed)
/// arrival. Collected in window/edge order so violation records and buffer
/// events are emitted deterministically regardless of the bus mode.
struct PendingDatum {
  TaskInstance producer;
  TaskInstance consumer;
  ProcId consumer_proc = kNoProc;
  Time consumer_start = 0;
  Time consumer_end = 0;  ///< actual completion (buffer release point)
  Time arrival = 0;       ///< -1: never (producer lost)
  Mem size = 0;
  bool local = false;
  std::int64_t fifo_key = -1;  ///< index into the FIFO transfer table
};

std::uint64_t instance_key(TaskInstance inst) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(inst.task))
          << 32) |
         static_cast<std::uint32_t>(inst.k);
}

// One fold per executor run (DESIGN.md F25). Counts only — Deterministic
// class: for a fixed spec they are identical however the run is threaded.
// Names are registered on every fold so the emitted set is run-independent.
void fold_sim(obs::Registry& reg, const SimMetrics& m) {
  const auto runs =
      reg.counter("sim.runs", obs::MetricClass::Deterministic);
  const auto instances =
      reg.counter("sim.instances", obs::MetricClass::Deterministic);
  const auto violations =
      reg.counter("sim.violations", obs::MetricClass::Deterministic);
  const auto misses =
      reg.counter("sim.deadline_misses", obs::MetricClass::Deterministic);
  const auto lost =
      reg.counter("sim.lost_instances", obs::MetricClass::Deterministic);
  reg.add(runs, 1);
  reg.add(instances, m.total_instances);
  reg.add(violations, m.violations);
  reg.add(misses, m.deadline_misses);
  reg.add(lost, m.lost_instances);
}

/// Reject perturbation magnitudes under which an instance's end or a
/// processor's busy sum could pass the largest Time over windows
/// [first, first + count): simulate_perturbed adds its draws unchecked. An
/// instance runs at most WCET x (1 + jitter x storm factor) + stall ticks.
/// The error names the first of stall, jitter and storm factor that, added
/// to the bound in that order, breaks it.
void require_clock_headroom(const Schedule& sched, const PerturbSpec& perturb,
                            int first, int count) {
  __extension__ using Wide = __int128;
  constexpr Time kMaxTime = std::numeric_limits<Time>::max();
  const TaskGraph& graph = sched.graph();
  const Wide last_offset =
      static_cast<Wide>(graph.hyperperiod()) * (first + count - 1);
  const auto fits = [&](double jitter, Time stall) {
    std::vector<Wide> busy(
        static_cast<std::size_t>(sched.architecture().processor_count()), 0);
    for (const TaskInstance inst : sched.all_instances()) {
      const Time wcet = graph.task(inst.task).wcet;
      // llround(wcet x jitter x u) with u < 1 never exceeds this ceiling.
      const double overrun = static_cast<double>(wcet) * jitter;
      if (!(overrun < static_cast<double>(kMaxTime))) return false;
      const Wide run = static_cast<Wide>(wcet) +
                       static_cast<Time>(std::ceil(overrun)) + stall;
      Wide& on_proc = busy[static_cast<std::size_t>(sched.proc(inst))];
      on_proc += run * count;
      if (sched.start(inst) + last_offset + run > kMaxTime ||
          on_proc > kMaxTime) {
        return false;
      }
    }
    return true;
  };
  const double jitter = perturb.wcet_jitter > 0.0 ? perturb.wcet_jitter : 0.0;
  const GilbertElliott& burst = perturb.wcet_burst;
  // The largest jitter an instance draws with: a storm scales it.
  const double stormy =
      jitter > 0.0 && burst.active() && !(burst.factor <= 1.0)
          ? jitter * burst.factor
          : jitter;
  const Time stall = perturb.stall_prob > 0.0 && perturb.stall_ticks > 0
                         ? perturb.stall_ticks
                         : 0;
  if (fits(stormy, stall)) return;
  const char* culprit = !fits(0.0, stall)    ? "stall_ticks"
                        : !fits(jitter, stall) ? "wcet_jitter"
                                               : "wcet_burst.factor";
  throw PreconditionError(std::string("perturbation ") + culprit +
                          " could carry an end time or a processor's busy "
                          "sum past the largest tick over " +
                          std::to_string(count) + " hyper-period(s)");
}

}  // namespace

SimMetrics simulate(const Schedule& sched, const SimOptions& options) {
  LBMEM_TRACE_SPAN("sim.execute");
  return simulate_perturbed(sched, options, PerturbSpec{}, 0);
}

SimMetrics simulate_perturbed(const Schedule& sched, const SimOptions& options,
                              const PerturbSpec& perturb,
                              int first_hyperperiod) {
  obs::ScopedSpan sim_span("sim.execute_perturbed", "sim");
  LBMEM_REQUIRE(sched.complete(), "simulate requires a complete schedule");
  LBMEM_REQUIRE(options.hyperperiods >= 1, "need at least one hyper-period");
  LBMEM_REQUIRE(first_hyperperiod >= 0, "window offset must be >= 0");

  const TaskGraph& graph = sched.graph();
  const Architecture& arch = sched.architecture();
  const Time h = graph.hyperperiod();
  const int reps = options.hyperperiods;

  const bool jitter_on = perturb.wcet_jitter > 0.0;
  const bool stall_on = perturb.stall_prob > 0.0 && perturb.stall_ticks > 0;
  if (jitter_on || stall_on) {
    require_clock_headroom(sched, perturb, first_hyperperiod, reps);
  }

  // Permanent failures: per-processor first fail tick (sentinel: never).
  constexpr Time kNever = std::numeric_limits<Time>::max();
  std::vector<Time> fail_time(
      static_cast<std::size_t>(arch.processor_count()), kNever);
  for (const ProcessorFault& f : perturb.all_failures()) {
    LBMEM_REQUIRE(f.proc >= 0 && f.proc < arch.processor_count(),
                  "injected failure names an unknown processor");
    fail_time[static_cast<std::size_t>(f.proc)] = f.at;
  }

  // Correlated bursts (DESIGN.md F27): each channel's Gilbert–Elliott
  // chain is evaluated once per absolute window; while it storms, the
  // channel's base intensity is scaled by its factor (probabilities clamp
  // at 1). The state is a pure function of (seed, channel, window), so a
  // stitched run sees the same storms as an unsplit one.
  const auto effective = [&perturb](std::uint64_t channel,
                                    const GilbertElliott& chain, double base,
                                    std::uint64_t abs_rep) {
    if (base <= 0.0 || !chain.active()) return base;
    if (!burst_storm(perturb.seed, channel, abs_rep, chain)) return base;
    return base * chain.factor;
  };

  SimMetrics metrics;
  metrics.procs.resize(static_cast<std::size_t>(arch.processor_count()));

  // ---- execution events over all repetitions ------------------------------
  // Actual completions are kept per (window, dense instance) so the data
  // pass can look up its producers' perturbed end times.
  const std::size_t dense = graph.total_instances();
  std::vector<Time> actual_end(static_cast<std::size_t>(reps) * dense, 0);
  std::vector<std::uint8_t> lost(static_cast<std::size_t>(reps) * dense, 0);

  std::vector<ExecEvent> events;
  const std::vector<TaskInstance> instances = sched.all_instances();
  Time last_end = 0;
  Time predicted_end = 0;
  for (int w = 0; w < reps; ++w) {
    const std::uint64_t abs_rep =
        static_cast<std::uint64_t>(first_hyperperiod + w);
    const Time offset = h * static_cast<Time>(first_hyperperiod + w);
    const double wcet_jitter_w =
        effective(kPerturbWcet, perturb.wcet_burst, perturb.wcet_jitter,
                  abs_rep);
    const double stall_prob_w = std::min(
        1.0, effective(kPerturbStall, perturb.stall_burst, perturb.stall_prob,
                       abs_rep));
    for (const TaskInstance inst : instances) {
      const Task& task = graph.task(inst.task);
      const ProcId p = sched.proc(inst);
      const Time s = sched.start(inst) + offset;
      const Time static_e = sched.end(inst) + offset;
      predicted_end = std::max(predicted_end, static_e);
      ++metrics.total_instances;
      const std::size_t slot =
          static_cast<std::size_t>(w) * dense + graph.dense_index(inst);
      if (s >= fail_time[static_cast<std::size_t>(p)]) {
        lost[slot] = 1;
        ++metrics.lost_instances;
        continue;
      }
      Time e = static_e;
      if (jitter_on) {
        const double u =
            perturb_unit(perturb.seed, kPerturbWcet, abs_rep,
                         instance_key(inst));
        e += static_cast<Time>(std::llround(
            static_cast<double>(task.wcet) * wcet_jitter_w * u));
      }
      if (stall_on && perturb_unit(perturb.seed, kPerturbStall, abs_rep,
                                   instance_key(inst)) < stall_prob_w) {
        e += perturb.stall_ticks;
      }
      actual_end[slot] = e;
      events.push_back(ExecEvent{s, ExecEvent::Kind::Start, inst, p, e});
      events.push_back(ExecEvent{e, ExecEvent::Kind::End, inst, p, e});
      last_end = std::max(last_end, e);
      metrics.procs[static_cast<std::size_t>(p)].busy += e - s;
      if (e > s + task.period) ++metrics.deadline_misses;
    }
  }
  metrics.span = last_end;
  metrics.predicted_span = predicted_end;
  // Fully deterministic order: ties among simultaneous events of the same
  // kind are broken by processor and instance, so violation records are
  // identical across platforms and library sort implementations.
  std::sort(events.begin(), events.end(),
            [](const ExecEvent& a, const ExecEvent& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.kind != b.kind) {
                return static_cast<int>(a.kind) < static_cast<int>(b.kind);
              }
              if (a.proc != b.proc) return a.proc < b.proc;
              if (a.inst.task != b.inst.task) return a.inst.task < b.inst.task;
              return a.inst.k < b.inst.k;
            });

  // Processor exclusivity check.
  std::vector<std::vector<RunningInst>> running(
      static_cast<std::size_t>(arch.processor_count()));
  for (const ExecEvent& ev : events) {
    auto& r = running[static_cast<std::size_t>(ev.proc)];
    if (ev.kind == ExecEvent::Kind::Start) {
      if (!r.empty()) {
        // Blocker: the running instance that occupies the processor
        // longest (latest end; ties broken by instance for determinism).
        const RunningInst* blocker = &r.front();
        for (const RunningInst& ri : r) {
          if (ri.end > blocker->end ||
              (ri.end == blocker->end &&
               (ri.inst.task < blocker->inst.task ||
                (ri.inst.task == blocker->inst.task &&
                 ri.inst.k < blocker->inst.k)))) {
            blocker = &ri;
          }
        }
        ++metrics.violations;
        ++metrics.overlap_violations;
        metrics.violation_records.push_back(
            SimViolation{SimViolation::Kind::Overlap, blocker->inst, ev.inst,
                         ev.at, blocker->end});
        metrics.violation_details.push_back(
            "processor busy when " + graph.task(ev.inst.task).name + "[" +
            std::to_string(ev.inst.k) + "] starts at " +
            std::to_string(ev.at));
      }
      r.push_back(RunningInst{ev.inst, ev.end});
    } else {
      for (std::size_t i = 0; i < r.size(); ++i) {
        if (r[i].inst.task == ev.inst.task && r[i].inst.k == ev.inst.k) {
          r.erase(r.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
    }
  }

  // ---- data arrivals and buffer occupancy ---------------------------------
  // Collect every consumed datum in window/edge order (the deterministic
  // emission order), then resolve remote arrivals — directly under the
  // fixed-delay model, or through the FIFO bus when contention is on.
  std::vector<PendingDatum> data;
  std::vector<FifoTransfer> fifo;
  for (int w = 0; w < reps; ++w) {
    const std::uint64_t abs_rep =
        static_cast<std::uint64_t>(first_hyperperiod + w);
    const Time offset = h * static_cast<Time>(first_hyperperiod + w);
    const double comm_jitter_w =
        effective(kPerturbComm, perturb.comm_burst, perturb.comm_jitter,
                  abs_rep);
    for (std::int32_t e = 0;
         e < static_cast<std::int32_t>(graph.dependence_count()); ++e) {
      const Dependence& dep =
          graph.dependences()[static_cast<std::size_t>(e)];
      const Time comm = sched.comm().transfer_time(dep.data_size);
      const InstanceIdx nc = graph.instance_count(dep.consumer);
      for (InstanceIdx k = 0; k < nc; ++k) {
        const TaskInstance consumer{dep.consumer, k};
        const std::size_t cslot = static_cast<std::size_t>(w) * dense +
                                  graph.dense_index(consumer);
        if (lost[cslot]) continue;  // never dispatched: no check, no buffer
        const ProcId cp = sched.proc(consumer);
        const Time consumer_start = sched.start(consumer) + offset;
        for (const InstanceIdx pk : graph.consumed_instances(e, k)) {
          const TaskInstance producer{dep.producer, pk};
          const std::size_t pslot = static_cast<std::size_t>(w) * dense +
                                    graph.dense_index(producer);
          PendingDatum datum;
          datum.producer = producer;
          datum.consumer = consumer;
          datum.consumer_proc = cp;
          datum.consumer_start = consumer_start;
          datum.consumer_end = actual_end[cslot];
          datum.size = dep.data_size;
          datum.local = (sched.proc(producer) == cp);
          if (lost[pslot]) {
            datum.arrival = -1;  // the datum is never produced
          } else if (datum.local) {
            datum.arrival = actual_end[pslot];
          } else {
            Time length = comm;
            if (perturb.comm_jitter > 0.0) {
              const double u = perturb_unit(
                  perturb.seed, kPerturbComm, abs_rep,
                  (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e))
                   << 32) |
                      static_cast<std::uint32_t>(k),
                  static_cast<std::uint64_t>(pk));
              length += static_cast<Time>(std::llround(
                  static_cast<double>(comm) * comm_jitter_w * u));
            }
            if (perturb.bus_fifo) {
              datum.fifo_key = static_cast<std::int64_t>(data.size());
              fifo.push_back(FifoTransfer{
                  actual_end[pslot], length,
                  static_cast<std::uint64_t>(data.size()), 0});
            } else {
              datum.arrival = actual_end[pslot] + length;
            }
          }
          data.push_back(datum);
        }
      }
    }
  }
  if (!fifo.empty()) {
    fifo_bus_schedule(fifo);
    for (const FifoTransfer& t : fifo) {
      data[static_cast<std::size_t>(t.key)].arrival = t.completion;
    }
  }

  // Buffers per processor; also checks arrival <= consumer start.
  std::vector<std::vector<BufferEvent>> buffer_events(
      static_cast<std::size_t>(arch.processor_count()));
  for (const PendingDatum& datum : data) {
    if (datum.arrival < 0 || datum.arrival > datum.consumer_start) {
      ++metrics.violations;
      ++metrics.data_violations;
      metrics.violation_records.push_back(
          SimViolation{SimViolation::Kind::DataNotReady, datum.producer,
                       datum.consumer, datum.consumer_start, datum.arrival});
      metrics.violation_details.push_back(
          "datum " + graph.task(datum.producer.task).name + "[" +
          std::to_string(datum.producer.k) + "] -> " +
          graph.task(datum.consumer.task).name + "[" +
          std::to_string(datum.consumer.k) + "]" +
          (datum.arrival < 0
               ? " never arrives (producer lost); consumer starts at " +
                     std::to_string(datum.consumer_start)
               : " arrives at " + std::to_string(datum.arrival) +
                     " after consumer start " +
                     std::to_string(datum.consumer_start)));
    }
    if (datum.arrival < 0) continue;  // never produced: occupies nothing
    if (datum.local && !options.count_local_buffers) continue;
    auto& bucket = buffer_events[static_cast<std::size_t>(datum.consumer_proc)];
    bucket.push_back(BufferEvent{datum.arrival, datum.size});
    bucket.push_back(BufferEvent{datum.consumer_end, -datum.size});
  }

  for (ProcId p = 0; p < arch.processor_count(); ++p) {
    auto& metricsp = metrics.procs[static_cast<std::size_t>(p)];
    metricsp.idle_fraction =
        1.0 - static_cast<double>(metricsp.busy) /
                  static_cast<double>(h * static_cast<Time>(reps));
    metricsp.static_memory = sched.memory_on(p);

    auto& bucket = buffer_events[static_cast<std::size_t>(p)];
    std::sort(bucket.begin(), bucket.end(),
              [](const BufferEvent& a, const BufferEvent& b) {
                if (a.at != b.at) return a.at < b.at;
                return a.delta < b.delta;  // frees before allocations
              });
    Mem level = 0;
    for (const BufferEvent& ev : bucket) {
      level += ev.delta;
      metricsp.peak_buffer = std::max(metricsp.peak_buffer, level);
    }
    metricsp.peak_total = metricsp.static_memory + metricsp.peak_buffer;
  }

  if (options.metrics != nullptr) fold_sim(*options.metrics, metrics);
  return metrics;
}

}  // namespace lbmem
