#pragma once
/// \file service.hpp
/// \brief The streaming event service: a sustained-traffic front end over
/// the online Rebalancer.
///
/// The replay harness (online/runner.hpp) applies one event at a time —
/// a debugging tool, not a server. The StreamService models what a
/// production deployment actually faces: events *arrive* on a clock
/// (Event::at ticks, stamped by gen/event_trace's arrival models), queue
/// while the repair engine is busy, and must be admitted, coalesced and
/// drained under an explicit latency budget (DESIGN.md F32):
///
///  1. **Admission** — the service advances through virtual time in
///     fixed-width cycles (`cycle_ticks`). Every event whose arrival tick
///     falls inside the current window is admitted into a *bounded*
///     pending queue; when the queue is full, the newest non-failure
///     event is shed — deterministically (drop-newest never reorders the
///     queue) and observably (`shed_on_overflow` counter, per-event
///     accounting in the report). ProcessorFailures are never shed:
///     ignoring a hardware fault does not make it go away.
///  2. **Coalescing** — the pending queue is collapsed by the
///     deterministic coalescer (stream/coalescer.hpp) before repair, so
///     redundant events (stale WCET estimates, arrive-then-leave tasks)
///     never pay for a repair at all.
///  3. **Budget-bounded drain** — up to `batch_max` surviving events are
///     applied through the Rebalancer, stopping early once the cycle has
///     spent `budget_us` of measured repair wall time. At least one event
///     always drains per non-empty cycle (guaranteed progress), and a
///     pending ProcessorFailure always flushes the batch: the drain runs
///     through the last queued failure regardless of budget, because a
///     failed processor must never keep hosting work across a cycle.
///  4. **Overload escalation** — when the backlog crosses
///     `overload_backlog`, the service arms the degraded-mode repair
///     ladder on the engine (widened retries → re-place → shed) and
///     restores the engine's configured setting once the backlog falls
///     to half the mark (hysteresis, DESIGN.md F33).
///
/// Queueing delay and repair latency are reported *separately*: tail
/// responsiveness is dominated by time spent waiting, which a
/// repair-latency histogram alone would hide. Both wall-clock histograms
/// are Timing-class; the deterministic counterparts (queue delay in
/// cycles, batch sizes, all counters) are byte-identical across thread
/// counts (DESIGN.md F25).

#include <functional>

#include "lbmem/obs/metrics.hpp"
#include "lbmem/online/rebalancer.hpp"
#include "lbmem/stream/coalescer.hpp"

namespace lbmem {

/// Streaming-service configuration.
struct StreamOptions {
  /// Width of one admission window in virtual ticks (> 0). Everything
  /// arriving inside a window is eligible for the same coalescing pass.
  Time cycle_ticks = 64;
  /// Bound of the pending queue; admission past it sheds the incoming
  /// event (failures exempt). <= 0 means unbounded.
  int queue_capacity = 4096;
  /// Most events drained (applied) in one cycle (> 0).
  int batch_max = 256;
  /// Per-cycle repair budget in microseconds of measured wall time; the
  /// drain stops once the cycle has spent it (min one event, and a queued
  /// failure always flushes). 0 = unbounded.
  std::int64_t budget_us = 0;
  /// Collapse the pending queue with the coalescer before each drain.
  bool coalesce = true;
  /// Backlog high-water mark that arms the degraded-mode repair ladder on
  /// the engine; disarmed again at half the mark. 0 = never escalate.
  int overload_backlog = 0;
  /// Validate the final schedule (validate/ + failed-processor emptiness).
  bool validate_final = true;
  /// Observability sink (DESIGN.md F25): stream.* counters and the
  /// queue-delay / batch-repair histograms. Must outlive the call.
  obs::Registry* metrics = nullptr;
};

/// Periodic progress snapshot handed to the serve loop's stats callback.
struct StreamProgress {
  std::int64_t cycle = 0;     ///< cycles completed so far
  Time now = 0;               ///< virtual clock (end of current window)
  std::int64_t events_in = 0;
  std::int64_t applied = 0;
  std::int64_t rejected = 0;
  std::int64_t coalesced = 0;
  std::int64_t shed_overflow = 0;
  int backlog = 0;            ///< pending events after this cycle
  bool degraded_armed = false;
  std::int64_t queue_delay_p50_us = 0;
  std::int64_t queue_delay_p99_us = 0;
};

/// Aggregates of one serve() run.
struct StreamReport {
  // Traffic accounting (Deterministic).
  std::int64_t events_in = 0;       ///< events offered by the trace
  std::int64_t admitted = 0;        ///< entered the pending queue
  std::int64_t shed_overflow = 0;   ///< dropped at admission (queue full)
  std::int64_t coalesced = 0;       ///< removed by coalescing before repair
  CoalesceStats coalesce_detail;    ///< per-rule drop totals
  std::int64_t batches = 0;         ///< drain batches executed
  std::int64_t cycles = 0;          ///< admission windows processed
  std::int64_t applied = 0;         ///< events the engine accepted
  std::int64_t rejected = 0;        ///< events the engine rejected
  std::int64_t deferred = 0;        ///< always 0; perfbench still reads it
  std::int64_t escalations = 0;     ///< overload -> ladder armed flips
  std::int64_t budget_exhausted = 0;  ///< cycles cut short by the budget
  /// Deterministic latency/size distributions.
  obs::LatencyHistogram queue_delay_cycles;  ///< cycles waited before drain
  obs::LatencyHistogram batch_events;        ///< batch size after coalescing
  /// Wall-clock distributions (Timing class; stripped by --timing=off).
  obs::LatencyHistogram queue_delay_us;   ///< admission -> repair complete
  obs::LatencyHistogram batch_repair_us;  ///< repair time per batch
  double wall_seconds = 0.0;
  /// Drained events (applied + rejected) per wall second.
  double events_per_second = 0.0;
  // Final system state.
  Time horizon = 0;  ///< virtual tick of the last processed window
  Time final_makespan = 0;
  Mem final_max_memory = 0;
  int alive_tasks = 0;
  int alive_procs = 0;
  /// Tasks dropped by the ladder's shed rung during the run.
  std::vector<std::string> shed_tasks;
  /// Validator violations of the final schedule (0 for a correct engine;
  /// -1 when validation was disabled).
  int final_violations = -1;
};

/// The streaming service. Owns nothing: it drives a caller-provided
/// Rebalancer (whose configuration decides repair policy) and restores
/// the engine's degraded-ladder setting before returning.
class StreamService {
 public:
  explicit StreamService(StreamOptions options = {});

  using ProgressFn = std::function<void(const StreamProgress&)>;

  /// Serve \p trace (arrival ticks must be non-decreasing) against
  /// \p system until both the trace and the pending queue are empty.
  /// \p progress, when set, is invoked with `progress_every > 0` cycle
  /// granularity — see serve()'s second overload.
  StreamReport serve(Rebalancer& system, const EventTrace& trace,
                     const ProgressFn& progress = {},
                     std::int64_t progress_every = 0) const;

  const StreamOptions& options() const { return options_; }

 private:
  StreamOptions options_;
};

}  // namespace lbmem
