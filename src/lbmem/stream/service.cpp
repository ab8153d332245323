#include "lbmem/stream/service.hpp"

#include <algorithm>
#include <utility>

#include "lbmem/util/check.hpp"
#include "lbmem/util/stopwatch.hpp"
#include "lbmem/validate/validator.hpp"

namespace lbmem {

namespace {

/// A queued event plus its admission metadata (for the queueing-delay
/// histograms). Carried through coalescing via coalesce_events' `kept`
/// index map.
struct Pending {
  Event event;
  double admit_wall_us = 0.0;
  std::int64_t admit_cycle = 0;
};

/// The stream.* metric ids, registered idempotently against the caller's
/// registry (DESIGN.md F25 naming + class split).
struct StreamMetrics {
  explicit StreamMetrics(obs::Registry& reg)
      : events_in(reg.counter("stream.events_in")),
        admitted(reg.counter("stream.admitted")),
        coalesced(reg.counter("stream.coalesced")),
        batches(reg.counter("stream.batches")),
        shed_on_overflow(reg.counter("stream.shed_on_overflow")),
        cycles(reg.counter("stream.cycles")),
        escalations(reg.counter("stream.escalations")),
        batch_events(reg.histogram("stream.batch_events")),
        queue_delay_cycles(reg.histogram("stream.queue_delay_cycles")),
        queue_delay_us(reg.histogram("stream.queue_delay_us",
                                     obs::MetricClass::Timing)),
        batch_repair_us(reg.histogram("stream.batch_repair_us",
                                      obs::MetricClass::Timing)) {}

  obs::MetricId events_in, admitted, coalesced, batches, shed_on_overflow,
      cycles, escalations, batch_events, queue_delay_cycles, queue_delay_us,
      batch_repair_us;
};

void accumulate(CoalesceStats& total, const CoalesceStats& pass) {
  // `in`/`out` describe one pass over a queue that persists across passes;
  // summing them would double-count survivors. Only the drop rules — which
  // fire at most once per dropped event — accumulate meaningfully.
  total.last_write_wins += pass.last_write_wins;
  total.folded += pass.folded;
  total.annihilated += pass.annihilated;
  total.subsumed += pass.subsumed;
}

}  // namespace

StreamService::StreamService(StreamOptions options)
    : options_(options) {
  LBMEM_REQUIRE(options_.cycle_ticks > 0, "cycle_ticks must be positive");
  LBMEM_REQUIRE(options_.batch_max > 0, "batch_max must be positive");
  LBMEM_REQUIRE(options_.budget_us >= 0, "budget_us must be >= 0");
  LBMEM_REQUIRE(options_.overload_backlog >= 0,
                "overload_backlog must be >= 0");
}

StreamReport StreamService::serve(Rebalancer& system, const EventTrace& trace,
                                  const ProgressFn& progress,
                                  std::int64_t progress_every) const {
  for (std::size_t i = 1; i < trace.size(); ++i) {
    LBMEM_REQUIRE(trace[i].at >= trace[i - 1].at,
                  "trace arrival ticks must be non-decreasing");
  }

  StreamReport report;
  std::unique_ptr<StreamMetrics> metrics;
  if (options_.metrics != nullptr) {
    metrics = std::make_unique<StreamMetrics>(*options_.metrics);
  }

  const std::size_t shed_before = system.shed_tasks().size();
  const bool degraded_configured = system.degraded_enabled();
  bool degraded_armed = false;

  std::vector<Pending> pending;
  std::int64_t failures_pending = 0;
  std::size_t next = 0;  // next trace event to admit
  Stopwatch wall;

  // Start the virtual clock at the window containing the first arrival.
  Time window_start = trace.empty()
                          ? 0
                          : (trace.front().at / options_.cycle_ticks) *
                                options_.cycle_ticks;

  while (next < trace.size() || !pending.empty()) {
    // Fast-forward over empty windows: virtual time is free.
    if (pending.empty() && next < trace.size() &&
        trace[next].at >= window_start + options_.cycle_ticks) {
      window_start =
          (trace[next].at / options_.cycle_ticks) * options_.cycle_ticks;
    }
    const Time window_end = window_start + options_.cycle_ticks;

    // ---- admission ------------------------------------------------------
    while (next < trace.size() && trace[next].at < window_end) {
      const Event& event = trace[next];
      ++next;
      ++report.events_in;
      if (metrics) options_.metrics->add(metrics->events_in);
      const bool is_failure = event.kind() == EventKind::ProcessorFailure;
      if (options_.queue_capacity > 0 &&
          static_cast<int>(pending.size()) >= options_.queue_capacity &&
          !is_failure) {
        // Bounded queue: shed the incoming event (drop-newest never
        // reorders the queue, so shedding is deterministic). Failures are
        // exempt — a hardware fault cannot be dropped.
        ++report.shed_overflow;
        if (metrics) options_.metrics->add(metrics->shed_on_overflow);
        continue;
      }
      if (is_failure) ++failures_pending;
      pending.push_back(Pending{event, wall.micros(), report.cycles});
      ++report.admitted;
      if (metrics) options_.metrics->add(metrics->admitted);
    }

    // ---- overload escalation (DESIGN.md F33) ----------------------------
    const int backlog_in = static_cast<int>(pending.size());
    if (options_.overload_backlog > 0 && !degraded_armed &&
        backlog_in >= options_.overload_backlog) {
      system.set_degraded_enabled(true);
      degraded_armed = true;
      ++report.escalations;
      if (metrics) options_.metrics->add(metrics->escalations);
    }

    // ---- coalescing -----------------------------------------------------
    if (options_.coalesce && pending.size() > 1) {
      std::vector<Event> events;
      events.reserve(pending.size());
      for (const Pending& p : pending) events.push_back(p.event);
      CoalesceStats pass;
      std::vector<std::size_t> kept;
      std::vector<Event> survivors =
          coalesce_events(std::move(events), &pass, &kept);
      if (pass.dropped() > 0) {
        std::vector<Pending> compacted;
        compacted.reserve(survivors.size());
        for (std::size_t s = 0; s < survivors.size(); ++s) {
          Pending& origin = pending[kept[s]];
          compacted.push_back(Pending{std::move(survivors[s]),
                                      origin.admit_wall_us,
                                      origin.admit_cycle});
        }
        pending = std::move(compacted);
        report.coalesced += pass.dropped();
        accumulate(report.coalesce_detail, pass);
        if (metrics) {
          options_.metrics->add(metrics->coalesced, pass.dropped());
        }
        // Coalescing never drops failures (barrier rule), so
        // failures_pending is unchanged.
      }
    }

    // ---- budget-bounded drain (DESIGN.md F32) ---------------------------
    std::int64_t drained = 0;
    double batch_us = 0.0;
    bool budget_cut = false;
    std::size_t head = 0;  // drained prefix; compacted once after the loop
    while (head < pending.size()) {
      // A queued ProcessorFailure always flushes: the drain must run
      // through the last pending failure regardless of caps.
      if (failures_pending == 0) {
        if (drained >= options_.batch_max) break;
        if (options_.budget_us > 0 && drained >= 1 &&
            static_cast<std::int64_t>(batch_us) >= options_.budget_us) {
          budget_cut = true;
          break;
        }
      }
      Pending front = std::move(pending[head]);
      ++head;
      if (front.event.kind() == EventKind::ProcessorFailure) {
        --failures_pending;
      }

      Stopwatch repair;
      const EventOutcome outcome = system.apply(front.event);
      const double repair_us = repair.micros();
      batch_us += repair_us;
      ++drained;
      if (outcome.applied) {
        ++report.applied;
      } else {
        ++report.rejected;
      }

      const std::int64_t delay_us =
          static_cast<std::int64_t>(wall.micros() - front.admit_wall_us);
      const std::int64_t delay_cycles = report.cycles - front.admit_cycle;
      report.queue_delay_us.record(delay_us);
      report.queue_delay_cycles.record(delay_cycles);
      if (metrics) {
        options_.metrics->record(metrics->queue_delay_us, delay_us);
        options_.metrics->record(metrics->queue_delay_cycles, delay_cycles);
      }
    }
    if (head > 0) {
      pending.erase(pending.begin(),
                    pending.begin() + static_cast<std::ptrdiff_t>(head));
    }
    if (drained > 0) {
      ++report.batches;
      report.batch_events.record(drained);
      report.batch_repair_us.record(static_cast<std::int64_t>(batch_us));
      if (metrics) {
        options_.metrics->add(metrics->batches);
        options_.metrics->record(metrics->batch_events, drained);
        options_.metrics->record(metrics->batch_repair_us,
                                 static_cast<std::int64_t>(batch_us));
      }
    }
    if (budget_cut) ++report.budget_exhausted;

    // ---- overload hysteresis: disarm at half the mark -------------------
    if (degraded_armed &&
        static_cast<int>(pending.size()) <= options_.overload_backlog / 2) {
      system.set_degraded_enabled(degraded_configured);
      degraded_armed = false;
    }

    ++report.cycles;
    if (metrics) options_.metrics->add(metrics->cycles);
    report.horizon = window_end;
    window_start = window_end;

    if (progress && progress_every > 0 &&
        report.cycles % progress_every == 0) {
      StreamProgress snap;
      snap.cycle = report.cycles;
      snap.now = window_end;
      snap.events_in = report.events_in;
      snap.applied = report.applied;
      snap.rejected = report.rejected;
      snap.coalesced = report.coalesced;
      snap.shed_overflow = report.shed_overflow;
      snap.backlog = static_cast<int>(pending.size());
      snap.degraded_armed = degraded_armed;
      snap.queue_delay_p50_us = report.queue_delay_us.percentile(50.0);
      snap.queue_delay_p99_us = report.queue_delay_us.percentile(99.0);
      progress(snap);
    }
  }

  // Restore the engine's configured ladder setting no matter where the
  // backlog ended.
  if (degraded_armed) system.set_degraded_enabled(degraded_configured);

  report.wall_seconds = wall.seconds();
  const std::int64_t drained_total = report.applied + report.rejected;
  report.events_per_second =
      report.wall_seconds > 0.0
          ? static_cast<double>(drained_total) / report.wall_seconds
          : 0.0;

  report.final_makespan = system.schedule().makespan();
  report.final_max_memory = system.schedule().max_memory();
  report.alive_tasks = static_cast<int>(system.graph().task_count());
  report.alive_procs = system.alive_processor_count();
  report.shed_tasks.assign(system.shed_tasks().begin() +
                               static_cast<std::ptrdiff_t>(shed_before),
                           system.shed_tasks().end());

  if (options_.validate_final) {
    int violations =
        static_cast<int>(validate(system.schedule()).violations.size());
    // A failed processor must host nothing — a rule the validator cannot
    // know about (same check as OnlineRunner's per-event validation).
    const auto& failed = system.failed_procs();
    for (ProcId p = 0; p < static_cast<ProcId>(failed.size()); ++p) {
      if (failed[static_cast<std::size_t>(p)] &&
          !system.schedule().instances_on(p).empty()) {
        ++violations;
      }
    }
    report.final_violations = violations;
  }
  return report;
}

}  // namespace lbmem
