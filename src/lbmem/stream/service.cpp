#include "lbmem/stream/service.hpp"

#include <limits>
#include <string>
#include <utility>

#include "lbmem/online/runner.hpp"
#include "lbmem/stream/coalescer.hpp"
#include "lbmem/util/check.hpp"
#include "lbmem/util/stopwatch.hpp"

namespace lbmem {

namespace {

/// A queued event plus its admission metadata (for the queueing-delay
/// histograms). Carried through coalescing by compacting the queue onto
/// coalesce_events' survivor indices.
struct Pending {
  Event event;
  double admit_wall_us = 0.0;
  std::int64_t admit_cycle = 0;
};

/// One fold per serve() (DESIGN.md F25 naming + class split), as the
/// balancer, the simulator and the online engine fold theirs: the report
/// counts every stream.* figure, and the registry receives them here.
void fold_stream(obs::Registry& reg, const StreamReport& report) {
  reg.add(reg.counter("stream.events_in"), report.events_in);
  reg.add(reg.counter("stream.admitted"), report.admitted);
  reg.add(reg.counter("stream.coalesced"), report.coalesced);
  reg.add(reg.counter("stream.batches"), report.batches);
  reg.add(reg.counter("stream.shed_on_overflow"), report.shed_overflow);
  reg.add(reg.counter("stream.cycles"), report.cycles);
  reg.add(reg.counter("stream.escalations"), report.escalations);
  reg.merge(reg.histogram("stream.batch_events"), report.batch_events);
  reg.merge(reg.histogram("stream.queue_delay_cycles"),
            report.queue_delay_cycles);
  reg.merge(reg.histogram("stream.queue_delay_us", obs::MetricClass::Timing),
            report.queue_delay_us);
  reg.merge(
      reg.histogram("stream.batch_repair_us", obs::MetricClass::Timing),
      report.batch_repair_us);
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
  if (!trace.empty()) {
    // The clock runs at most (events + 1) cycles past the last arrival:
    // every cycle after the last admission drains at least one event.
    constexpr Time kMaxTime = std::numeric_limits<Time>::max();
    const Time cycles = static_cast<Time>(trace.size()) + 1;
    LBMEM_REQUIRE(cycles <= kMaxTime / options_.cycle_ticks &&
                      trace.back().at <=
                          kMaxTime - cycles * options_.cycle_ticks,
                  "trace arrival tick " + std::to_string(trace.back().at) +
                      " leaves less than " + std::to_string(cycles) +
                      " cycles of " + std::to_string(options_.cycle_ticks) +
                      " ticks before the clock overflows");
  }

  StreamReport report;

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
      const bool is_failure = event.kind() == EventKind::ProcessorFailure;
      if (options_.queue_capacity > 0 &&
          static_cast<int>(pending.size()) >= options_.queue_capacity &&
          !is_failure) {
        // Bounded queue: shed the incoming event (drop-newest never
        // reorders the queue, so shedding is deterministic). Failures are
        // exempt — a hardware fault cannot be dropped.
        ++report.shed_overflow;
        continue;
      }
      if (is_failure) ++failures_pending;
      pending.push_back(Pending{event, wall.micros(), report.cycles});
      ++report.admitted;
    }

    // ---- overload escalation (DESIGN.md F33) ----------------------------
    const int backlog_in = static_cast<int>(pending.size());
    if (options_.overload_backlog > 0 && !degraded_armed &&
        backlog_in >= options_.overload_backlog) {
      system.set_degraded_enabled(true);
      degraded_armed = true;
      ++report.escalations;
    }

    // ---- coalescing -----------------------------------------------------
    if (options_.coalesce && pending.size() > 1) {
      std::vector<Event> events;
      events.reserve(pending.size());
      for (const Pending& p : pending) events.push_back(p.event);
      const std::vector<std::size_t> survivors = coalesce_events(events);
      const auto dropped = static_cast<std::int64_t>(pending.size() -
                                                     survivors.size());
      if (dropped > 0) {
        // Survivor indices ascend and survivors[s] >= s, so compacting in
        // place never overwrites a survivor not yet moved.
        for (std::size_t s = 0; s < survivors.size(); ++s) {
          if (survivors[s] != s) pending[s] = std::move(pending[survivors[s]]);
        }
        pending.erase(pending.begin() +
                          static_cast<std::ptrdiff_t>(survivors.size()),
                      pending.end());
        report.coalesced += dropped;
        // Coalescing only drops WcetChanges, so failures_pending is
        // unchanged.
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
    }
    if (head > 0) {
      pending.erase(pending.begin(),
                    pending.begin() + static_cast<std::ptrdiff_t>(head));
    }
    if (drained > 0) {
      ++report.batches;
      report.batch_events.record(drained);
      report.batch_repair_us.record(static_cast<std::int64_t>(batch_us));
    }
    if (budget_cut) ++report.budget_exhausted;

    // ---- overload hysteresis: disarm at half the mark -------------------
    if (degraded_armed &&
        static_cast<int>(pending.size()) <= options_.overload_backlog / 2) {
      system.set_degraded_enabled(degraded_configured);
      degraded_armed = false;
    }

    ++report.cycles;
    report.horizon = window_end;
    window_start = window_end;

    if (progress && progress_every > 0 &&
        report.cycles % progress_every == 0) {
      progress(report, static_cast<int>(pending.size()), degraded_armed);
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
    report.final_violations = count_violations(system);
  }
  if (options_.metrics != nullptr) fold_stream(*options_.metrics, report);
  return report;
}

}  // namespace lbmem
