#include "lbmem/gen/event_trace.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "lbmem/util/check.hpp"

namespace lbmem {

namespace {

/// The generator's view of one alive task (enough to produce well-formed
/// removals, WCET changes and harmonic arrival dependences).
struct AliveTask {
  std::string name;
  Time period;
};

bool harmonic(Time a, Time b) { return a % b == 0 || b % a == 0; }

constexpr Time kMaxTime = std::numeric_limits<Time>::max();

/// "event K of N", 1-based like the replay and serve tables.
std::string event_label(int index, int events) {
  return "event " + std::to_string(index + 1) + " of " +
         std::to_string(events);
}

/// Stateful inter-arrival clock for the configured ArrivalModel. The
/// UniformGap path makes exactly the one rng.uniform(min_gap, max_gap)
/// draw per event the legacy generator made, at the same position in the
/// Rng stream, so default-parameter traces are byte-identical.
class ArrivalClock {
 public:
  ArrivalClock(const EventTraceParams& params, Rng& rng)
      : params_(params), rng_(rng) {}

  /// Gap between the previous event and event \p index (>= 0 ticks).
  Time next_gap(int index) {
    switch (params_.arrival) {
      case ArrivalModel::UniformGap:
        return rng_.uniform(params_.min_gap, params_.max_gap);
      case ArrivalModel::Poisson: {
        // Exponential inter-arrival with mean mean_gap, rounded to the
        // tick grid. uniform01() < 1, so the log argument stays positive.
        // The draw is checked before rounding: llround has no defined
        // result past the Time range, which a huge mean_gap reaches.
        const double u = rng_.uniform01();
        const double gap = -params_.mean_gap * std::log(1.0 - u);
        LBMEM_REQUIRE(gap >= 0.0 && gap < static_cast<double>(kMaxTime),
                      "random_event_trace: " +
                          event_label(index, params_.events) +
                          " draws a Poisson gap that is not a "
                          "representable tick count");
        return static_cast<Time>(std::llround(gap));
      }
      case ArrivalModel::Bursty: {
        if (burst_left_ <= 0) {
          // Start a new burst after an idle gap.
          burst_left_ = static_cast<int>(rng_.uniform(
              params_.burst_len_min, params_.burst_len_max));
          --burst_left_;
          return rng_.uniform(params_.idle_gap_min, params_.idle_gap_max);
        }
        --burst_left_;
        return params_.burst_gap;
      }
    }
    return 0;
  }

 private:
  const EventTraceParams& params_;
  Rng& rng_;
  int burst_left_ = 0;  ///< events remaining in the current burst
};

}  // namespace

EventTrace random_event_trace(const TaskGraph& base, const Architecture& arch,
                              const EventTraceParams& params,
                              std::uint64_t seed) {
  LBMEM_REQUIRE(params.events >= 0, "event count must be non-negative");
  LBMEM_REQUIRE(params.mem_min >= 0 && params.mem_min <= params.mem_max,
                "invalid memory range");
  LBMEM_REQUIRE(params.data_min > 0 && params.data_min <= params.data_max,
                "invalid data-size range");
  LBMEM_REQUIRE(params.min_gap >= 0 && params.min_gap <= params.max_gap,
                "invalid gap range");
  LBMEM_REQUIRE(params.mean_gap > 0.0, "mean_gap must be positive");
  LBMEM_REQUIRE(params.burst_len_min >= 1 &&
                    params.burst_len_min <= params.burst_len_max,
                "invalid burst length range");
  LBMEM_REQUIRE(params.burst_gap >= 0, "burst_gap must be non-negative");
  LBMEM_REQUIRE(params.idle_gap_min >= 0 &&
                    params.idle_gap_min <= params.idle_gap_max,
                "invalid idle gap range");
  Rng rng(seed);
  ArrivalClock clock(params, rng);

  std::vector<AliveTask> alive;
  alive.reserve(base.task_count());
  for (const Task& task : base.tasks()) {
    alive.push_back(AliveTask{task.name, task.period});
  }
  // Periods the base application uses (the arrival pool), deduplicated.
  std::vector<Time> periods;
  for (const Task& task : base.tasks()) periods.push_back(task.period);
  std::sort(periods.begin(), periods.end());
  periods.erase(std::unique(periods.begin(), periods.end()), periods.end());

  std::vector<std::uint8_t> failed(
      static_cast<std::size_t>(arch.processor_count()), 0);
  int failures = 0;
  int next_dyn = 0;

  EventTrace trace;
  trace.reserve(static_cast<std::size_t>(params.events));
  Time now = 0;

  const std::array<double, 4> weights = {
      params.arrival_weight, params.removal_weight, params.wcet_weight,
      params.failure_weight};

  for (int i = 0; i < params.events; ++i) {
    const Time gap = clock.next_gap(i);
    LBMEM_REQUIRE(gap <= kMaxTime - now,
                  "random_event_trace: " + event_label(i, params.events) +
                      " carries the arrival clock past the largest tick");
    now += gap;
    std::size_t kind = rng.pick_weighted(weights);

    // Degrade structurally impossible picks to a WCET change, the one kind
    // that is always available (the alive set is never empty).
    if (kind == 1 && alive.size() <= 1) kind = 2;
    if (kind == 3 &&
        (failures >= params.max_failures ||
         failures + 1 >= arch.processor_count())) {
      kind = 2;
    }

    Event event;
    event.at = now;
    switch (kind) {
      case 0: {  // arrival
        NewTaskSpec spec;
        spec.name = "dyn" + std::to_string(next_dyn++);
        spec.period = periods[static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(periods.size()) - 1))];
        spec.wcet = rng.uniform(1, std::max<Time>(1, spec.period / 4));
        spec.memory = rng.uniform(params.mem_min, params.mem_max);
        // Wire up to max_producers harmonic producers from the alive set.
        std::vector<std::size_t> candidates;
        for (std::size_t a = 0; a < alive.size(); ++a) {
          if (harmonic(alive[a].period, spec.period)) candidates.push_back(a);
        }
        rng.shuffle(candidates);
        const std::size_t wanted = static_cast<std::size_t>(rng.uniform(
            0, std::min<std::int64_t>(params.max_producers,
                                      static_cast<std::int64_t>(
                                          candidates.size()))));
        for (std::size_t c = 0; c < wanted; ++c) {
          spec.producers.push_back(NewTaskSpec::Producer{
              alive[candidates[c]].name,
              rng.uniform(params.data_min, params.data_max)});
        }
        alive.push_back(AliveTask{spec.name, spec.period});
        event.payload = TaskArrival{std::move(spec)};
        break;
      }
      case 1: {  // removal
        const std::size_t victim = static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(alive.size()) - 1));
        event.payload = TaskRemoval{alive[victim].name};
        alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(victim));
        break;
      }
      case 2: {  // wcet change
        const AliveTask& task = alive[static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(alive.size()) - 1))];
        const Time wcet =
            rng.uniform(1, std::max<Time>(1, task.period / 4));
        event.payload = WcetChange{task.name, wcet};
        break;
      }
      default: {  // failure
        std::vector<ProcId> up;
        for (ProcId p = 0; p < arch.processor_count(); ++p) {
          if (!failed[static_cast<std::size_t>(p)]) up.push_back(p);
        }
        const ProcId victim = up[static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(up.size()) - 1))];
        failed[static_cast<std::size_t>(victim)] = 1;
        ++failures;
        event.payload = ProcessorFailure{victim};
        break;
      }
    }
    trace.push_back(std::move(event));
  }
  return trace;
}

}  // namespace lbmem
