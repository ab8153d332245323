#pragma once
/// \file event_trace.hpp
/// \brief Seeded random event-trace generator for the online engine.
///
/// Produces plausible runtime histories over a base application: mode
/// changes (WCET re-estimates) dominate, task arrivals/removals model
/// software updates, and rare processor failures model hardware faults.
/// The generator tracks the alive task set and the failed processor set so
/// every emitted event is *structurally* well-formed (arrival producers
/// are alive and harmonic, removals never empty the system, failures never
/// kill the last processor). Whether an event is *schedulable* is decided
/// by the Rebalancer at replay time — traces may contain events the system
/// rightfully rejects.
///
/// Generation is deterministic per (params, seed) across platforms
/// (lbmem::Rng), so replays are reproducible.

#include <cstdint>

#include "lbmem/arch/architecture.hpp"
#include "lbmem/model/task_graph.hpp"
#include "lbmem/online/event.hpp"
#include "lbmem/util/rng.hpp"

namespace lbmem {

/// How inter-arrival times between consecutive events are drawn. The
/// timestamps give a trace a *rate*, not just an order — the streaming
/// service (stream/service.hpp) admits events by arrival tick, so the
/// distribution decides how bursty the offered load is.
enum class ArrivalModel {
  /// Legacy default: one uniform draw in [min_gap, max_gap] per event.
  /// This is byte-identical to the pre-stream generator (same single Rng
  /// draw at the same stream position), so existing seeded traces and the
  /// replay goldens are unchanged.
  UniformGap,
  /// Memoryless (Poisson process): exponential inter-arrival times with
  /// mean `mean_gap` ticks, rounded to the tick grid (minimum gap 0 —
  /// simultaneous arrivals are legal and exercise the coalescer).
  Poisson,
  /// Two-state bursty traffic: runs of `burst_len_min..burst_len_max`
  /// events spaced `burst_gap` ticks apart, separated by idle gaps drawn
  /// uniformly from [idle_gap_min, idle_gap_max] — the arrival-side
  /// analogue of the Gilbert–Elliott noise bursts (DESIGN.md F27).
  Bursty,
};

/// Tunable trace-generator parameters.
struct EventTraceParams {
  /// Number of events to emit.
  int events = 16;
  /// Relative weights of the four event kinds (need not sum to 1).
  double arrival_weight = 0.25;
  double removal_weight = 0.15;
  double wcet_weight = 0.5;
  double failure_weight = 0.1;
  /// Cap on processor failures over the whole trace; additionally at least
  /// one processor always stays alive.
  int max_failures = 1;
  /// Maximum producers wired to an arriving task.
  int max_producers = 2;
  /// Memory range of arriving tasks.
  Mem mem_min = 1;
  Mem mem_max = 12;
  /// Data-size range of arriving tasks' dependences.
  Mem data_min = 1;
  Mem data_max = 6;
  /// Inter-arrival model for the `at` tick stamped on every event (the
  /// streaming service's arrival clock). UniformGap reproduces the legacy
  /// generator byte for byte.
  ArrivalModel arrival = ArrivalModel::UniformGap;
  /// UniformGap: inter-arrival gap range.
  Time min_gap = 1;
  Time max_gap = 64;
  /// Poisson: mean inter-arrival gap in ticks (> 0).
  double mean_gap = 16.0;
  /// Bursty: events per burst, intra-burst gap, and the idle gap range
  /// between bursts.
  int burst_len_min = 4;
  int burst_len_max = 16;
  Time burst_gap = 1;
  Time idle_gap_min = 64;
  Time idle_gap_max = 256;
};

/// Generate a trace over \p base running on \p arch. Deterministic in
/// (params, seed). Arriving tasks reuse periods already present in the
/// base application (the paper's Section-4 observation that realistic
/// systems draw from a small sensor-imposed period set), which also keeps
/// the hyper-period stable along typical traces. Throws PreconditionError,
/// naming the event, when an arrival gap is not a representable tick
/// count or would carry the clock past the largest Time.
EventTrace random_event_trace(const TaskGraph& base, const Architecture& arch,
                              const EventTraceParams& params,
                              std::uint64_t seed);

}  // namespace lbmem
