#pragma once
/// \file task.hpp
/// \brief Task and dependence descriptions (paper Section 3.1).

#include <string>

#include "lbmem/model/types.hpp"

namespace lbmem {

/// A strictly periodic, non-preemptive task.
///
/// Strict periodicity (paper Section 1): if the first instance starts at S,
/// instance k starts exactly at S + k*period — the scheduler chooses S once
/// and every instance is pinned relative to it.
struct Task {
  /// Human-readable name (unique within a TaskGraph).
  std::string name;
  /// Strict period T (ticks), > 0.
  Time period = 0;
  /// Worst-case execution time E (ticks), 0 < wcet <= period.
  Time wcet = 0;
  /// Required memory amount m: data space the task needs on whichever
  /// processor executes it (per instance; see DESIGN.md Section 6).
  Mem memory = 0;
};

/// A data dependence "producer ≺ consumer" (paper: a ≺ b).
///
/// Dependent tasks must have harmonic periods (one divides the other,
/// paper Sections 3.1/4). The multi-rate consumption rule is implemented in
/// TaskGraph::consumed_range().
struct Dependence {
  TaskId producer = -1;
  TaskId consumer = -1;
  /// Size of the datum transferred per producer instance; feeds the
  /// communication-time model ("the larger the task, the longer the
  /// transfer time", paper Section 3.1).
  Mem data_size = 1;
};

}  // namespace lbmem
