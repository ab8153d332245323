#include "lbmem/online/runner.hpp"

#include <algorithm>

#include "lbmem/validate/validator.hpp"

namespace lbmem {

namespace {

/// Fold one outcome into the trajectory aggregates.
void fold_outcome(OnlineReport& report, const EventOutcome& outcome) {
  if (outcome.applied) {
    ++report.applied;
    report.total_migrations += outcome.migrated_instances;
    report.total_repaired += outcome.repaired_tasks;
    report.total_balance_moves += outcome.balance_moves;
    report.total_balance_gain += outcome.balance_gain;
    report.dirty_blocks.record(outcome.dirty_blocks);
    switch (outcome.degraded_rung) {
      case 1: ++report.recovered_retry; break;
      case 2: ++report.recovered_replace; break;
      case 3: ++report.recovered_shed; break;
      default: break;
    }
  } else {
    ++report.rejected;
  }
  report.total_retries += outcome.degraded_retries;
  report.degraded_mode = std::max(report.degraded_mode, outcome.degraded_rung);
  report.shed.insert(report.shed.end(), outcome.shed.begin(),
                     outcome.shed.end());
  report.repair_latency_us.record(
      static_cast<std::int64_t>(outcome.wall_seconds * 1e6));
  report.peak_max_memory =
      std::max(report.peak_max_memory, outcome.max_memory);
  report.total_wall_seconds += outcome.wall_seconds;
  report.max_wall_seconds =
      std::max(report.max_wall_seconds, outcome.wall_seconds);
}

}  // namespace

int count_violations(const Rebalancer& system) {
  int violations =
      static_cast<int>(validate(system.schedule()).violations.size());
  const auto& failed = system.failed_procs();
  for (ProcId p = 0; p < static_cast<ProcId>(failed.size()); ++p) {
    if (failed[static_cast<std::size_t>(p)] &&
        !system.schedule().instances_on(p).empty()) {
      ++violations;
    }
  }
  return violations;
}

OnlineReport OnlineRunner::replay(Rebalancer& system,
                                  const EventTrace& trace) const {
  OnlineReport report;
  report.events.reserve(trace.size());
  report.violations.reserve(trace.size());
  report.peak_max_memory = system.schedule().max_memory();

  for (const Event& event : trace) {
    EventOutcome outcome = system.apply(event);
    const int violations = count_violations(system);
    report.total_violations += violations;
    fold_outcome(report, outcome);
    report.events.push_back(std::move(outcome));
    report.violations.push_back(violations);
  }

  report.final_makespan = system.schedule().makespan();
  report.final_max_memory = system.schedule().max_memory();
  return report;
}

}  // namespace lbmem
