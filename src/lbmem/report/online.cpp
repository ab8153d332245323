#include "lbmem/report/online.hpp"

#include <sstream>

#include "lbmem/report/stats.hpp"
#include "lbmem/util/json.hpp"
#include "lbmem/util/table.hpp"

namespace lbmem {

namespace {

/// Compact event target for table cells ("dyn3", "P2", "imu -> E=4").
std::string event_target(const Event& event) {
  switch (event.kind()) {
    case EventKind::TaskArrival:
      return std::get<TaskArrival>(event.payload).spec.name;
    case EventKind::TaskRemoval:
      return std::get<TaskRemoval>(event.payload).task;
    case EventKind::WcetChange: {
      const WcetChange& change = std::get<WcetChange>(event.payload);
      return change.task + " -> E=" + std::to_string(change.wcet);
    }
    case EventKind::ProcessorFailure: {
      // Built in two steps: GCC 12's -O2 restrict checker reports a false
      // positive on `"P" + std::to_string(...)`.
      std::string name = "P";
      name += std::to_string(
          std::get<ProcessorFailure>(event.payload).proc + 1);
      return name;
    }
  }
  return "?";
}

}  // namespace

namespace {

/// Table outcome label. The degraded-mode states ("retried", "shed")
/// only occur with the ladder on, so historic replays keep their historic
/// labels.
std::string outcome_label(const EventOutcome& outcome) {
  if (!outcome.applied) return "rejected";
  switch (outcome.degraded_rung) {
    case 1: return "retried";
    case 3: return "shed";
    default: break;
  }
  if (outcome.full_replace) return "replaced";
  if (outcome.balance_fell_back) return "repaired";
  return "ok";
}

void add_event_row(Table& table, const std::string& index,
                   const EventOutcome& outcome, int violations) {
  table.add_row({index, std::to_string(outcome.event.at),
                 to_string(outcome.event.kind()),
                 event_target(outcome.event), outcome_label(outcome),
                 std::to_string(outcome.repaired_tasks),
                 std::to_string(outcome.dirty_blocks),
                 std::to_string(outcome.migrated_instances),
                 std::to_string(outcome.balance_gain),
                 std::to_string(outcome.makespan),
                 std::to_string(outcome.max_memory),
                 std::to_string(violations)});
}

}  // namespace

std::string summarize_online(const OnlineReport& report,
                             bool include_timing) {
  Table table({"#", "t", "event", "target", "outcome", "repaired", "blocks",
               "migr", "gain", "makespan", "maxmem", "viol"});
  for (std::size_t i = 0; i < report.events.size(); ++i) {
    add_event_row(table, std::to_string(i + 1), report.events[i],
                  report.violations[i]);
  }

  std::ostringstream out;
  out << table.to_string() << "\n"
      << "events: " << report.events.size() << " (" << report.applied
      << " applied, " << report.rejected
      << " rejected), violations: " << report.total_violations << "\n"
      << "migrations: " << report.total_migrations << " instances, repairs: "
      << report.total_repaired << " tasks, balance moves: "
      << report.total_balance_moves << " (Gtotal " << report.total_balance_gain
      << ")\n";
  // Degraded-mode ladder summary — printed only when a rung past the
  // plain repair was ever needed (DESIGN.md F28).
  if (report.degraded_mode > 0 || report.total_retries > 0) {
    out << "degraded ladder: deepest rung " << report.degraded_mode
        << ", retries " << report.total_retries << ", recoveries [retry "
        << report.recovered_retry << ", replace " << report.recovered_replace
        << ", shed " << report.recovered_shed << "]\n";
    if (!report.shed.empty()) {
      out << "shed tasks:";
      for (const std::string& name : report.shed) out << " " << name;
      out << "\n";
    }
  }
  out << "final makespan: " << report.final_makespan << ", final max memory: "
      << report.final_max_memory << " (peak " << report.peak_max_memory
      << ")\n";
  // Wall clock — kept out of golden/diff renderings via --timing=off.
  if (include_timing && report.repair_latency_us.count() > 0) {
    const obs::LatencyHistogram& lat = report.repair_latency_us;
    out << "repair latency (us): p50 " << lat.percentile(50) << ", p99 "
        << lat.percentile(99) << ", max " << lat.max() << " over "
        << lat.count() << " events\n";
  }
  return out.str();
}

namespace {

/// One event object. Degraded-mode fields (ladder rung, retry count, shed
/// set) are emitted only when they carry information, so pre-ladder replay
/// JSON is byte-identical.
void event_to_json(std::ostringstream& out, const EventOutcome& outcome,
                   int violations, bool include_timing) {
  out << "    {\"at\": " << outcome.event.at << ", \"kind\": \""
      << to_string(outcome.event.kind()) << "\", \"target\": \""
      << json_escape(event_target(outcome.event)) << "\", \"applied\": "
      << (outcome.applied ? "true" : "false");
  if (!outcome.applied) {
    out << ", \"reject_reason\": \"" << json_escape(outcome.reject_reason)
        << "\"";
  }
  out << ", \"graph_rebuilt\": " << (outcome.graph_rebuilt ? "true" : "false")
      << ", \"full_replace\": " << (outcome.full_replace ? "true" : "false")
      << ", \"repaired_tasks\": " << outcome.repaired_tasks
      << ", \"dirty_blocks\": " << outcome.dirty_blocks
      << ", \"migrated_instances\": " << outcome.migrated_instances
      << ", \"balance_moves\": " << outcome.balance_moves
      << ", \"balance_gain\": " << outcome.balance_gain;
  if (outcome.degraded_rung > 0 || outcome.degraded_retries > 0) {
    out << ", \"degraded_rung\": " << outcome.degraded_rung
        << ", \"degraded_retries\": " << outcome.degraded_retries;
  }
  if (!outcome.shed.empty()) {
    out << ", \"shed\": [";
    for (std::size_t s = 0; s < outcome.shed.size(); ++s) {
      if (s > 0) out << ", ";
      out << "\"" << json_escape(outcome.shed[s]) << "\"";
    }
    out << "]";
  }
  out << ", \"makespan\": " << outcome.makespan
      << ", \"max_memory\": " << outcome.max_memory
      << ", \"alive_tasks\": " << outcome.alive_tasks
      << ", \"alive_procs\": " << outcome.alive_procs
      << ", \"violations\": " << violations;
  if (include_timing) {
    out << ", \"wall_seconds\": " << outcome.wall_seconds;
  }
  out << "}";
}

}  // namespace

std::string online_report_to_json(const OnlineReport& report,
                                  bool include_timing) {
  std::ostringstream out;
  out << "{\n  \"events\": [\n";
  for (std::size_t i = 0; i < report.events.size(); ++i) {
    event_to_json(out, report.events[i], report.violations[i],
                  include_timing);
    if (i + 1 < report.events.size()) out << ",";
    out << "\n";
  }
  out << "  ],\n  \"summary\": {\"applied\": " << report.applied
      << ", \"rejected\": " << report.rejected
      << ", \"total_violations\": " << report.total_violations
      << ", \"total_migrations\": " << report.total_migrations
      << ", \"total_repaired\": " << report.total_repaired
      << ", \"total_balance_moves\": " << report.total_balance_moves
      << ", \"total_balance_gain\": " << report.total_balance_gain;
  // Per-rung ladder counts (DESIGN.md F28), only once the ladder acted.
  if (report.degraded_mode > 0 || report.total_retries > 0) {
    out << ", \"degraded_mode\": " << report.degraded_mode
        << ", \"total_retries\": " << report.total_retries
        << ", \"recovered_retry\": " << report.recovered_retry
        << ", \"recovered_replace\": " << report.recovered_replace
        << ", \"recovered_shed\": " << report.recovered_shed
        << ", \"shed\": [";
    for (std::size_t s = 0; s < report.shed.size(); ++s) {
      if (s > 0) out << ", ";
      out << "\"" << json_escape(report.shed[s]) << "\"";
    }
    out << "]";
  }
  out << ", \"peak_max_memory\": " << report.peak_max_memory
      << ", \"final_makespan\": " << report.final_makespan
      << ", \"final_max_memory\": " << report.final_max_memory
      << ", \"dirty_blocks\": " << histogram_to_json(report.dirty_blocks);
  if (include_timing) {
    out << ", \"total_wall_seconds\": " << report.total_wall_seconds
        << ", \"max_wall_seconds\": " << report.max_wall_seconds
        << ", \"repair_latency_us\": "
        << histogram_to_json(report.repair_latency_us);
  }
  out << "}\n}\n";
  return out.str();
}

}  // namespace lbmem
