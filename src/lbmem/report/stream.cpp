#include "lbmem/report/stream.hpp"

#include <sstream>

#include "lbmem/report/stats.hpp"
#include "lbmem/util/json.hpp"

namespace lbmem {

namespace {

/// "p50 12, p99 340, max 512 over 9800" — the one-line histogram summary
/// used by the human-readable rendering.
std::string hist_line(const obs::LatencyHistogram& hist) {
  std::ostringstream out;
  out << "p50 " << hist.percentile(50) << ", p99 " << hist.percentile(99)
      << ", max " << hist.max() << " over " << hist.count();
  return out.str();
}

}  // namespace

std::string summarize_stream(const StreamReport& report,
                             bool include_timing) {
  std::ostringstream out;
  out << "traffic: " << report.events_in << " events in, " << report.admitted
      << " admitted, " << report.shed_overflow << " shed on overflow\n"
      << "drained: " << report.applied << " applied, " << report.rejected
      << " rejected over " << report.batches << " batches in " << report.cycles
      << " cycles (horizon " << report.horizon << " ticks)\n"
      << "coalescing: " << report.coalesced << " events dropped [lww "
      << report.coalesce_detail.last_write_wins << ", folded "
      << report.coalesce_detail.folded << ", annihilated "
      << report.coalesce_detail.annihilated << ", subsumed "
      << report.coalesce_detail.subsumed << "]\n";
  if (report.escalations > 0 || report.budget_exhausted > 0) {
    out << "pressure: " << report.escalations << " overload escalations, "
        << report.budget_exhausted << " budget-cut cycles\n";
  }
  out << "batch size: " << hist_line(report.batch_events) << "\n"
      << "queue delay (cycles): " << hist_line(report.queue_delay_cycles)
      << "\n";
  if (include_timing) {
    out << "queue delay (us): " << hist_line(report.queue_delay_us) << "\n"
        << "batch repair (us): " << hist_line(report.batch_repair_us) << "\n"
        << "throughput: " << report.events_per_second << " events/s over "
        << report.wall_seconds << " s\n";
  }
  out << "final makespan: " << report.final_makespan
      << ", final max memory: " << report.final_max_memory << ", alive: "
      << report.alive_tasks << " tasks on " << report.alive_procs
      << " procs\n";
  if (!report.shed_tasks.empty()) {
    out << "shed tasks:";
    for (const std::string& name : report.shed_tasks) out << " " << name;
    out << "\n";
  }
  if (report.final_violations >= 0) {
    out << "final violations: " << report.final_violations << "\n";
  }
  return out.str();
}

std::string stream_report_to_json(const StreamReport& report,
                                  bool include_timing) {
  std::ostringstream out;
  out << "{\n  \"traffic\": {\"events_in\": " << report.events_in
      << ", \"admitted\": " << report.admitted
      << ", \"shed_overflow\": " << report.shed_overflow
      << ", \"applied\": " << report.applied
      << ", \"rejected\": " << report.rejected
      << ", \"batches\": " << report.batches
      << ", \"cycles\": " << report.cycles
      << ", \"horizon\": " << report.horizon
      << ", \"escalations\": " << report.escalations
      << ", \"budget_exhausted\": " << report.budget_exhausted << "},\n"
      << "  \"coalescing\": {\"dropped\": " << report.coalesced
      << ", \"last_write_wins\": " << report.coalesce_detail.last_write_wins
      << ", \"folded\": " << report.coalesce_detail.folded
      << ", \"annihilated\": " << report.coalesce_detail.annihilated
      << ", \"subsumed\": " << report.coalesce_detail.subsumed << "},\n"
      << "  \"latency\": {\"batch_events\": "
      << histogram_to_json(report.batch_events)
      << ", \"queue_delay_cycles\": "
      << histogram_to_json(report.queue_delay_cycles);
  if (include_timing) {
    out << ", \"queue_delay_us\": " << histogram_to_json(report.queue_delay_us)
        << ", \"batch_repair_us\": "
        << histogram_to_json(report.batch_repair_us)
        << ", \"wall_seconds\": " << report.wall_seconds
        << ", \"events_per_second\": " << report.events_per_second;
  }
  out << "},\n  \"final\": {\"makespan\": " << report.final_makespan
      << ", \"max_memory\": " << report.final_max_memory
      << ", \"alive_tasks\": " << report.alive_tasks
      << ", \"alive_procs\": " << report.alive_procs
      << ", \"shed\": [";
  for (std::size_t s = 0; s < report.shed_tasks.size(); ++s) {
    if (s > 0) out << ", ";
    out << "\"" << json_escape(report.shed_tasks[s]) << "\"";
  }
  out << "], \"violations\": " << report.final_violations << "}\n}\n";
  return out.str();
}

std::string progress_line(const StreamProgress& progress,
                          bool include_timing) {
  std::ostringstream out;
  out << "cycle " << progress.cycle << " t=" << progress.now
      << " in=" << progress.events_in << " applied=" << progress.applied
      << " rejected=" << progress.rejected
      << " coalesced=" << progress.coalesced
      << " shed=" << progress.shed_overflow
      << " backlog=" << progress.backlog;
  if (progress.degraded_armed) out << " degraded=armed";
  if (include_timing) {
    out << " qdelay_p50=" << progress.queue_delay_p50_us
        << "us qdelay_p99=" << progress.queue_delay_p99_us << "us";
  }
  return out.str();
}

}  // namespace lbmem
