#include "lbmem/report/sim.hpp"

#include <sstream>

#include "lbmem/util/json.hpp"
#include "lbmem/util/table.hpp"

namespace lbmem {

namespace {

const char* kind_name(SimViolation::Kind kind) {
  return kind == SimViolation::Kind::Overlap ? "overlap" : "data-not-ready";
}

void append_violation_breakdown(std::ostringstream& out,
                                const SimMetrics& metrics) {
  out << metrics.violations << " violations (" << metrics.overlap_violations
      << " overlap, " << metrics.data_violations << " data-not-ready)";
}

}  // namespace

std::string summarize_sim(const SimMetrics& metrics, int hyperperiods) {
  std::ostringstream out;
  out << "simulated " << hyperperiods << " hyper-periods (" << metrics.span
      << " ticks): ";
  append_violation_breakdown(out, metrics);
  out << "\n";
  out << "deadline misses: " << metrics.deadline_misses << "/"
      << metrics.total_instances << " (miss rate "
      << format_double(metrics.miss_rate(), 3) << "), lost instances: "
      << metrics.lost_instances << "\n";
  out << "span: " << metrics.predicted_span << " predicted, " << metrics.span
      << " simulated (inflation " << format_double(metrics.span_inflation(), 3)
      << ")\n";
  for (std::size_t i = 0; i < metrics.procs.size(); ++i) {
    const ProcMetrics& pm = metrics.procs[i];
    out << "  P" << i + 1 << ": idle "
        << static_cast<int>(100 * pm.idle_fraction) << "%, static mem "
        << pm.static_memory << ", peak buffers " << pm.peak_buffer
        << ", peak total " << pm.peak_total << "\n";
  }
  return out.str();
}

std::string sim_report_to_json(const SimMetrics& metrics, int hyperperiods) {
  std::ostringstream out;
  out << "{\n  \"hyperperiods\": " << hyperperiods
      << ",\n  \"span\": " << metrics.span
      << ",\n  \"predicted_span\": " << metrics.predicted_span
      << ",\n  \"span_inflation\": " << metrics.span_inflation()
      << ",\n  \"violations\": " << metrics.violations
      << ",\n  \"overlap_violations\": " << metrics.overlap_violations
      << ",\n  \"data_violations\": " << metrics.data_violations
      << ",\n  \"deadline_misses\": " << metrics.deadline_misses
      << ",\n  \"lost_instances\": " << metrics.lost_instances
      << ",\n  \"total_instances\": " << metrics.total_instances
      << ",\n  \"miss_rate\": " << metrics.miss_rate()
      << ",\n  \"procs\": [\n";
  for (std::size_t i = 0; i < metrics.procs.size(); ++i) {
    const ProcMetrics& pm = metrics.procs[i];
    out << "    {\"busy\": " << pm.busy
        << ", \"idle_fraction\": " << pm.idle_fraction
        << ", \"static_memory\": " << pm.static_memory
        << ", \"peak_buffer\": " << pm.peak_buffer
        << ", \"peak_total\": " << pm.peak_total << "}"
        << (i + 1 < metrics.procs.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"violation_records\": [\n";
  for (std::size_t i = 0; i < metrics.violation_records.size(); ++i) {
    const SimViolation& v = metrics.violation_records[i];
    out << "    {\"kind\": \"" << kind_name(v.kind)
        << "\", \"blocker_task\": " << v.blocker.task
        << ", \"blocker_k\": " << v.blocker.k
        << ", \"victim_task\": " << v.victim.task
        << ", \"victim_k\": " << v.victim.k << ", \"at\": " << v.at
        << ", \"ready_at\": " << v.ready_at << "}"
        << (i + 1 < metrics.violation_records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

std::string summarize_robustness(const RobustnessReport& report,
                                 const RobustnessOptions& options) {
  const PerturbSpec& p = options.perturb;
  std::ostringstream out;
  out << "perturbed execution: " << report.replications.size()
      << " replications x " << options.sim.hyperperiods
      << " hyper-periods (seed " << p.seed << ")\n";
  out << "noise: wcet jitter " << format_double(p.wcet_jitter, 3)
      << ", comm jitter " << format_double(p.comm_jitter, 3) << ", stall p="
      << format_double(p.stall_prob, 3) << " x " << p.stall_ticks
      << ", bus fifo " << (p.bus_fifo ? "on" : "off") << "\n";
  // Correlated-burst line (DESIGN.md F27) — only when a chain is active,
  // so historic output is unchanged. The CLI configures the channels
  // uniformly; report whichever chain is live.
  if (p.any_burst()) {
    const GilbertElliott& chain = p.wcet_burst.active()
                                      ? p.wcet_burst
                                      : (p.comm_burst.active() ? p.comm_burst
                                                               : p.stall_burst);
    out << "burst: storm entry p=" << format_double(chain.p, 3) << ", exit q="
        << format_double(chain.q, 3) << ", intensity x"
        << format_double(chain.factor, 3) << "\n";
  }
  out << "miss rate p50 " << format_double(report.miss_p50, 3) << " / p99 "
      << format_double(report.miss_p99, 3) << ", mean span inflation "
      << format_double(report.mean_span_inflation, 3) << "\n";
  std::int64_t overlap = 0;
  std::int64_t data = 0;
  for (const RobustnessReplication& rep : report.replications) {
    overlap += rep.metrics.overlap_violations;
    data += rep.metrics.data_violations;
  }
  out << "violations: " << report.total_violations << " (" << overlap
      << " overlap, " << data << " data-not-ready), deadline misses: "
      << report.total_deadline_misses << ", lost instances: "
      << report.total_lost_instances << "\n";
  for (std::size_t r = 0; r < report.replications.size(); ++r) {
    const RobustnessReplication& rep = report.replications[r];
    out << "  rep " << r + 1 << ": miss rate "
        << format_double(rep.miss_rate, 3) << ", span inflation "
        << format_double(rep.span_inflation, 3) << ", violations "
        << rep.metrics.violations << "\n";
  }
  for (const FailureOutcome& fo : report.failures) {
    out << "failure: P" << fo.proc + 1 << " at t=" << fo.at << " -> ";
    if (fo.repaired) {
      out << "recovered, latency " << fo.recovery_latency << " ticks ("
          << fo.detail << ")";
      // Degraded-mode ladder annotations (DESIGN.md F28) — printed only
      // when a rung past the plain repair produced the table, so historic
      // single-failure output is unchanged.
      if (fo.degraded_rung > 0) out << ", rung " << fo.degraded_rung;
      if (!fo.shed.empty()) {
        out << ", shed";
        for (const std::string& name : fo.shed) out << " " << name;
      }
      out << "\n";
    } else {
      out << "NOT recovered: " << fo.detail << "\n";
    }
  }
  if (report.failure_injected) {
    out << "miss rate before recovery "
        << format_double(report.mean_miss_before, 3) << ", after "
        << format_double(report.mean_miss_after, 3) << "\n";
  }
  return out.str();
}

std::string robustness_report_to_json(const RobustnessReport& report,
                                      const RobustnessOptions& options) {
  const PerturbSpec& p = options.perturb;
  std::ostringstream out;
  out << "{\n  \"replications\": " << report.replications.size()
      << ",\n  \"hyperperiods\": " << options.sim.hyperperiods
      << ",\n  \"perturb\": {\"seed\": " << p.seed
      << ", \"wcet_jitter\": " << p.wcet_jitter
      << ", \"comm_jitter\": " << p.comm_jitter
      << ", \"stall_prob\": " << p.stall_prob
      << ", \"stall_ticks\": " << p.stall_ticks << ", \"bus_fifo\": "
      << (p.bus_fifo ? "true" : "false");
  if (p.any_burst()) {
    const GilbertElliott& chain = p.wcet_burst.active()
                                      ? p.wcet_burst
                                      : (p.comm_burst.active() ? p.comm_burst
                                                               : p.stall_burst);
    out << ", \"burst_p\": " << chain.p << ", \"burst_q\": " << chain.q
        << ", \"burst_factor\": " << chain.factor;
  }
  out << "}"
      << ",\n  \"miss_p50\": " << report.miss_p50
      << ",\n  \"miss_p99\": " << report.miss_p99
      << ",\n  \"mean_span_inflation\": " << report.mean_span_inflation
      << ",\n  \"total_violations\": " << report.total_violations
      << ",\n  \"total_deadline_misses\": " << report.total_deadline_misses
      << ",\n  \"total_lost_instances\": " << report.total_lost_instances;
  if (report.failure_injected) {
    // Report-level roll-up (kept for single-failure consumers) plus the
    // per-failure outcomes, in injection order.
    out << ",\n  \"failure\": {\"recovered\": "
        << (report.recovered ? "true" : "false")
        << ", \"recovery_latency\": " << report.recovery_latency
        << ", \"miss_before\": " << report.mean_miss_before
        << ", \"miss_after\": " << report.mean_miss_after
        << ", \"detail\": \"" << json_escape(report.repair_detail) << "\"}"
        << ",\n  \"failures\": [\n";
    for (std::size_t f = 0; f < report.failures.size(); ++f) {
      const FailureOutcome& fo = report.failures[f];
      out << "    {\"proc\": " << fo.proc << ", \"at\": " << fo.at
          << ", \"recovered\": " << (fo.repaired ? "true" : "false")
          << ", \"recovery_latency\": " << fo.recovery_latency
          << ", \"degraded_rung\": " << fo.degraded_rung;
      if (!fo.shed.empty()) {
        out << ", \"shed\": [";
        for (std::size_t s = 0; s < fo.shed.size(); ++s) {
          out << (s ? ", " : "") << "\"" << json_escape(fo.shed[s]) << "\"";
        }
        out << "]";
      }
      out << ", \"detail\": \"" << json_escape(fo.detail) << "\"}"
          << (f + 1 < report.failures.size() ? "," : "") << "\n";
    }
    out << "  ]";
  }
  out << ",\n  \"reps\": [\n";
  for (std::size_t r = 0; r < report.replications.size(); ++r) {
    const RobustnessReplication& rep = report.replications[r];
    out << "    {\"miss_rate\": " << rep.miss_rate
        << ", \"span_inflation\": " << rep.span_inflation
        << ", \"violations\": " << rep.metrics.violations
        << ", \"deadline_misses\": " << rep.metrics.deadline_misses
        << ", \"lost_instances\": " << rep.metrics.lost_instances << "}"
        << (r + 1 < report.replications.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

}  // namespace lbmem
