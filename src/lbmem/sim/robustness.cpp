#include "lbmem/sim/robustness.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "lbmem/obs/metrics.hpp"
#include "lbmem/obs/trace.hpp"
#include "lbmem/util/check.hpp"

namespace lbmem {

namespace {

/// Stitch the metrics of two consecutive windows into one run's figures.
/// Counters add; spans and peaks take the max (all times are absolute, so
/// the later window's figures already include its offset); idle fractions
/// are re-derived from the merged busy over the full run.
SimMetrics merge_windows(const SimMetrics& a, const SimMetrics& b, Time h,
                         int total_reps) {
  SimMetrics m;
  m.span = std::max(a.span, b.span);
  m.predicted_span = std::max(a.predicted_span, b.predicted_span);
  m.violations = a.violations + b.violations;
  m.overlap_violations = a.overlap_violations + b.overlap_violations;
  m.data_violations = a.data_violations + b.data_violations;
  m.deadline_misses = a.deadline_misses + b.deadline_misses;
  m.lost_instances = a.lost_instances + b.lost_instances;
  m.total_instances = a.total_instances + b.total_instances;
  m.violation_details = a.violation_details;
  m.violation_details.insert(m.violation_details.end(),
                             b.violation_details.begin(),
                             b.violation_details.end());
  m.violation_records = a.violation_records;
  m.violation_records.insert(m.violation_records.end(),
                             b.violation_records.begin(),
                             b.violation_records.end());
  m.procs.resize(a.procs.size());
  const double window = static_cast<double>(h * static_cast<Time>(total_reps));
  for (std::size_t p = 0; p < a.procs.size(); ++p) {
    ProcMetrics& pm = m.procs[p];
    pm.busy = a.procs[p].busy + b.procs[p].busy;
    pm.idle_fraction = 1.0 - static_cast<double>(pm.busy) / window;
    pm.static_memory = std::max(a.procs[p].static_memory,
                                b.procs[p].static_memory);
    pm.peak_buffer = std::max(a.procs[p].peak_buffer, b.procs[p].peak_buffer);
    pm.peak_total = std::max(a.procs[p].peak_total, b.procs[p].peak_total);
  }
  return m;
}

/// Deep-copy the engine's running table (graph + rebound schedule) so the
/// phase simulations can keep reading it after a later repair rebuilds or
/// retires the engine's own graph (shed and epoch events do).
const Schedule* snapshot_table(
    const Schedule& sched, std::vector<std::unique_ptr<TaskGraph>>& graphs,
    std::vector<std::unique_ptr<Schedule>>& scheds) {
  std::vector<TaskId> remap;
  graphs.push_back(
      std::make_unique<TaskGraph>(sched.graph().without({}, remap)));
  graphs.back()->freeze();
  scheds.push_back(
      std::make_unique<Schedule>(carry_over(sched, *graphs.back(), remap)));
  return scheds.back().get();
}

}  // namespace

MissRateSelector::MissRateSelector(std::vector<std::string> names) {
  entries_.reserve(names.size());
  for (std::string& name : names) {
    Entry entry;
    entry.name = std::move(name);
    entries_.push_back(std::move(entry));
  }
}

int MissRateSelector::pick() const {
  LBMEM_REQUIRE(!entries_.empty(),
                "miss-rate selection needs at least one candidate");
  // Exploration first: every candidate gets observed before any pooled
  // comparison happens (registration order keeps it deterministic).
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].count == 0) return static_cast<int>(i);
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    if (pooled(static_cast<int>(i)) < pooled(static_cast<int>(best))) {
      best = i;
    }
  }
  return static_cast<int>(best);
}

void MissRateSelector::observe(int index, double miss_rate) {
  LBMEM_REQUIRE(index >= 0 && index < size(),
                "miss-rate observation names an unknown candidate");
  Entry& entry = entries_[static_cast<std::size_t>(index)];
  entry.sum += miss_rate;
  ++entry.count;
}

const std::string& MissRateSelector::name(int index) const {
  LBMEM_REQUIRE(index >= 0 && index < size(),
                "candidate index out of range");
  return entries_[static_cast<std::size_t>(index)].name;
}

double MissRateSelector::pooled(int index) const {
  LBMEM_REQUIRE(index >= 0 && index < size(),
                "candidate index out of range");
  const Entry& entry = entries_[static_cast<std::size_t>(index)];
  return entry.count > 0 ? entry.sum / static_cast<double>(entry.count) : 0.0;
}

int MissRateSelector::observations(int index) const {
  LBMEM_REQUIRE(index >= 0 && index < size(),
                "candidate index out of range");
  return entries_[static_cast<std::size_t>(index)].count;
}

double robustness_percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = pct / 100.0 * static_cast<double>(values.size());
  std::size_t idx = static_cast<std::size_t>(std::ceil(rank));
  if (idx > 0) --idx;  // nearest-rank is 1-based
  if (idx >= values.size()) idx = values.size() - 1;
  return values[idx];
}

RobustnessReport run_robustness(const Schedule& schedule,
                                const RobustnessOptions& options) {
  LBMEM_REQUIRE(schedule.complete(),
                "robustness harness requires a complete schedule");
  LBMEM_REQUIRE(options.replications >= 1, "need at least one replication");
  const TaskGraph& graph = schedule.graph();
  const Time h = graph.hyperperiod();
  const int reps = options.sim.hyperperiods;
  const PerturbSpec& base = options.perturb;

  const std::vector<ProcessorFault> faults = base.all_failures();
  for (const ProcessorFault& f : faults) {
    LBMEM_REQUIRE(f.at >= 0 && f.at < h * static_cast<Time>(reps),
                  "every fail time must fall inside the simulated window");
  }

  RobustnessReport report;
  report.failure_injected = !faults.empty();
  report.replications.reserve(static_cast<std::size_t>(options.replications));

  // Phase boundaries: the hyper-period after each failure's window, where
  // the repaired table (if any) swaps in; the run's end closes the list.
  std::vector<int> cuts;
  cuts.reserve(faults.size() + 1);
  for (const ProcessorFault& f : faults) {
    cuts.push_back(static_cast<int>(f.at / h) + 1);
  }
  cuts.push_back(reps);
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  // Failure handoff: each repair runs once per report — the decision
  // depends on the schedule and the failed processor, never on the noise
  // draws, so re-running it per replication would only duplicate work.
  std::optional<Rebalancer> system;
  if (!faults.empty()) {
    system.emplace(Rebalancer::adopt(graph, schedule, options.repair));
  }

  // Tables the phases execute. Snapshots keep repaired tables alive after
  // later repairs mutate the engine; `active` is the table in force.
  std::vector<std::unique_ptr<TaskGraph>> snap_graphs;
  std::vector<std::unique_ptr<Schedule>> snap_scheds;
  const Schedule* active = &schedule;

  // Rejected failures: those processors stay dead for the rest of the run
  // (at = 0 loses every dispatch placed on them in later phases).
  std::vector<ProcessorFault> dead;

  struct Accum {
    SimMetrics metrics;
    bool any = false;
    double before = 0.0;
    double after = 0.0;
  };
  std::vector<Accum> acc(static_cast<std::size_t>(options.replications));

  // Phase-major sweep: simulate each phase for every replication, then
  // decide the repairs at its closing boundary.
  std::size_t fault_idx = 0;
  int seg_start = 0;
  for (const int cut : cuts) {
    if (cut > seg_start) {
      SimOptions seg = options.sim;
      seg.hyperperiods = cut - seg_start;
      // Failures live in this phase: permanently dead processors plus
      // every not-yet-repaired failure at its absolute fail time (ones
      // beyond this phase's window never trigger — times are absolute).
      std::vector<ProcessorFault> live = dead;
      for (std::size_t i = fault_idx; i < faults.size(); ++i) {
        live.push_back(faults[i]);
      }
      for (int r = 0; r < options.replications; ++r) {
        LBMEM_TRACE_SPAN("robustness.replication");
        PerturbSpec spec = base.replication(r);
        spec.failures = live;
        const SimMetrics m = simulate_perturbed(*active, seg, spec, seg_start);
        Accum& a = acc[static_cast<std::size_t>(r)];
        if (report.failure_injected) {
          if (seg_start == 0) a.before = m.miss_rate();
          if (seg_start > 0) a.after = m.miss_rate();  // final phase wins
        }
        a.metrics = a.any ? merge_windows(a.metrics, m, h, reps) : m;
        a.any = true;
      }
    }

    // Repairs whose failure window closed at this boundary, in fail-time
    // order; each accepted repair's table governs from here on.
    while (fault_idx < faults.size() &&
           static_cast<int>(faults[fault_idx].at / h) + 1 == cut) {
      const ProcessorFault f = faults[fault_idx++];
      FailureOutcome fo;
      fo.proc = f.proc;
      fo.at = f.at;
      const EventOutcome out = system->fail_processor(f.proc, f.at);
      fo.repaired = out.applied;
      fo.degraded_rung = out.degraded_rung;
      fo.shed = out.shed;
      if (out.applied) {
        fo.recovery_latency = h * static_cast<Time>(cut) - f.at;
        fo.detail =
            "repaired " + std::to_string(out.repaired_tasks) + " tasks, " +
            std::to_string(out.migrated_instances) + " instances migrated";
        active = snapshot_table(system->schedule(), snap_graphs, snap_scheds);
      } else {
        dead.push_back(ProcessorFault{f.proc, 0});
        fo.detail = out.reject_reason;
      }
      report.failures.push_back(std::move(fo));
    }
    seg_start = cut;
  }

  // Report-level aggregates over the per-failure outcomes.
  if (!report.failures.empty()) {
    report.recovered = std::all_of(
        report.failures.begin(), report.failures.end(),
        [](const FailureOutcome& fo) { return fo.repaired; });
    for (const FailureOutcome& fo : report.failures) {
      report.recovery_latency =
          std::max(report.recovery_latency, fo.recovery_latency);
    }
    if (report.failures.size() == 1) {
      report.repair_detail = report.failures.front().detail;
    } else {
      for (const FailureOutcome& fo : report.failures) {
        if (!report.repair_detail.empty()) report.repair_detail += "; ";
        report.repair_detail += "P" + std::to_string(fo.proc + 1) + "@t=" +
                                std::to_string(fo.at) + ": " + fo.detail;
      }
    }
  }

  for (const Accum& a : acc) {
    RobustnessReplication rep;
    rep.metrics = a.metrics;
    rep.miss_rate = rep.metrics.miss_rate();
    rep.span_inflation = rep.metrics.span_inflation();
    rep.miss_rate_before = a.before;
    rep.miss_rate_after = a.after;
    report.replications.push_back(std::move(rep));
  }

  std::vector<double> miss_rates;
  miss_rates.reserve(report.replications.size());
  double inflation_sum = 0.0;
  double before_sum = 0.0;
  double after_sum = 0.0;
  for (const RobustnessReplication& rep : report.replications) {
    miss_rates.push_back(rep.miss_rate);
    inflation_sum += rep.span_inflation;
    before_sum += rep.miss_rate_before;
    after_sum += rep.miss_rate_after;
    report.total_violations += rep.metrics.violations;
    report.total_deadline_misses += rep.metrics.deadline_misses;
    report.total_lost_instances += rep.metrics.lost_instances;
  }
  const double n = static_cast<double>(report.replications.size());
  report.miss_p50 = robustness_percentile(miss_rates, 50.0);
  report.miss_p99 = robustness_percentile(miss_rates, 99.0);
  report.mean_span_inflation = inflation_sum / n;
  report.mean_miss_before = before_sum / n;
  report.mean_miss_after = after_sum / n;

  // Fold the harness-level figures once per report (the executor already
  // folded its own counts per run through options.sim.metrics).
  if (options.sim.metrics != nullptr) {
    obs::Registry& reg = *options.sim.metrics;
    const auto reports = reg.counter("robustness.reports",
                                     obs::MetricClass::Deterministic);
    const auto failures_id = reg.counter("robustness.failures_injected",
                                         obs::MetricClass::Deterministic);
    const auto recoveries = reg.counter("robustness.recoveries",
                                        obs::MetricClass::Deterministic);
    const auto latency = reg.histogram("robustness.recovery_latency",
                                       obs::MetricClass::Deterministic);
    reg.add(reports, 1);
    reg.add(failures_id, static_cast<std::int64_t>(report.failures.size()));
    // Ticks, not wall clock: each latency is h*(w+1) - fail_at, a schedule
    // property — deterministic by construction.
    for (const FailureOutcome& fo : report.failures) {
      if (!fo.repaired) continue;
      reg.add(recoveries, 1);
      reg.record(latency, fo.recovery_latency);
    }
  }
  return report;
}

}  // namespace lbmem
