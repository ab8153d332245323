#include "lbmem/validate/validator.hpp"

#include <algorithm>

#include "lbmem/model/hyperperiod.hpp"
#include "lbmem/util/check.hpp"

namespace lbmem {

std::string ValidationReport::to_string() const {
  std::string out;
  for (const auto& v : violations) {
    out += v.detail;
    out += '\n';
  }
  return out;
}

namespace {

std::string instance_name(const TaskGraph& graph, TaskInstance inst) {
  return graph.task(inst.task).name + "[" + std::to_string(inst.k) + "]";
}

/// One instance in the exclusivity sweep: its start mod H and length.
struct ExclusivityEntry {
  Time pos;
  Time len;
  TaskInstance inst;
};

void check_exclusivity(const Schedule& sched, ValidationReport& report) {
  const TaskGraph& graph = sched.graph();
  const Time h = graph.hyperperiod();
  for (ProcId p = 0; p < sched.architecture().processor_count(); ++p) {
    const auto instances = sched.instances_on(p);
    // Sort by start mod H and compare circular neighbours; with pairwise
    // checks against every later instance overlapping candidates, the
    // O(n^2) fallback is avoided by only comparing instances whose
    // mod-H windows can intersect. Instance windows are short (wcet <=
    // period <= H), so neighbour checks after sorting by mod-H start plus a
    // wrap-around check between last and first suffice when no interval
    // covers another's start; to stay exact we still do a local scan.
    std::vector<ExclusivityEntry> entries;
    entries.reserve(instances.size());
    for (const TaskInstance inst : instances) {
      const Time s = sched.start(inst);
      entries.push_back(ExclusivityEntry{((s % h) + h) % h,
                                         graph.task(inst.task).wcet, inst});
    }
    std::sort(entries.begin(), entries.end(),
              [](const ExclusivityEntry& a, const ExclusivityEntry& b) {
                return a.pos < b.pos;
              });
    const std::size_t n = entries.size();
    for (std::size_t i = 0; i < n; ++i) {
      // Compare with successors until the gap exceeds the longest interval;
      // all lengths are <= H so comparing each entry with its immediate
      // successor and the wrap pair is sufficient for disjoint validation:
      // if entries i and i+2 overlap, then i+1 (between them) overlaps one
      // of them too, so at least one violation is still reported.
      const std::size_t j = (i + 1) % n;
      if (n == 1) break;
      const ExclusivityEntry& a = entries[i];
      const ExclusivityEntry& b = entries[j];
      if (circular_overlap(a.pos, a.len, b.pos, b.len, h) &&
          !(a.inst == b.inst)) {
        report.violations.push_back(Violation{
            Violation::Kind::Overlap,
            "overlap on " + sched.architecture().processor_name(p) + ": " +
                instance_name(graph, a.inst) + " @" +
                std::to_string(sched.start(a.inst)) + " len " +
                std::to_string(a.len) + " vs " +
                instance_name(graph, b.inst) + " @" +
                std::to_string(sched.start(b.inst)) + " len " +
                std::to_string(b.len) + " (mod " + std::to_string(h) + ")"});
      }
    }
  }
}

void check_precedence(const Schedule& sched, ValidationReport& report) {
  const TaskGraph& graph = sched.graph();
  for (TaskId t = 0; t < static_cast<TaskId>(graph.task_count()); ++t) {
    const InstanceIdx n = graph.instance_count(t);
    for (InstanceIdx k = 0; k < n; ++k) {
      const TaskInstance inst{t, k};
      const ProcId p = sched.proc(inst);
      const Time ready = sched.data_ready(inst, p);
      if (sched.start(inst) < ready) {
        report.violations.push_back(Violation{
            Violation::Kind::Precedence,
            "precedence violation: " + instance_name(graph, inst) +
                " starts at " + std::to_string(sched.start(inst)) +
                " before its data is ready at " + std::to_string(ready)});
      }
    }
  }
}

void check_memory(const Schedule& sched, ValidationReport& report) {
  const Architecture& arch = sched.architecture();
  if (!arch.has_memory_limit()) return;
  for (ProcId p = 0; p < arch.processor_count(); ++p) {
    const Mem used = sched.memory_on(p);
    if (used > arch.memory_capacity()) {
      report.violations.push_back(Violation{
          Violation::Kind::MemoryCapacity,
          "memory capacity exceeded on " + arch.processor_name(p) + ": " +
              std::to_string(used) + " > " +
              std::to_string(arch.memory_capacity())});
    }
  }
}

}  // namespace

ValidationReport validate(const Schedule& sched) {
  ValidationReport report;
  const TaskGraph& graph = sched.graph();

  if (!sched.complete()) {
    report.violations.push_back(Violation{
        Violation::Kind::Incomplete,
        "schedule is incomplete (missing start times or assignments)"});
    return report;  // other checks require completeness
  }
  for (TaskId t = 0; t < static_cast<TaskId>(graph.task_count()); ++t) {
    if (sched.first_start(t) < 0) {
      report.violations.push_back(
          Violation{Violation::Kind::NegativeStart,
                    "negative start for task " + graph.task(t).name});
    }
  }
  check_exclusivity(sched, report);
  check_precedence(sched, report);
  check_memory(sched, report);
  return report;
}

bool is_valid_around(const Schedule& sched,
                     std::span<const TaskInstance> moved, EpochSet& seen) {
  // V1; a complete schedule has every start set, hence non-negative.
  if (!sched.complete()) return false;
  const Architecture& arch = sched.architecture();
  if (arch.has_memory_limit()) {
    for (ProcId p = 0; p < arch.processor_count(); ++p) {
      if (sched.memory_on(p) > arch.memory_capacity()) return false;
    }
  }
  // V4 reads an instance's own start and processor and its producers' end
  // and processor, so it can only have changed at a moved instance or at a
  // consumer of one; the seen-set checks each of those once.
  const TaskGraph& graph = sched.graph();
  seen.clear(graph.total_instances());
  const auto precedence_ok = [&](TaskInstance inst) {
    if (!seen.insert(graph.dense_index(inst))) return true;
    return sched.start(inst) >= sched.data_ready(inst, sched.proc(inst));
  };
  for (const TaskInstance inst : moved) {
    if (!precedence_ok(inst)) return false;
    for (const std::int32_t e : graph.deps_out(inst.task)) {
      const TaskId consumer =
          graph.dependences()[static_cast<std::size_t>(e)].consumer;
      const ConsumedRange range = graph.consumer_range(e, inst.k);
      for (InstanceIdx i = 0; i < range.count; ++i) {
        if (!precedence_ok(TaskInstance{consumer, range.first + i})) {
          return false;
        }
      }
    }
  }
  return true;
}

void validate_or_throw(const Schedule& sched) {
  const ValidationReport report = validate(sched);
  if (!report.ok()) {
    throw ScheduleError("invalid schedule:\n" + report.to_string());
  }
}

}  // namespace lbmem
