#include "lbmem/sim/bus.hpp"

#include <algorithm>
#include <queue>

#include "lbmem/util/check.hpp"

namespace lbmem {

namespace {

std::vector<TransferJob> extract_jobs(const Schedule& sched) {
  const TaskGraph& graph = sched.graph();
  std::vector<TransferJob> jobs;
  for (std::int32_t e = 0;
       e < static_cast<std::int32_t>(graph.dependence_count()); ++e) {
    const Dependence& dep = graph.dependences()[static_cast<std::size_t>(e)];
    const Time length = sched.comm().transfer_time(dep.data_size);
    const InstanceIdx nc = graph.instance_count(dep.consumer);
    for (InstanceIdx k = 0; k < nc; ++k) {
      const TaskInstance consumer{dep.consumer, k};
      const ConsumedRange range = graph.consumed_range(e, k);
      for (InstanceIdx pk = range.first; pk < range.first + range.count;
           ++pk) {
        const TaskInstance producer{dep.producer, pk};
        if (sched.proc(producer) == sched.proc(consumer)) continue;
        TransferJob job;
        job.producer = producer;
        job.consumer = consumer;
        job.from = sched.proc(producer);
        job.to = sched.proc(consumer);
        job.release = sched.end(producer);
        job.deadline = sched.start(consumer);
        job.length = length;
        jobs.push_back(job);
      }
    }
  }
  return jobs;
}

/// Necessary condition: for any window [a, b) formed by a release and a
/// deadline, the total length of jobs entirely inside must fit.
bool find_overload_window(const std::vector<TransferJob>& jobs, Time* begin,
                          Time* end) {
  for (const TransferJob& outer : jobs) {
    for (const TransferJob& inner : jobs) {
      const Time a = outer.release;
      const Time b = inner.deadline;
      if (a >= b) continue;
      Time demand = 0;
      for (const TransferJob& job : jobs) {
        if (job.release >= a && job.deadline <= b) demand += job.length;
      }
      if (demand > b - a) {
        *begin = a;
        *end = b;
        return true;
      }
    }
  }
  return false;
}

}  // namespace

std::size_t count_remote_transfers(const Schedule& sched) {
  return extract_jobs(sched).size();
}

void fifo_bus_schedule(std::vector<FifoTransfer>& transfers) {
  std::sort(transfers.begin(), transfers.end(),
            [](const FifoTransfer& a, const FifoTransfer& b) {
              if (a.release != b.release) return a.release < b.release;
              return a.key < b.key;
            });
  Time bus_free = 0;
  for (FifoTransfer& t : transfers) {
    const Time begin = std::max(t.release, bus_free);
    t.completion = begin + t.length;
    bus_free = t.completion;
  }
}

BusReport analyze_single_bus(const Schedule& sched) {
  LBMEM_REQUIRE(sched.complete(), "bus analysis requires a complete schedule");
  BusReport report;
  report.jobs = extract_jobs(sched);

  for (const TransferJob& job : report.jobs) {
    report.bus_busy += job.length;
  }
  const Time span = std::max<Time>(sched.makespan(), 1);
  report.utilization =
      static_cast<double>(report.bus_busy) / static_cast<double>(span);

  // Zero-length transfers (C = 0) always fit.
  std::vector<TransferJob*> pending;
  for (TransferJob& job : report.jobs) {
    if (job.length > 0) {
      pending.push_back(&job);
    } else {
      job.scheduled_at = job.release;
    }
  }

  // EDF with release times on one machine (non-preemptive).
  std::sort(pending.begin(), pending.end(),
            [](const TransferJob* a, const TransferJob* b) {
              if (a->release != b->release) return a->release < b->release;
              return a->deadline < b->deadline;
            });
  auto edf_order = [](const TransferJob* a, const TransferJob* b) {
    if (a->deadline != b->deadline) return a->deadline > b->deadline;
    return a->release > b->release;
  };
  std::priority_queue<TransferJob*, std::vector<TransferJob*>,
                      decltype(edf_order)>
      ready(edf_order);

  Time now = 0;
  std::size_t next = 0;
  bool missed = false;
  while (next < pending.size() || !ready.empty()) {
    if (ready.empty()) {
      now = std::max(now, pending[next]->release);
    }
    while (next < pending.size() && pending[next]->release <= now) {
      ready.push(pending[next]);
      ++next;
    }
    TransferJob* job = ready.top();
    ready.pop();
    job->scheduled_at = now;
    now += job->length;
    if (now > job->deadline) {
      missed = true;
      break;
    }
  }

  if (!missed) {
    report.verdict = BusVerdict::Fits;
    report.detail = "EDF schedules all transfers within their windows";
    return report;
  }

  if (find_overload_window(report.jobs, &report.window_begin,
                           &report.window_end)) {
    report.verdict = BusVerdict::Overloaded;
    report.detail =
        "window [" + std::to_string(report.window_begin) + ", " +
        std::to_string(report.window_end) + ") demands more bus time than " +
        "its length — no single-bus schedule exists";
    return report;
  }

  report.verdict = BusVerdict::Unknown;
  report.detail = "EDF missed a deadline but no overload witness was found";
  return report;
}

}  // namespace lbmem
