#include "lbmem/report/export.hpp"

#include <sstream>

#include "lbmem/api/solvers.hpp"
#include "lbmem/report/solve.hpp"
#include "lbmem/util/json.hpp"

namespace lbmem {

namespace {

std::string dot_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

}  // namespace

std::string graph_to_dot(const TaskGraph& graph) {
  std::ostringstream out;
  out << "digraph application {\n";
  out << "  rankdir=LR;\n  node [shape=box];\n";
  for (TaskId t = 0; t < static_cast<TaskId>(graph.task_count()); ++t) {
    const Task& task = graph.task(t);
    out << "  t" << t << " [label=\"" << dot_escape(task.name) << "\\nT="
        << task.period << " E=" << task.wcet << " m=" << task.memory
        << "\"];\n";
  }
  for (const Dependence& dep : graph.dependences()) {
    out << "  t" << dep.producer << " -> t" << dep.consumer << " [label=\""
        << dep.data_size << "\"];\n";
  }
  out << "}\n";
  return out.str();
}

std::string schedule_to_dot(const Schedule& sched) {
  const TaskGraph& graph = sched.graph();
  std::ostringstream out;
  out << "digraph schedule {\n  rankdir=LR;\n  node [shape=record];\n";
  for (ProcId p = 0; p < sched.architecture().processor_count(); ++p) {
    out << "  subgraph cluster_p" << p << " {\n    label=\""
        << sched.architecture().processor_name(p) << " (mem "
        << sched.memory_on(p) << ")\";\n";
    for (const TaskInstance inst : sched.instances_on(p)) {
      out << "    i" << inst.task << "_" << inst.k << " [label=\""
          << dot_escape(graph.task(inst.task).name) << inst.k << " @"
          << sched.start(inst) << "\"];\n";
    }
    out << "  }\n";
  }
  for (std::int32_t e = 0;
       e < static_cast<std::int32_t>(graph.dependence_count()); ++e) {
    const Dependence& dep = graph.dependences()[static_cast<std::size_t>(e)];
    const InstanceIdx nc = graph.instance_count(dep.consumer);
    for (InstanceIdx k = 0; k < nc; ++k) {
      const ConsumedRange range = graph.consumed_range(e, k);
      for (InstanceIdx pk = range.first; pk < range.first + range.count;
           ++pk) {
        const bool remote = sched.proc(TaskInstance{dep.producer, pk}) !=
                            sched.proc(TaskInstance{dep.consumer, k});
        out << "  i" << dep.producer << "_" << pk << " -> i" << dep.consumer
            << "_" << k;
        if (remote) out << " [color=red,label=\"C\"]";
        out << ";\n";
      }
    }
  }
  out << "}\n";
  return out.str();
}

std::string schedule_to_json(const Schedule& sched) {
  const TaskGraph& graph = sched.graph();
  std::ostringstream out;
  out << "{\n  \"hyperperiod\": " << graph.hyperperiod()
      << ",\n  \"makespan\": " << sched.makespan() << ",\n  \"tasks\": [\n";
  for (TaskId t = 0; t < static_cast<TaskId>(graph.task_count()); ++t) {
    const Task& task = graph.task(t);
    out << "    {\"name\": \"" << json_escape(task.name) << "\", \"period\": "
        << task.period << ", \"wcet\": " << task.wcet << ", \"memory\": "
        << task.memory << ", \"first_start\": " << sched.first_start(t)
        << ", \"instances\": [";
    const InstanceIdx n = graph.instance_count(t);
    for (InstanceIdx k = 0; k < n; ++k) {
      if (k) out << ", ";
      const TaskInstance inst{t, k};
      out << "{\"k\": " << k << ", \"proc\": " << sched.proc(inst)
          << ", \"start\": " << sched.start(inst) << "}";
    }
    out << "]}";
    if (t + 1 < static_cast<TaskId>(graph.task_count())) out << ",";
    out << "\n";
  }
  out << "  ],\n  \"memory_per_processor\": [";
  for (ProcId p = 0; p < sched.architecture().processor_count(); ++p) {
    if (p) out << ", ";
    out << sched.memory_on(p);
  }
  out << "]\n}\n";
  return out.str();
}

std::string stats_to_json(const BalanceStats& stats) {
  // The facade's superset renderer is the single source of the keys, as
  // for summarize() (report/summary.cpp).
  return solve_stats_to_json(to_solve_stats(stats));
}

}  // namespace lbmem
