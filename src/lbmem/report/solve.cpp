#include "lbmem/report/solve.hpp"

#include <sstream>

#include "lbmem/util/json.hpp"
#include "lbmem/util/table.hpp"

namespace lbmem {

namespace {

void append_mem_list(std::ostringstream& out, const std::vector<Mem>& mems) {
  out << "[";
  for (std::size_t p = 0; p < mems.size(); ++p) {
    if (p) out << ", ";
    out << mems[p];
  }
  out << "]";
}

}  // namespace

std::string summarize_solve(const SolveStats& stats) {
  std::ostringstream out;
  out << "makespan: " << stats.makespan_before << " -> "
      << stats.makespan_after << "  (Gtotal = " << stats.gain_total << ")\n";
  out << "max memory: " << stats.max_memory_before << " -> "
      << stats.max_memory_after << "\n";
  out << "memory per processor: ";
  append_mem_list(out, stats.memory_before);
  out << " -> ";
  append_mem_list(out, stats.memory_after);
  out << "\n";
  if (stats.has_balance) {
    out << "blocks: " << stats.blocks_total << " (" << stats.blocks_category1
        << " category-1), moves off home: " << stats.moves_off_home
        << ", gains applied: " << stats.gains_applied << "\n";
    out << "attempts: " << stats.attempts_used
        << ", forced stays: " << stats.forced_stays
        << (stats.fell_back ? ", FELL BACK to input schedule" : "") << "\n";
  }
  if (stats.has_ga) {
    out << "ga: fitness " << stats.fitness << ", evaluations "
        << stats.evaluations << " (" << stats.infeasible_evaluations
        << " infeasible)\n";
  }
  if (stats.has_partition) {
    out << "partition: max load " << stats.partition_max_load
        << " (lower bound " << stats.partition_lower_bound << ", "
        << (stats.partition_proven_optimal ? "optimal proven"
                                           : "budget-bounded")
        << ", nodes " << stats.partition_nodes << ")\n";
  }
  return out.str();
}

std::string solve_stats_to_json(const SolveStats& stats) {
  std::ostringstream out;
  out << "{\"makespan_before\": " << stats.makespan_before
      << ", \"makespan_after\": " << stats.makespan_after
      << ", \"gain_total\": " << stats.gain_total
      << ", \"max_memory_before\": " << stats.max_memory_before
      << ", \"max_memory_after\": " << stats.max_memory_after;
  if (stats.has_balance) {
    out << ", \"blocks_total\": " << stats.blocks_total
        << ", \"blocks_category1\": " << stats.blocks_category1
        << ", \"moves_off_home\": " << stats.moves_off_home
        << ", \"gains_applied\": " << stats.gains_applied
        << ", \"forced_stays\": " << stats.forced_stays
        << ", \"attempts_used\": " << stats.attempts_used
        << ", \"fell_back\": " << (stats.fell_back ? "true" : "false");
  }
  if (stats.has_ga) {
    out << ", \"fitness\": " << stats.fitness
        << ", \"evaluations\": " << stats.evaluations
        << ", \"infeasible_evaluations\": " << stats.infeasible_evaluations;
  }
  if (stats.has_partition) {
    out << ", \"partition_max_load\": " << stats.partition_max_load
        << ", \"partition_lower_bound\": " << stats.partition_lower_bound
        << ", \"partition_proven_optimal\": "
        << (stats.partition_proven_optimal ? "true" : "false")
        << ", \"partition_nodes\": " << stats.partition_nodes;
  }
  out << ", \"wall_seconds\": " << stats.wall_seconds << "}\n";
  return out.str();
}

std::string summarize_scenario(const ScenarioReport& report,
                               bool include_timing) {
  std::ostringstream out;
  out << "instances: " << report.instances << " (" << report.skipped_seeds
      << " unschedulable seeds skipped)\n";
  const bool robustness = report.replications > 0;
  std::vector<std::string> headers = {"solver", "solved", "mean makespan",
                                      "mean max-mem", "mean gain"};
  if (robustness) {
    headers.push_back("miss p50/p99");
    headers.push_back("span infl");
  }
  if (include_timing) headers.push_back("mean wall (ms)");
  Table table(std::move(headers));
  const auto add_summary_row = [&](const ScenarioSolverSummary& row) {
    std::vector<std::string> cells;
    cells.push_back(row.solver);
    cells.push_back(std::to_string(row.solved) + "/" +
                    std::to_string(report.instances));
    if (row.solved > 0) {
      cells.push_back(format_double(row.mean_makespan, 1));
      cells.push_back(format_double(row.mean_max_memory, 1));
      cells.push_back(format_double(row.mean_gain, 1));
    } else {
      cells.insert(cells.end(), 3, "-");
    }
    if (robustness) {
      if (row.solved > 0) {
        cells.push_back(format_double(row.miss_p50, 3) + "/" +
                        format_double(row.miss_p99, 3));
        cells.push_back(format_double(row.mean_span_inflation, 3));
      } else {
        cells.insert(cells.end(), 2, "-");
      }
    }
    if (include_timing) {
      // Wall time averages over *all* instances, so it is meaningful (and
      // shown) even for a solver that never produced a feasible outcome.
      cells.push_back(format_double(1e3 * row.mean_wall_seconds, 3));
    }
    table.add_row(std::move(cells));
  };
  for (const ScenarioSolverSummary& row : report.summary) {
    add_summary_row(row);
  }
  // The miss-rate-driven virtual policy (DESIGN.md F30) rides as one more
  // summary row plus its per-instance picks — only in adaptive mode, so
  // historic compare output is untouched.
  if (report.adaptive) add_summary_row(report.adaptive_summary);
  out << table.to_string();
  if (report.adaptive) {
    out << "adaptive picks:";
    for (const std::string& pick : report.adaptive_picks) out << " " << pick;
    out << "\n";
  }
  return out.str();
}

std::string scenario_report_to_json(const ScenarioReport& report,
                                    bool include_timing) {
  const bool robustness = report.replications > 0;
  std::ostringstream out;
  out << "{\n  \"instances\": " << report.instances
      << ",\n  \"skipped_seeds\": " << report.skipped_seeds;
  if (robustness) {
    out << ",\n  \"replications\": " << report.replications;
  }
  out << ",\n  \"summary\": [\n";
  for (std::size_t i = 0; i < report.summary.size(); ++i) {
    const ScenarioSolverSummary& row = report.summary[i];
    out << "    {\"solver\": \"" << json_escape(row.solver)
        << "\", \"solved\": " << row.solved
        << ", \"mean_makespan\": " << row.mean_makespan
        << ", \"mean_max_memory\": " << row.mean_max_memory
        << ", \"mean_gain\": " << row.mean_gain;
    if (robustness) {
      out << ", \"miss_p50\": " << row.miss_p50
          << ", \"miss_p99\": " << row.miss_p99
          << ", \"mean_span_inflation\": " << row.mean_span_inflation;
    }
    if (include_timing) {
      out << ", \"mean_wall_seconds\": " << row.mean_wall_seconds;
    }
    out << "}" << (i + 1 < report.summary.size() ? "," : "") << "\n";
  }
  out << "  ]";
  // Adaptive mode only (DESIGN.md F30): the virtual policy's aggregates
  // and its per-instance picks, so historic JSON is byte-identical.
  if (report.adaptive) {
    const ScenarioSolverSummary& row = report.adaptive_summary;
    out << ",\n  \"adaptive\": {\"solved\": " << row.solved
        << ", \"mean_makespan\": " << row.mean_makespan
        << ", \"mean_max_memory\": " << row.mean_max_memory
        << ", \"mean_gain\": " << row.mean_gain
        << ", \"miss_p50\": " << row.miss_p50
        << ", \"miss_p99\": " << row.miss_p99
        << ", \"mean_span_inflation\": " << row.mean_span_inflation;
    if (include_timing) {
      out << ", \"mean_wall_seconds\": " << row.mean_wall_seconds;
    }
    out << ", \"picks\": [";
    for (std::size_t p = 0; p < report.adaptive_picks.size(); ++p) {
      out << (p ? ", " : "") << "\"" << json_escape(report.adaptive_picks[p])
          << "\"";
    }
    out << "]}";
  }
  out << ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const ScenarioCell& cell = report.cells[i];
    out << "    {\"solver\": \"" << json_escape(cell.solver)
        << "\", \"seed\": " << cell.seed
        << ", \"feasible\": " << (cell.feasible ? "true" : "false")
        << ", \"makespan\": " << cell.makespan
        << ", \"max_memory\": " << cell.max_memory
        << ", \"gain\": " << cell.gain;
    if (robustness && cell.perturbed) {
      out << ", \"miss_p50\": " << cell.miss_p50
          << ", \"miss_p99\": " << cell.miss_p99
          << ", \"mean_span_inflation\": " << cell.mean_span_inflation
          << ", \"sim_violations\": " << cell.sim_violations
          << ", \"rep_miss_rates\": [";
      for (std::size_t r = 0; r < cell.rep_miss_rates.size(); ++r) {
        out << (r ? ", " : "") << cell.rep_miss_rates[r];
      }
      out << "]";
    }
    if (include_timing) {
      out << ", \"wall_seconds\": " << cell.wall_seconds;
    }
    out << ", \"detail\": \"" << json_escape(cell.detail) << "\"}"
        << (i + 1 < report.cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

}  // namespace lbmem
