/// Unit tests for the online rebalancing engine (src/lbmem/online/) on the
/// paper's worked example: every event kind, rollback semantics, the
/// migration-penalty knob, and the subset/warm-start rebalance entry point;
/// plus a seeded sweep pinning the engine's id remap to a by-name reference,
/// and the one-pass placement of a full re-place (DESIGN.md F40) pinned to
/// the dirty-set repair of every task it replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "lbmem/gen/event_trace.hpp"
#include "lbmem/gen/paper_example.hpp"
#include "lbmem/gen/random_graph.hpp"
#include "lbmem/gen/suites.hpp"
#include "lbmem/lb/block_builder.hpp"
#include "lbmem/lb/load_balancer.hpp"
#include "lbmem/online/rebalancer.hpp"
#include "lbmem/sched/scheduler.hpp"
#include "lbmem/validate/validator.hpp"

namespace lbmem {
namespace {

Event at(Time when,
         std::variant<TaskArrival, TaskRemoval, WcetChange, ProcessorFailure>
             payload) {
  Event event;
  event.at = when;
  event.payload = std::move(payload);
  return event;
}

/// The paper example, balanced, wrapped in a fresh engine.
Rebalancer make_system(RebalancerOptions options = {}) {
  const TaskGraph graph = paper_example_graph();
  const Schedule before = paper_example_schedule(graph);
  const BalanceResult balanced = LoadBalancer().balance(before);
  return Rebalancer::adopt(graph, balanced.schedule, std::move(options));
}

TEST(Rebalancer, AdoptPreservesTheSchedule) {
  const TaskGraph graph = paper_example_graph();
  const Schedule before = paper_example_schedule(graph);
  const BalanceResult balanced = LoadBalancer().balance(before);
  const Rebalancer system = Rebalancer::adopt(graph, balanced.schedule);
  EXPECT_EQ(system.schedule().makespan(), balanced.schedule.makespan());
  EXPECT_EQ(system.schedule().max_memory(), balanced.schedule.max_memory());
  EXPECT_TRUE(validate(system.schedule()).ok());
  EXPECT_EQ(system.alive_processor_count(), 3);
}

TEST(Rebalancer, WcetIncreaseRepairsAndStaysValid) {
  Rebalancer system = make_system();
  const EventOutcome outcome = system.apply(at(1, WcetChange{"d", 2}));
  EXPECT_TRUE(outcome.applied) << outcome.reject_reason;
  EXPECT_EQ(system.graph().task(system.graph().find("d")).wcet, 2);
  EXPECT_TRUE(validate(system.schedule()).ok())
      << validate(system.schedule()).to_string();
  EXPECT_GE(outcome.repaired_tasks, 1);
}

TEST(Rebalancer, WcetChangeOnUnknownTaskIsRejected) {
  Rebalancer system = make_system();
  const Time makespan = system.schedule().makespan();
  const EventOutcome outcome = system.apply(at(1, WcetChange{"zz", 2}));
  EXPECT_FALSE(outcome.applied);
  EXPECT_FALSE(outcome.reject_reason.empty());
  EXPECT_EQ(system.schedule().makespan(), makespan);
  EXPECT_TRUE(validate(system.schedule()).ok());
}

TEST(Rebalancer, WcetAbovePeriodIsRejectedAndRolledBack) {
  Rebalancer system = make_system();
  const EventOutcome outcome = system.apply(at(1, WcetChange{"a", 7}));
  EXPECT_FALSE(outcome.applied);
  // The graph mutation must have been rolled back.
  EXPECT_EQ(system.graph().task(system.graph().find("a")).wcet, 1);
  EXPECT_TRUE(validate(system.schedule()).ok());
}

TEST(Rebalancer, ArrivalAdmitsANewTask) {
  Rebalancer system = make_system();
  NewTaskSpec spec;
  spec.name = "f";
  spec.period = 12;
  spec.wcet = 1;
  spec.memory = 3;
  spec.producers.push_back(NewTaskSpec::Producer{"b", 2});
  const EventOutcome outcome = system.apply(at(5, TaskArrival{spec}));
  EXPECT_TRUE(outcome.applied) << outcome.reject_reason;
  EXPECT_TRUE(outcome.graph_rebuilt);
  EXPECT_EQ(system.graph().task_count(), 6u);
  EXPECT_TRUE(validate(system.schedule()).ok())
      << validate(system.schedule()).to_string();
  // The new task is placed and data-ready.
  const TaskId f = system.graph().find("f");
  EXPECT_NE(system.schedule().proc(TaskInstance{f, 0}), kNoProc);
}

TEST(Rebalancer, ArrivalWithDuplicateNameIsRejected) {
  Rebalancer system = make_system();
  NewTaskSpec spec;
  spec.name = "a";  // already alive
  spec.period = 6;
  spec.wcet = 1;
  spec.memory = 1;
  const EventOutcome outcome = system.apply(at(5, TaskArrival{spec}));
  EXPECT_FALSE(outcome.applied);
  EXPECT_EQ(system.graph().task_count(), 5u);
  EXPECT_TRUE(validate(system.schedule()).ok());
}

TEST(Rebalancer, ArrivalWithUnknownProducerIsRejected) {
  Rebalancer system = make_system();
  NewTaskSpec spec;
  spec.name = "f";
  spec.period = 12;
  spec.wcet = 1;
  spec.memory = 1;
  spec.producers.push_back(NewTaskSpec::Producer{"ghost", 1});
  const EventOutcome outcome = system.apply(at(5, TaskArrival{spec}));
  EXPECT_FALSE(outcome.applied);
  EXPECT_EQ(system.graph().task_count(), 5u);
}

TEST(Rebalancer, ArrivalCanGrowTheHyperperiod) {
  Rebalancer system = make_system();
  NewTaskSpec spec;
  spec.name = "slow";
  spec.period = 24;  // lcm(12, 24) = 24: the hyper-period doubles
  spec.wcet = 2;
  spec.memory = 2;
  const EventOutcome outcome = system.apply(at(5, TaskArrival{spec}));
  EXPECT_TRUE(outcome.applied) << outcome.reject_reason;
  EXPECT_EQ(system.graph().hyperperiod(), 24);
  EXPECT_TRUE(validate(system.schedule()).ok())
      << validate(system.schedule()).to_string();
}

TEST(Rebalancer, RemovalDropsTheTaskAndItsEdges) {
  Rebalancer system = make_system();
  const EventOutcome outcome = system.apply(at(3, TaskRemoval{"e"}));
  EXPECT_TRUE(outcome.applied) << outcome.reject_reason;
  EXPECT_TRUE(outcome.graph_rebuilt);
  EXPECT_EQ(system.graph().task_count(), 4u);
  EXPECT_EQ(system.graph().hyperperiod(), 12);  // d still has period 12
  EXPECT_TRUE(validate(system.schedule()).ok())
      << validate(system.schedule()).to_string();
}

TEST(Rebalancer, RemovalCanShrinkTheHyperperiodViaFullReplace) {
  Rebalancer system = make_system();
  ASSERT_TRUE(system.apply(at(3, TaskRemoval{"e"})).applied);
  const EventOutcome outcome = system.apply(at(4, TaskRemoval{"d"}));
  EXPECT_TRUE(outcome.applied) << outcome.reject_reason;
  EXPECT_TRUE(outcome.full_replace);
  EXPECT_EQ(system.graph().hyperperiod(), 6);  // periods {3, 6} remain
  EXPECT_TRUE(validate(system.schedule()).ok())
      << validate(system.schedule()).to_string();
}

TEST(Rebalancer, FailureEvacuatesTheProcessor) {
  Rebalancer system = make_system();
  const EventOutcome outcome = system.apply(at(9, ProcessorFailure{2}));
  EXPECT_TRUE(outcome.applied) << outcome.reject_reason;
  EXPECT_TRUE(system.schedule().instances_on(2).empty());
  EXPECT_EQ(system.alive_processor_count(), 2);
  EXPECT_TRUE(validate(system.schedule()).ok())
      << validate(system.schedule()).to_string();
  EXPECT_GT(outcome.migrated_instances, 0);
}

TEST(Rebalancer, FailuresStopAtTheLastProcessor) {
  Rebalancer system = make_system();
  ASSERT_TRUE(system.apply(at(1, ProcessorFailure{1})).applied);
  ASSERT_TRUE(system.apply(at(2, ProcessorFailure{2})).applied);
  // Everything now lives on P1 and the system is still valid.
  EXPECT_TRUE(system.schedule().instances_on(1).empty());
  EXPECT_TRUE(system.schedule().instances_on(2).empty());
  EXPECT_TRUE(validate(system.schedule()).ok())
      << validate(system.schedule()).to_string();
  const EventOutcome last = system.apply(at(3, ProcessorFailure{0}));
  EXPECT_FALSE(last.applied);
  EXPECT_EQ(system.alive_processor_count(), 1);
}

TEST(Rebalancer, DoubleFailureOfTheSameProcessorIsRejected) {
  Rebalancer system = make_system();
  ASSERT_TRUE(system.apply(at(1, ProcessorFailure{2})).applied);
  const EventOutcome outcome = system.apply(at(2, ProcessorFailure{2}));
  EXPECT_FALSE(outcome.applied);
}

TEST(Rebalancer, FailedProcessorNeverReceivesLaterWork) {
  Rebalancer system = make_system();
  ASSERT_TRUE(system.apply(at(1, ProcessorFailure{2})).applied);
  NewTaskSpec spec;
  spec.name = "f";
  spec.period = 12;
  spec.wcet = 1;
  spec.memory = 1;
  ASSERT_TRUE(system.apply(at(2, TaskArrival{spec})).applied);
  ASSERT_TRUE(system.apply(at(3, WcetChange{"f", 2})).applied);
  EXPECT_TRUE(system.schedule().instances_on(2).empty());
  EXPECT_TRUE(validate(system.schedule()).ok());
}

TEST(Rebalancer, IncrementalAndFullModesBothStayValid) {
  RebalancerOptions full;
  full.incremental = false;
  Rebalancer inc = make_system();
  Rebalancer ref = make_system(full);
  const std::vector<Event> events = {
      at(1, WcetChange{"d", 2}), at(2, TaskRemoval{"c"}),
      at(3, ProcessorFailure{1}), at(4, WcetChange{"d", 1})};
  for (const Event& event : events) {
    const EventOutcome a = inc.apply(event);
    const EventOutcome b = ref.apply(event);
    EXPECT_EQ(a.applied, b.applied) << to_string(event);
    EXPECT_TRUE(validate(inc.schedule()).ok()) << to_string(event);
    EXPECT_TRUE(validate(ref.schedule()).ok()) << to_string(event);
  }
}

using ProcsByName = std::map<std::string, std::vector<ProcId>>;

/// Task name -> processor of each instance (the reference's pre-event
/// snapshot).
ProcsByName procs_by_name(const Schedule& s) {
  ProcsByName procs;
  const TaskGraph& g = s.graph();
  for (TaskId t = 0; t < static_cast<TaskId>(g.task_count()); ++t) {
    std::vector<ProcId>& row = procs[g.task(t).name];
    for (InstanceIdx k = 0; k < g.instance_count(t); ++k) {
      row.push_back(s.proc(TaskInstance{t, k}));
    }
  }
  return procs;
}

/// The by-name definition of EventOutcome::migrated_instances, kept as the
/// reference for the engine's id remap: instances of tasks alive on both
/// sides (up to the shorter instance count) whose processor changed.
int migrations_by_name(const ProcsByName& before, const Schedule& after) {
  const TaskGraph& g = after.graph();
  int migrations = 0;
  for (TaskId t = 0; t < static_cast<TaskId>(g.task_count()); ++t) {
    const auto it = before.find(g.task(t).name);
    if (it == before.end()) continue;  // arrived with this event
    const InstanceIdx n = std::min(
        static_cast<InstanceIdx>(it->second.size()), g.instance_count(t));
    for (InstanceIdx k = 0; k < n; ++k) {
      if (it->second[static_cast<std::size_t>(k)] !=
          after.proc(TaskInstance{t, k})) {
        ++migrations;
      }
    }
  }
  return migrations;
}

std::vector<std::string> task_names(const TaskGraph& g) {
  std::vector<std::string> names;
  for (const Task& task : g.tasks()) names.push_back(task.name);
  return names;
}

TEST(Rebalancer, IdRemapMatchesTheByNameReference) {
  int shed_events = 0;
  int grew = 0;
  int shrank = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const bool tight : {false, true}) {
      for (const bool degraded : {false, true}) {
        const int procs = 2 + static_cast<int>(seed % 3);
        RandomGraphParams params;
        params.tasks = 20 + 20 * static_cast<int>(seed % 3);
        params.intended_processors = procs;
        auto graph =
            std::make_unique<TaskGraph>(random_task_graph(params, seed));
        const CommModel comm = CommModel::flat(2);
        // Tight: the capacity is the initial schedule's own peak, so a
        // failure cannot be absorbed whole and the ladder has to shed.
        const Mem cap =
            tight ? build_initial_schedule(*graph, Architecture(procs), comm)
                        .max_memory()
                  : kUnlimitedMemory;
        const Architecture arch(procs, cap);
        BalanceOptions balance;
        balance.enforce_memory_capacity = tight;
        BalanceResult balanced = LoadBalancer(balance).balance(
            build_initial_schedule(*graph, arch, comm));

        EventTraceParams trace_params;
        trace_params.events = 24;
        trace_params.failure_weight = 0.2;
        trace_params.max_failures = procs - 1;
        EventTrace trace =
            random_event_trace(*graph, arch, trace_params, seed + 100);
        // An arrival whose period doubles the largest one grows the
        // hyper-period; removing it again shrinks it back.
        Time longest = 0;
        for (const Task& task : graph->tasks()) {
          longest = std::max(longest, task.period);
        }
        NewTaskSpec slow;
        slow.name = "slow";
        slow.period = 2 * longest;
        slow.wcet = 1;
        slow.memory = 1;
        slow.producers.push_back({graph->task(0).name, 1});
        trace.insert(trace.begin() + 4,
                     Event{trace[3].at, TaskArrival{slow}});
        trace.insert(trace.begin() + 12,
                     Event{trace[11].at, TaskRemoval{"slow"}});

        RebalancerOptions options;
        options.balance.enforce_memory_capacity = tight;
        options.degraded = degraded;
        Rebalancer system(std::move(graph), std::move(balanced.schedule),
                          options);
        for (const Event& event : trace) {
          const ProcsByName before = procs_by_name(system.schedule());
          std::vector<std::string> names = task_names(system.graph());
          const Time h = system.graph().hyperperiod();
          const EventOutcome out = system.apply(event);
          if (!out.applied) continue;
          const std::string where = "seed " + std::to_string(seed) +
                                    (tight ? " tight" : "") +
                                    (degraded ? " degraded " : " ") +
                                    to_string(event);
          EXPECT_EQ(out.migrated_instances,
                    migrations_by_name(before, system.schedule()))
              << where;
          if (event.kind() == EventKind::TaskArrival) {
            names.push_back(std::get<TaskArrival>(event.payload).spec.name);
          }
          std::vector<std::string> gone = out.shed;
          if (event.kind() == EventKind::TaskRemoval) {
            gone.push_back(std::get<TaskRemoval>(event.payload).task);
          }
          std::erase_if(names, [&](const std::string& name) {
            return std::find(gone.begin(), gone.end(), name) != gone.end();
          });
          EXPECT_EQ(task_names(system.graph()), names) << where;
          const ValidationReport report = validate(system.schedule());
          EXPECT_TRUE(report.ok()) << where << "\n" << report.to_string();
          shed_events += out.shed.empty() ? 0 : 1;
          grew += system.graph().hyperperiod() > h ? 1 : 0;
          shrank += system.graph().hyperperiod() < h ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(shed_events, 0);
  EXPECT_GT(grew, 0);
  EXPECT_GT(shrank, 0);
}

TEST(MigrationPenalty, HugePenaltyKeepsEveryBlockHome) {
  const TaskGraph graph = paper_example_graph();
  const Schedule before = paper_example_schedule(graph);
  BalanceOptions options;
  options.migration_penalty = 1000;
  const BalanceResult result = LoadBalancer(options).balance(before);
  EXPECT_EQ(result.stats.moves_off_home, 0);
  // No moves, no gains: the schedule is the input.
  EXPECT_EQ(result.schedule.makespan(), 15);
  EXPECT_TRUE(validate(result.schedule).ok());
}

TEST(MigrationPenalty, GainDisabledRunsAreExemptFromTheGate) {
  // max_gain = 0 is the pure memory-spreading mode (and the shape of the
  // balancer's validation-failure retry). There are no gains to price, so
  // the penalty must not block the spreading moves (DESIGN.md F9).
  const TaskGraph graph = paper_example_graph();
  const Schedule before = paper_example_schedule(graph);
  BalanceOptions spreading;
  spreading.max_gain = 0;
  const BalanceResult plain = LoadBalancer(spreading).balance(before);
  ASSERT_GT(plain.stats.moves_off_home, 0);

  BalanceOptions priced = spreading;
  priced.migration_penalty = 1000;
  const BalanceResult gated = LoadBalancer(priced).balance(before);
  EXPECT_EQ(gated.stats.moves_off_home, plain.stats.moves_off_home);
  for (const TaskInstance inst : before.all_instances()) {
    EXPECT_EQ(gated.schedule.proc(inst), plain.schedule.proc(inst));
  }
}

TEST(MigrationPenalty, ZeroPenaltyReproducesThePaperResult) {
  const TaskGraph graph = paper_example_graph();
  const Schedule before = paper_example_schedule(graph);
  BalanceOptions options;
  options.migration_penalty = 0;
  const BalanceResult result = LoadBalancer(options).balance(before);
  EXPECT_EQ(result.schedule.makespan(), 14);
}

TEST(RebalanceSubset, FullSeedSetReproducesBalance) {
  const TaskGraph graph = paper_example_graph();
  const Schedule before = paper_example_schedule(graph);

  const BalanceResult full = LoadBalancer().balance(before);

  std::vector<TaskId> all_tasks;
  for (TaskId t = 0; t < static_cast<TaskId>(graph.task_count()); ++t) {
    all_tasks.push_back(t);
  }
  EpochSet visited;
  const BlockDecomposition dec =
      build_blocks_around(before, all_tasks, visited);
  const BlockDecomposition reference = build_blocks(before);
  ASSERT_EQ(dec.blocks.size(), reference.blocks.size());
  for (std::size_t i = 0; i < dec.blocks.size(); ++i) {
    EXPECT_EQ(dec.blocks[i].members, reference.blocks[i].members)
        << "block " << i;
    EXPECT_EQ(dec.blocks[i].home, reference.blocks[i].home);
    EXPECT_EQ(dec.blocks[i].category, reference.blocks[i].category);
  }
  // The partial decomposition's sparse index agrees with the dense one.
  for (const TaskInstance inst : before.all_instances()) {
    EXPECT_EQ(dec.find(inst), reference.find(inst));
  }

  Schedule subset = before;
  std::vector<ProcTimeline> occupancy = build_occupancy(subset);
  LoadBalancer().rebalance(subset, occupancy, dec);
  EXPECT_EQ(subset.makespan(), full.schedule.makespan());
  for (const TaskInstance inst : before.all_instances()) {
    EXPECT_EQ(subset.proc(inst), full.schedule.proc(inst));
  }
  for (TaskId t = 0; t < static_cast<TaskId>(graph.task_count()); ++t) {
    EXPECT_EQ(subset.first_start(t), full.schedule.first_start(t));
  }
}

TEST(RebalanceSubset, WarmOccupancyMatchesColdRebuild) {
  // rebalance() keeps the occupancy it edits in place mirroring the
  // schedule: afterwards it holds exactly the pieces a cold
  // build_occupancy() of the result holds.
  const TaskGraph graph = paper_example_graph();
  const Schedule before = paper_example_schedule(graph);
  std::vector<TaskId> all_tasks;
  for (TaskId t = 0; t < static_cast<TaskId>(graph.task_count()); ++t) {
    all_tasks.push_back(t);
  }
  EpochSet visited;
  const BlockDecomposition dec =
      build_blocks_around(before, all_tasks, visited);
  Schedule sched = before;
  std::vector<ProcTimeline> warm = build_occupancy(sched);
  const RebalanceResult result = LoadBalancer().rebalance(sched, warm, dec);
  ASSERT_FALSE(result.stats.fell_back);
  EXPECT_GT(result.stats.moves_off_home, 0);
  const std::vector<ProcTimeline> cold = build_occupancy(sched);
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t p = 0; p < warm.size(); ++p) {
    EXPECT_TRUE(warm[p].same_pieces(cold[p])) << "processor " << p;
    EXPECT_TRUE(warm[p].check_index_integrity()) << "processor " << p;
  }
}

// ---- The one-pass placement of a full re-place (DESIGN.md F40) ----------

/// A full re-place as the engine ran it before place_fresh(): the dirty-set
/// repair with every task dirty, on the empty schedule behind a recording
/// \p edits — its rank-keyed dirty queue, detach, residency projection,
/// processor loop and cascade check. The reference place_fresh() must
/// reproduce exactly.
std::string repair_every_task(ScheduleJournal& edits,
                              std::span<const ProcId> preferred,
                              const std::vector<std::uint8_t>& failed,
                              std::vector<TaskId>& repaired) {
  const Schedule& work = edits.schedule();
  const TaskGraph& graph = work.graph();
  std::set<std::pair<std::int32_t, TaskId>> dirty;
  const auto key = [&](TaskId t) {
    return std::pair{graph.topological_rank(t), t};
  };
  for (TaskId t = 0; t < static_cast<TaskId>(graph.task_count()); ++t) {
    dirty.insert(key(t));
  }
  const auto detach = [&](TaskId t) {
    for (InstanceIdx k = 0; k < graph.instance_count(t); ++k) {
      const TaskInstance inst{t, k};
      const ProcId p = work.proc(inst);
      if (p != kNoProc) edits.remove(p, inst, work.start(inst));
    }
  };
  for (const auto& [rank, t] : dirty) detach(t);
  std::vector<Mem> resident;
  std::vector<Time> bounds;
  while (!dirty.empty()) {
    const TaskId t = dirty.begin()->second;
    dirty.erase(dirty.begin());
    detach(t);
    const Task& task = graph.task(t);
    const InstanceIdx n = graph.instance_count(t);
    const ProcId pref = preferred[static_cast<std::size_t>(t)];
    const Architecture& arch = work.architecture();
    resident.assign(static_cast<std::size_t>(arch.processor_count()), 0);
    for (InstanceIdx k = 0; k < n; ++k) {
      const ProcId p = work.proc(TaskInstance{t, k});
      if (p != kNoProc) resident[static_cast<std::size_t>(p)] += task.memory;
    }
    precedence_lower_bounds(work, t, bounds);
    ProcId best_proc = kNoProc;
    Time best_start = 0;
    for (ProcId p = 0; p < arch.processor_count(); ++p) {
      const auto i = static_cast<std::size_t>(p);
      if (failed[i]) continue;
      if (arch.has_memory_limit() &&
          work.memory_on(p) - resident[i] + task.memory * static_cast<Mem>(n) >
              arch.memory_capacity()) {
        continue;
      }
      const auto start = edits.occupancy()[i].earliest_fit(
          bounds[i], task.period, task.wcet, n);
      if (!start) continue;
      bool better = false;
      if (best_proc == kNoProc) {
        better = true;
      } else if (*start != best_start) {
        better = *start < best_start;
      } else {
        const bool cand_pref = (p == pref);
        const bool best_pref = (best_proc == pref);
        if (cand_pref != best_pref) {
          better = cand_pref;
        } else {
          better = work.memory_on(p) < work.memory_on(best_proc);
        }
      }
      if (better) {
        best_proc = p;
        best_start = *start;
      }
    }
    if (best_proc == kNoProc) {
      return "no feasible placement for task " + task.name;
    }
    commit_whole_task(edits, t, best_proc, best_start);
    repaired.push_back(t);
    for (const std::int32_t e : graph.deps_out(t)) {
      const Dependence& dep = graph.dependences()[static_cast<std::size_t>(e)];
      if (dirty.contains(key(dep.consumer))) continue;
      for (InstanceIdx k = 0; k < graph.instance_count(dep.consumer); ++k) {
        const TaskInstance inst{dep.consumer, k};
        if (work.data_ready(inst, work.proc(inst)) > work.start(inst)) {
          dirty.insert(key(dep.consumer));
          break;
        }
      }
    }
  }
  return {};
}

/// One instance of the perfbench family (period levels 3, edge probability
/// 0.15, in-degree at most 2, M = 8, C = 2) at \p tasks tasks.
SuiteInstance perfbench_instance(int tasks) {
  SuiteSpec spec;
  spec.params.tasks = tasks;
  spec.params.period_levels = 3;
  spec.params.edge_probability = 0.15;
  spec.params.max_in_degree = 2;
  spec.processors = 8;
  spec.comm_cost = 2;
  spec.count = 1;
  spec.base_seed = 61'000 + static_cast<std::uint64_t>(tasks);
  spec.max_seed_attempts = 400;
  std::vector<SuiteInstance> suite = make_suite(spec);
  EXPECT_EQ(suite.size(), 1u);
  return std::move(suite.front());
}

TEST(RebalancerFreshPass, MatchesTheDirtySetRepairOfEveryTask) {
  // place_fresh() against the repair it replaced, on empty schedules of the
  // perfbench family: 0-3 failed processors; no capacity, a capacity that
  // shapes the choices, and one too tight for every task to fit; each
  // task's preference from a balanced schedule, and none. Starts,
  // processors, the occupancy and the reject reason must all match.
  int rejected = 0;
  int completed = 0;
  for (const int tasks : {60, 400, 2000}) {
    const SuiteInstance instance = perfbench_instance(tasks);
    const TaskGraph& graph = *instance.graph;
    const Schedule balanced =
        LoadBalancer().balance(instance.schedule).schedule;
    std::vector<ProcId> from_balanced;
    Mem demand = 0;
    for (TaskId t = 0; t < static_cast<TaskId>(graph.task_count()); ++t) {
      from_balanced.push_back(balanced.proc(TaskInstance{t, 0}));
      demand += graph.task(t).memory * graph.instance_count(t);
    }
    const std::vector<ProcId> no_preference(graph.task_count(), kNoProc);
    const std::vector<ProcId>* const preferences[] = {&from_balanced,
                                                      &no_preference};
    for (int dead = 0; dead <= 3; ++dead) {
      std::vector<std::uint8_t> failed(8, 0);
      for (int i = 0; i < dead; ++i) failed[static_cast<std::size_t>(3 * i + 1)] = 1;
      const Mem alive = 8 - dead;
      for (const Mem capacity : {kUnlimitedMemory, demand * 5 / (4 * alive),
                                 demand * 9 / (10 * alive)}) {
        const Architecture arch(8, capacity);
        for (const std::vector<ProcId>* preferred : preferences) {
          SCOPED_TRACE("N=" + std::to_string(tasks) + " failed=" +
                       std::to_string(dead) + " capacity=" +
                       std::to_string(capacity) + " preferences=" +
                       (preferred == &no_preference ? "none" : "balanced"));
          Schedule ref_sched(graph, arch, instance.schedule.comm());
          std::vector<ProcTimeline> ref_occ(8, ProcTimeline(graph.hyperperiod()));
          ScheduleJournal ref_edits(ref_sched, ref_occ);
          std::vector<TaskId> ref_placed;
          const std::string ref_err =
              repair_every_task(ref_edits, *preferred, failed, ref_placed);
          ref_edits.commit();

          Schedule sched(graph, arch, instance.schedule.comm());
          std::vector<ProcTimeline> occ(8, ProcTimeline(graph.hyperperiod()));
          ScheduleJournal edits(sched, occ, /*record=*/false);
          std::vector<TaskId> placed;
          const std::string err =
              place_fresh(edits, *preferred, failed, placed);

          ASSERT_EQ(err, ref_err);
          ASSERT_EQ(placed, ref_placed);
          for (const TaskId t : placed) {
            ASSERT_EQ(sched.first_start(t), ref_sched.first_start(t))
                << graph.task(t).name;
            for (InstanceIdx k = 0; k < graph.instance_count(t); ++k) {
              ASSERT_EQ(sched.proc(TaskInstance{t, k}),
                        ref_sched.proc(TaskInstance{t, k}))
                  << graph.task(t).name << " instance " << k;
            }
          }
          for (std::size_t p = 0; p < occ.size(); ++p) {
            ASSERT_TRUE(occ[p].same_pieces(ref_occ[p])) << "processor " << p;
            ASSERT_EQ(sched.memory_on(static_cast<ProcId>(p)),
                      ref_sched.memory_on(static_cast<ProcId>(p)));
          }
          if (err.empty()) {
            ++completed;
            EXPECT_TRUE(sched.complete());
            EXPECT_TRUE(validate(sched).ok()) << validate(sched).to_string();
          } else {
            ++rejected;
          }
        }
      }
    }
  }
  // The sweep reaches both outcomes.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(completed, 0);
}

}  // namespace
}  // namespace lbmem
