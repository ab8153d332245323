/// Rejected events leave the online engine's state untouched (DESIGN.md
/// F14). A seeded sweep over generated instances, with memory capacity on
/// and off and the degraded ladder on and off, interleaves applied traffic
/// with a reject of every kind: unknown task, WCET above the period,
/// failure of a failed or of the last alive processor, an arrival no
/// processor can hold under the capacity, and an arrival whose period would
/// expand the hyper-period past the instance index. After each reject every
/// aggregate must equal the pre-event state and the engine's occupancy must
/// hold exactly the schedule's pieces (Debug builds also check that inside
/// apply()).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "lbmem/gen/event_trace.hpp"
#include "lbmem/gen/suites.hpp"
#include "lbmem/online/rebalancer.hpp"
#include "lbmem/sched/journal.hpp"
#include "lbmem/validate/validator.hpp"

namespace lbmem {
namespace {

/// Everything an event may change.
struct EngineState {
  std::vector<std::string> names;
  std::vector<Time> starts;
  std::vector<ProcId> procs;
  std::vector<Mem> memory;
  std::vector<Time> busy;
  std::vector<Time> wcets;
  std::vector<std::uint8_t> failed;
  std::vector<std::string> shed;
  bool operator==(const EngineState&) const = default;
};

/// Does the engine's occupancy hold exactly the pieces of its schedule?
bool occupancy_mirrors(const Rebalancer& engine) {
  const std::vector<ProcTimeline> fresh = build_occupancy(engine.schedule());
  const std::vector<ProcTimeline>& occ = engine.occupancy();
  return std::equal(occ.begin(), occ.end(), fresh.begin(), fresh.end(),
                    [](const ProcTimeline& a, const ProcTimeline& b) {
                      return a.same_pieces(b);
                    });
}

EngineState capture(const Rebalancer& engine) {
  EngineState state;
  const Schedule& sched = engine.schedule();
  const TaskGraph& graph = engine.graph();
  for (TaskId t = 0; t < static_cast<TaskId>(graph.task_count()); ++t) {
    state.names.push_back(graph.task(t).name);
    state.starts.push_back(sched.first_start(t));
    state.wcets.push_back(graph.task(t).wcet);
    for (InstanceIdx k = 0; k < graph.instance_count(t); ++k) {
      state.procs.push_back(sched.proc(TaskInstance{t, k}));
    }
  }
  for (ProcId p = 0; p < sched.architecture().processor_count(); ++p) {
    state.memory.push_back(sched.memory_on(p));
    state.busy.push_back(sched.busy_on(p));
  }
  state.failed = engine.failed_procs();
  state.shed = engine.shed_tasks();
  return state;
}

/// The engine over \p instance, under a capacity 10 % above its peak
/// processor memory when \p cap is set.
Rebalancer make_engine(const SuiteInstance& instance, bool cap,
                       bool degraded, Mem* capacity) {
  const Schedule& sched = instance.schedule;
  const int procs = sched.architecture().processor_count();
  *capacity = cap ? sched.max_memory() * 11 / 10 : kUnlimitedMemory;
  Schedule placed(sched.graph(), Architecture(procs, *capacity),
                  sched.comm());
  for (TaskId t = 0; t < static_cast<TaskId>(sched.graph().task_count());
       ++t) {
    placed.set_first_start(t, sched.first_start(t));
  }
  for (const TaskInstance inst : sched.all_instances()) {
    placed.assign(inst, sched.proc(inst));
  }
  RebalancerOptions options;
  options.balance.enforce_memory_capacity = cap;
  options.degraded = degraded;
  return Rebalancer::adopt(*instance.graph, placed, options);
}

/// One event of each reject kind, built against the current state.
std::vector<std::pair<std::string, Event>> rejects(const Rebalancer& engine,
                                                   Mem capacity) {
  const TaskGraph& graph = engine.graph();
  const Task& first = graph.task(0);
  std::vector<std::pair<std::string, Event>> out;
  out.emplace_back("unknown task", Event{0, WcetChange{"no-such-task", 3}});
  out.emplace_back("wcet above period",
                   Event{0, WcetChange{first.name, first.period + 1}});
  out.emplace_back("unknown removal", Event{0, TaskRemoval{"no-such-task"}});
  const std::vector<std::uint8_t>& failed = engine.failed_procs();
  for (ProcId p = 0; p < static_cast<ProcId>(failed.size()); ++p) {
    if (failed[static_cast<std::size_t>(p)]) {
      out.emplace_back("failed processor", Event{0, ProcessorFailure{p}});
      break;
    }
  }
  NewTaskSpec big;
  big.name = "coprime";
  big.period = 4294967311;
  big.wcet = 1;
  big.memory = 1;
  out.emplace_back("instance overflow", Event{0, TaskArrival{big}});
  NewTaskSpec twin;
  twin.name = first.name;
  twin.period = first.period;
  twin.wcet = 1;
  out.emplace_back("duplicate name", Event{0, TaskArrival{twin}});
  if (capacity != kUnlimitedMemory) {
    NewTaskSpec hog;
    hog.name = "hog";
    hog.period = first.period;
    hog.wcet = 1;
    hog.memory = capacity + 1;
    out.emplace_back("over capacity", Event{0, TaskArrival{hog}});
  }
  return out;
}

TEST(RejectSweep, RejectsLeaveEveryAggregateUntouched) {
  std::map<std::string, int> rejected;
  int applied = 0;
  for (const bool cap : {false, true}) {
    for (const bool degraded : {false, true}) {
      SuiteSpec spec;
      spec.params.tasks = 30;
      spec.params.period_levels = 3;
      spec.params.edge_probability = 0.2;
      spec.processors = 4;
      spec.count = 2;
      spec.base_seed = 700 + (cap ? 10 : 0) + (degraded ? 20 : 0);
      std::vector<SuiteInstance> instances = make_suite(spec);
      // A light two-processor system survives one failure, so the second
      // one is the last alive processor's.
      spec.params.tasks = 6;
      spec.processors = 2;
      spec.count = 1;
      for (SuiteInstance& light : make_suite(spec)) {
        instances.push_back(std::move(light));
      }
      for (const SuiteInstance& instance : instances) {
        Mem capacity = 0;
        Rebalancer engine = make_engine(instance, cap, degraded, &capacity);
        EventTraceParams params;
        params.events = 24;
        params.max_failures = 2;
        const EventTrace traffic =
            random_event_trace(engine.graph(),
                               engine.schedule().architecture(), params,
                               instance.seed);
        const auto apply = [&](const std::string& label, const Event& event) {
          const EngineState before = capture(engine);
          const EventOutcome out = engine.apply(event);
          if (out.applied) {
            ++applied;
            EXPECT_TRUE(validate(engine.schedule()).ok()) << label;
            return;
          }
          ++rejected[label];
          EXPECT_TRUE(capture(engine) == before)
              << label << " (" << out.reject_reason << ") changed the state; "
              << "seed " << instance.seed << " cap " << cap << " degraded "
              << degraded;
          EXPECT_TRUE(occupancy_mirrors(engine))
              << label << " (" << out.reject_reason << ") left the "
              << "occupancy behind the schedule; seed " << instance.seed;
        };
        for (std::size_t i = 0; i < traffic.size(); ++i) {
          apply("traffic", traffic[i]);
          if (i % 4 != 3) continue;
          for (const auto& [label, event] : rejects(engine, capacity)) {
            apply(label, event);
          }
        }
        // Fail processors until one is left, then the last one.
        for (ProcId p = 0; engine.alive_processor_count() > 1 &&
                           p < engine.schedule().architecture()
                                   .processor_count();
             ++p) {
          apply("traffic", Event{0, ProcessorFailure{p}});
        }
        if (engine.alive_processor_count() == 1) {
          for (ProcId p = 0; p < static_cast<ProcId>(
                                     engine.failed_procs().size());
               ++p) {
            if (!engine.failed_procs()[static_cast<std::size_t>(p)]) {
              apply("last processor", Event{0, ProcessorFailure{p}});
            }
          }
        }
      }
    }
  }
  EXPECT_GT(applied, 50);
  for (const char* label :
       {"unknown task", "wcet above period", "unknown removal",
        "failed processor", "instance overflow", "duplicate name",
        "over capacity", "last processor"}) {
    EXPECT_GT(rejected[label], 0) << label;
  }
}

}  // namespace
}  // namespace lbmem
