/// Unit tests for DOT/JSON export (lbmem/report/export.hpp) and the Gantt
/// / summary renderers.

#include <gtest/gtest.h>

#include "lbmem/gen/paper_example.hpp"
#include "lbmem/lb/block_builder.hpp"
#include "lbmem/lb/load_balancer.hpp"
#include "lbmem/report/export.hpp"
#include "lbmem/report/gantt.hpp"
#include "lbmem/report/summary.hpp"

namespace lbmem {
namespace {

class ExportTest : public ::testing::Test {
 protected:
  ExportTest()
      : graph_(paper_example_graph()),
        schedule_(paper_example_schedule(graph_)) {}
  TaskGraph graph_;
  Schedule schedule_;
};

TEST_F(ExportTest, GraphDotContainsAllTasksAndEdges) {
  const std::string dot = graph_to_dot(graph_);
  EXPECT_NE(dot.find("digraph application"), std::string::npos);
  for (const auto& task : graph_.tasks()) {
    EXPECT_NE(dot.find(task.name + "\\nT="), std::string::npos)
        << task.name;
  }
  // 5 edges.
  std::size_t arrows = 0;
  for (std::size_t pos = 0; (pos = dot.find(" -> ", pos)) != std::string::npos;
       ++pos) {
    ++arrows;
  }
  EXPECT_EQ(arrows, 5u);
}

TEST_F(ExportTest, ScheduleDotClustersPerProcessor) {
  const std::string dot = schedule_to_dot(schedule_);
  EXPECT_NE(dot.find("cluster_p0"), std::string::npos);
  EXPECT_NE(dot.find("cluster_p2"), std::string::npos);
  EXPECT_NE(dot.find("(mem 16)"), std::string::npos);
  // Remote dependences are marked.
  EXPECT_NE(dot.find("color=red"), std::string::npos);
}

TEST_F(ExportTest, ScheduleJsonRoundFigures) {
  const std::string json = schedule_to_json(schedule_);
  EXPECT_NE(json.find("\"hyperperiod\": 12"), std::string::npos);
  EXPECT_NE(json.find("\"makespan\": 15"), std::string::npos);
  EXPECT_NE(json.find("\"memory_per_processor\": [16, 4, 4]"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\": \"a\""), std::string::npos);
  EXPECT_NE(json.find("\"first_start\": 5"), std::string::npos);  // task b
}

TEST_F(ExportTest, ScheduleJsonEscapesTaskNames) {
  // Task names are free-form (a served arrival may carry any of these): a
  // quote, a backslash and a control character must leave valid JSON.
  TaskGraph g;
  g.add_task("q\"x\\y\x01z", 4, 1, 1);
  g.freeze();
  Schedule s(g, Architecture(1), CommModel::flat(1));
  s.set_first_start(0, 0);
  s.assign_all(0, 0);
  const std::string json = schedule_to_json(s);
  EXPECT_NE(json.find("\"name\": \"q\\\"x\\\\y\\u0001z\","),
            std::string::npos)
      << json;
}

TEST_F(ExportTest, StatsJson) {
  const BalanceResult r = LoadBalancer().balance(schedule_);
  const std::string json = stats_to_json(r.stats);
  EXPECT_NE(json.find("\"makespan_before\": 15"), std::string::npos);
  EXPECT_NE(json.find("\"makespan_after\": 14"), std::string::npos);
  EXPECT_NE(json.find("\"gain_total\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"fell_back\": false"), std::string::npos);
}

TEST_F(ExportTest, DotEscaping) {
  TaskGraph g;
  g.add_task("weird\"name", 4, 1, 1);
  g.freeze();
  const std::string dot = graph_to_dot(g);
  EXPECT_NE(dot.find("weird\\\"name"), std::string::npos);
}

TEST_F(ExportTest, GanttScalesLongSchedules) {
  // A long hyper-period must compress into max_width columns.
  TaskGraph g;
  g.add_task("x", 1000, 100, 1);
  g.freeze();
  Schedule s(g, Architecture(1), CommModel::flat(1));
  s.set_first_start(0, 0);
  s.assign_all(0, 0);
  GanttOptions options;
  options.max_width = 50;
  const std::string chart = render_gantt(s, options);
  std::istringstream lines(chart);
  std::string line;
  while (std::getline(lines, line)) {
    EXPECT_LE(line.size(), 120u);
  }
  // makespan is 100 (single instance of wcet 100): 100/50 = 2 ticks/col.
  EXPECT_NE(chart.find("1 col = 2 ticks"), std::string::npos);
}

TEST_F(ExportTest, SummaryMentionsFallback) {
  BalanceStats stats;
  stats.fell_back = true;
  stats.memory_before = {1, 2};
  stats.memory_after = {1, 2};
  EXPECT_NE(summarize(stats).find("FELL BACK"), std::string::npos);
}

TEST_F(ExportTest, DescribeStepShowsInfeasibleReasons) {
  BalanceOptions options;
  options.record_trace = true;
  const BalanceResult r = LoadBalancer(options).balance(schedule_);
  const BlockDecomposition dec = build_blocks(schedule_);
  // Step 6's description includes the data-arrival rejection.
  const std::string text = describe_step(schedule_, r.trace[5], dec);
  EXPECT_NE(text.find("infeasible"), std::string::npos);
  EXPECT_NE(text.find("=> P1"), std::string::npos);
}

}  // namespace
}  // namespace lbmem
