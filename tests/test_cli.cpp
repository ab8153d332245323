/// End-to-end tests for tools/lbmem_cli.cpp: argument parsing, exit codes,
/// and the paper-example subcommand. The binary path comes from CMake via
/// LBMEM_CLI_PATH, so these tests exercise exactly what a user runs.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#if defined(_WIN32)
#include <process.h>
#else
#include <unistd.h>
#endif

#ifndef LBMEM_CLI_PATH
#error "LBMEM_CLI_PATH must point at the lbmem_cli binary (set by CMake)"
#endif

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  ///< stdout + stderr interleaved
};

/// Runs the CLI with \p args, capturing combined output and the exit code.
RunResult run_cli(const std::string& args) {
  const std::string command =
      std::string("\"") + LBMEM_CLI_PATH + "\" " + args + " 2>&1";
  RunResult result;
#if defined(_WIN32)
  FILE* pipe = _popen(command.c_str(), "r");
#else
  FILE* pipe = popen(command.c_str(), "r");
#endif
  if (pipe == nullptr) {
    ADD_FAILURE() << "popen failed for: " << command;
    return result;
  }
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    result.output.append(buffer, n);
  }
#if defined(_WIN32)
  result.exit_code = _pclose(pipe);
#else
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
#endif
  return result;
}

// Small, fast workload shared by the generated-workload subcommands.
const char kSmallWorkload[] = "--tasks=12 --procs=3 --seed=7";

TEST(CliUsage, NoArgumentsFailsWithUsage) {
  const RunResult r = run_cli("");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("usage: lbmem_cli"), std::string::npos) << r.output;
}

TEST(CliUsage, UnknownCommandFails) {
  const RunResult r = run_cli("frobnicate");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("unknown command: frobnicate"), std::string::npos)
      << r.output;
}

TEST(CliUsage, MalformedFlagFails) {
  // Flags must be --key=value; a bare token is rejected.
  const RunResult r = run_cli("balance tasks");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("malformed flag: tasks"), std::string::npos)
      << r.output;
}

TEST(CliUsage, UnknownFlagFails) {
  const RunResult r = run_cli("balance --frobs=3");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("unknown flag: --frobs"), std::string::npos)
      << r.output;
}

TEST(CliUsage, BadFlagValueFails) {
  const RunResult r = run_cli("balance --tasks=banana");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("bad value for --tasks: banana"), std::string::npos)
      << r.output;
}

TEST(CliUsage, PartialAndNonFiniteNumbersFail) {
  // Every numeric flag parses its whole value, a floating one must be
  // finite, and an unsigned one takes no minus sign: no prefix of the
  // value stands in for it, and no negative seed wraps around 2^64.
  const std::pair<const char*, const char*> bad[] = {
      {"balance --tasks=12abc", "bad value for --tasks: 12abc"},
      {"simulate --perturb --jitter=nan", "bad value for --jitter: nan"},
      {"simulate --perturb --fail-proc=1x", "bad value for --fail-proc: 1x"},
      {"simulate --perturb --fail-proc=1 --fail-at=3.5",
       "bad value for --fail-at: 3.5"},
      {"serve --mean-gap=inf", "bad value for --mean-gap: inf"},
      {"balance --seed=-1", "bad value for --seed: -1"},
      {"replay --event-seed=-5", "bad value for --event-seed: -5"},
      {"simulate --perturb --perturb-seed=-2",
       "bad value for --perturb-seed: -2"},
  };
  for (const auto& [args, message] : bad) {
    const RunResult r = run_cli(args);
    EXPECT_EQ(r.exit_code, 1) << args << "\n" << r.output;
    EXPECT_NE(r.output.find(message), std::string::npos)
        << args << "\n" << r.output;
  }
}

TEST(CliUsage, UnknownPolicyFails) {
  const RunResult r = run_cli("balance --policy=magic");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("unknown policy: magic"), std::string::npos)
      << r.output;
}

TEST(CliUsage, UnknownPlacementFails) {
  const RunResult r = run_cli("balance --placement=anywhere");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("unknown placement: anywhere"), std::string::npos)
      << r.output;
}

TEST(CliUsage, HelpExitsZeroWithUsage) {
  for (const char* invocation : {"--help", "-h", "balance --help",
                                 "compare -h", "example --help"}) {
    const RunResult r = run_cli(invocation);
    EXPECT_EQ(r.exit_code, 0) << invocation;
    EXPECT_NE(r.output.find("usage: lbmem_cli"), std::string::npos)
        << invocation << ": " << r.output;
  }
}

TEST(CliUsage, SubcommandIrrelevantFlagIsRejected) {
  // Flag hygiene: --events belongs to replay, not balance.
  const RunResult r = run_cli("balance --events=4");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("flag --events does not apply to 'balance'"),
            std::string::npos)
      << r.output;
  // example takes no flags at all.
  const RunResult ex = run_cli("example --tasks=5");
  EXPECT_EQ(ex.exit_code, 1);
  EXPECT_NE(ex.output.find("flag --tasks does not apply to 'example'"),
            std::string::npos)
      << ex.output;
  // --hyperperiods belongs to simulate only.
  const RunResult hp = run_cli("bus --hyperperiods=2");
  EXPECT_EQ(hp.exit_code, 1);
  EXPECT_NE(hp.output.find("flag --hyperperiods does not apply to 'bus'"),
            std::string::npos)
      << hp.output;
}

TEST(CliUsage, AlgoConflictsAreRejected) {
  const RunResult all = run_cli("balance --algo=all");
  EXPECT_EQ(all.exit_code, 1);
  EXPECT_NE(all.output.find("--algo=all is only valid for 'compare'"),
            std::string::npos)
      << all.output;
  const RunResult policy = run_cli("balance --algo=ga --policy=lex");
  EXPECT_EQ(policy.exit_code, 1);
}

TEST(CliUsage, ThreadsConflictsAreRejected) {
  // --threads sizes compare's (instance x solver) sweep and nothing else.
  for (const char* cmd : {"simulate", "balance", "serve"}) {
    const RunResult r = run_cli(std::string(cmd) + " --threads=2");
    EXPECT_EQ(r.exit_code, 1) << cmd;
    EXPECT_NE(r.output.find("flag --threads does not apply to '" +
                            std::string(cmd) + "'"),
              std::string::npos)
        << r.output;
  }
  const RunResult negative = run_cli("compare --threads=-1");
  EXPECT_EQ(negative.exit_code, 1);
}

TEST(CliCompare, ThreadedSweepIsByteIdenticalToSequential) {
  // The determinism contract, end to end through the CLI: the threaded
  // sweep renders exactly the sequential bytes (timing off).
  const std::string base =
      std::string("compare --algo=all --timing=off --count=2 ") +
      kSmallWorkload;
  const RunResult sequential = run_cli(base + " --threads=1");
  const RunResult threaded = run_cli(base + " --threads=8");
  EXPECT_EQ(sequential.exit_code, 0) << sequential.output;
  EXPECT_EQ(threaded.exit_code, 0) << threaded.output;
  EXPECT_EQ(sequential.output, threaded.output);
}

TEST(CliBalance, UnknownSolverNameFailsCleanly) {
  const RunResult r = run_cli("balance --algo=does-not-exist");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("unknown solver 'does-not-exist'"),
            std::string::npos)
      << r.output;
  // The error teaches the vocabulary.
  EXPECT_NE(r.output.find("heuristic-lex"), std::string::npos) << r.output;
}

TEST(CliBalance, AlgoRunsARegisteredSolver) {
  const RunResult r =
      run_cli(std::string("balance --algo=memory-greedy ") + kSmallWorkload);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("--- solved (memory-greedy) ---"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("makespan: "), std::string::npos) << r.output;
}

TEST(CliCompare, RunsAllRegisteredSolversOnOneWorkload) {
  const RunResult r = run_cli(std::string("compare ") + kSmallWorkload);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("instances: 1"), std::string::npos) << r.output;
  // The acceptance bar: >= 4 registered solvers in one table. Each name
  // is anchored as a table row (line start + trailing padding) so "ga"
  // cannot vacuously match the "mean gain" column header.
  for (const char* solver : {"initial", "heuristic-lex", "round-robin",
                             "memory-greedy", "ga", "bnb-partition"}) {
    EXPECT_NE(r.output.find("\n" + std::string(solver) + " "),
              std::string::npos)
        << solver << " row missing:\n" << r.output;
  }
  EXPECT_NE(r.output.find("mean wall (ms)"), std::string::npos) << r.output;
}

TEST(CliCompare, SubsetAndTimingOffAreDeterministic) {
  const std::string args =
      std::string("compare --algo=heuristic-lex,ga,dp-partition "
                  "--timing=off --count=2 ") +
      kSmallWorkload;
  const RunResult first = run_cli(args);
  const RunResult second = run_cli(args);
  EXPECT_EQ(first.exit_code, 0) << first.output;
  EXPECT_EQ(first.output, second.output);
  EXPECT_EQ(first.output.find("wall"), std::string::npos) << first.output;
}

TEST(CliCompare, WritesComparisonJson) {
  namespace fs = std::filesystem;
#if defined(_WIN32)
  const int pid = _getpid();
#else
  const int pid = getpid();
#endif
  const fs::path dir = fs::temp_directory_path() /
                       ("lbmem_cli_compare_test_" + std::to_string(pid));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string prefix = (dir / "out").string();
  const RunResult r =
      run_cli(std::string("compare --algo=initial,heuristic-lex \"--out=") +
              prefix + "\" " + kSmallWorkload);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::ifstream json(prefix + "_compare.json");
  ASSERT_TRUE(json.good()) << "missing " << prefix << "_compare.json";
  std::stringstream content;
  content << json.rdbuf();
  EXPECT_NE(content.str().find("\"summary\""), std::string::npos);
  EXPECT_NE(content.str().find("heuristic-lex"), std::string::npos);
  fs::remove_all(dir);
}

TEST(CliExample, ReproducesPaperFigures) {
  const RunResult r = run_cli("example");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("before (paper Fig. 3)"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("after (paper Fig. 4)"), std::string::npos)
      << r.output;
  // The paper's headline result: makespan 15 -> 14, Gtotal = 1.
  EXPECT_NE(r.output.find("makespan: 15 -> 14  (Gtotal = 1)"),
            std::string::npos)
      << r.output;
}

TEST(CliExample, OutputIsDeterministic) {
  const RunResult first = run_cli("example");
  const RunResult second = run_cli("example");
  EXPECT_EQ(first.exit_code, 0);
  EXPECT_EQ(first.output, second.output);
}

TEST(CliBalance, SmallWorkloadSucceeds) {
  const RunResult r = run_cli(std::string("balance ") + kSmallWorkload);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("--- initial ---"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("--- balanced (Lexicographic) ---"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("makespan: "), std::string::npos) << r.output;
}

TEST(CliBalance, PolicyFlagSelectsPolicy) {
  const RunResult r =
      run_cli(std::string("balance --policy=memory ") + kSmallWorkload);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("--- balanced (MemoryOnly) ---"),
            std::string::npos)
      << r.output;
}

TEST(CliSimulate, ReportsHyperperiodsAndViolations) {
  const RunResult r = run_cli(std::string("simulate --hyperperiods=1 ") +
                              kSmallWorkload);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("simulated 1 hyper-periods"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("0 violations"), std::string::npos) << r.output;
}

TEST(CliSimulate, AlgoSelectsARegisteredSolver) {
  const RunResult r = run_cli(
      std::string("simulate --algo=memory-greedy --local-buffers=off ") +
      kSmallWorkload);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("solver: memory-greedy"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("simulated 2 hyper-periods"), std::string::npos)
      << r.output;
}

TEST(CliSimulate, PerturbFlagHygiene) {
  // Perturbation knobs without --perturb would silently measure nothing.
  const RunResult knob = run_cli("simulate --jitter=0.5");
  EXPECT_EQ(knob.exit_code, 1);
  EXPECT_NE(knob.output.find("add --perturb"), std::string::npos)
      << knob.output;
  const RunResult orphan_at = run_cli("simulate --perturb --fail-at=3");
  EXPECT_EQ(orphan_at.exit_code, 1);
  EXPECT_NE(orphan_at.output.find("--fail-proc"), std::string::npos)
      << orphan_at.output;
  const RunResult bad_proc =
      run_cli("simulate --perturb --fail-proc=9 --procs=3");
  EXPECT_EQ(bad_proc.exit_code, 1);
  EXPECT_NE(bad_proc.output.find("1-based"), std::string::npos)
      << bad_proc.output;
  const RunResult all = run_cli("simulate --algo=all");
  EXPECT_EQ(all.exit_code, 1);
  EXPECT_NE(all.output.find("simulate takes one name"), std::string::npos)
      << all.output;
}

TEST(CliSimulate, BarePerturbRunsTheRobustnessHarness) {
  // --perturb is the one value-less flag (the CI smoke uses it bare).
  const RunResult r = run_cli(
      std::string("simulate --perturb --replications=2 ") + kSmallWorkload);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("perturbed execution: 2 replications"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("miss rate p50"), std::string::npos) << r.output;
}

TEST(CliSimulate, PerturbedRunIsDeterministic) {
  const std::string args =
      std::string("simulate --perturb --replications=3 --perturb-seed=9 ") +
      kSmallWorkload;
  const RunResult first = run_cli(args);
  const RunResult second = run_cli(args);
  EXPECT_EQ(first.exit_code, 0) << first.output;
  EXPECT_EQ(first.output, second.output);
}

TEST(CliSimulate, FailureRecoveryReportsBeforeAndAfter) {
  const RunResult r = run_cli(
      std::string("simulate --perturb --fail-proc=2 ") + kSmallWorkload);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("-> recovered"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("miss rate before recovery"), std::string::npos)
      << r.output;
}

TEST(CliSimulate, WritesSimJson) {
  namespace fs = std::filesystem;
#if defined(_WIN32)
  const int pid = _getpid();
#else
  const int pid = getpid();
#endif
  const fs::path dir = fs::temp_directory_path() /
                       ("lbmem_cli_simulate_test_" + std::to_string(pid));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string prefix = (dir / "out").string();
  const RunResult plain = run_cli(std::string("simulate \"--out=") + prefix +
                                  "\" " + kSmallWorkload);
  EXPECT_EQ(plain.exit_code, 0) << plain.output;
  {
    std::ifstream json(prefix + "_sim.json");
    ASSERT_TRUE(json.good()) << "missing " << prefix << "_sim.json";
    std::stringstream content;
    content << json.rdbuf();
    EXPECT_NE(content.str().find("\"violation_records\""), std::string::npos);
    EXPECT_NE(content.str().find("\"miss_rate\""), std::string::npos);
  }
  const RunResult perturbed =
      run_cli(std::string("simulate --perturb \"--out=") + prefix + "\" " +
              kSmallWorkload);
  EXPECT_EQ(perturbed.exit_code, 0) << perturbed.output;
  {
    std::ifstream json(prefix + "_sim.json");
    ASSERT_TRUE(json.good());
    std::stringstream content;
    content << json.rdbuf();
    EXPECT_NE(content.str().find("\"miss_p50\""), std::string::npos);
    EXPECT_NE(content.str().find("\"reps\""), std::string::npos);
  }
  fs::remove_all(dir);
}

TEST(CliCompare, PerturbAddsRobustnessColumns) {
  const RunResult r = run_cli(
      std::string("compare --perturb --replications=2 --timing=off ") +
      kSmallWorkload);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("miss p50/p99"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("span infl"), std::string::npos) << r.output;
}

TEST(CliCompare, PerturbedThreadedSweepIsByteIdenticalToSequential) {
  // The robustness replications ride the same pre-sized-slot discipline
  // as the solve cells: thread count must not change a byte.
  const std::string base =
      std::string("compare --perturb --replications=3 --timing=off "
                  "--count=2 ") +
      kSmallWorkload;
  const RunResult sequential = run_cli(base + " --threads=1");
  const RunResult threaded = run_cli(base + " --threads=8");
  EXPECT_EQ(sequential.exit_code, 0) << sequential.output;
  EXPECT_EQ(threaded.exit_code, 0) << threaded.output;
  EXPECT_EQ(sequential.output, threaded.output);
}

TEST(CliBus, ReportsBeforeAndAfter) {
  const RunResult r = run_cli(std::string("bus ") + kSmallWorkload);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("before: "), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("utilization"), std::string::npos) << r.output;
}

TEST(CliBalance, InfeasibleCapacityExitsWithTwo) {
  // Exit code 2 is the documented "unschedulable workload" contract.
  const RunResult r =
      run_cli(std::string("balance --capacity=1 ") + kSmallWorkload);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unschedulable"), std::string::npos) << r.output;
}

TEST(CliReplay, ReplaysATraceWithZeroViolations) {
  const RunResult r = run_cli(std::string("replay --events=6 --event-seed=2 ") +
                              kSmallWorkload);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("--- replay (6 events, seed 2, incremental mode)"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("violations: 0"), std::string::npos) << r.output;
}

TEST(CliReplay, FullModeFlagSelectsFullRebalance) {
  const RunResult r = run_cli(
      std::string("replay --events=4 --event-seed=2 --mode=full ") +
      kSmallWorkload);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("full mode"), std::string::npos) << r.output;
}

TEST(CliReplay, UnknownModeFails) {
  const RunResult r = run_cli("replay --mode=telepathic");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("unknown mode: telepathic"), std::string::npos)
      << r.output;
}

TEST(CliReplay, OutputIsDeterministic) {
  // --timing=off: the repair-latency p50/p99 line is wall clock by design.
  const std::string args =
      std::string("replay --events=8 --event-seed=9 --timing=off ") +
      kSmallWorkload;
  const RunResult first = run_cli(args);
  const RunResult second = run_cli(args);
  EXPECT_EQ(first.exit_code, 0);
  EXPECT_EQ(first.output, second.output);
}

TEST(CliReplay, DegradedLadderInFullModeRunsToCompletion) {
  // Event 14 of this trace is a WcetChange that no ladder rung absorbs.
  // It must reject cleanly: the pre-event placements overlap under the
  // new WCET, so no rung may hand them to the balance stage as a schedule.
  const RunResult r = run_cli(
      "replay --tasks=60 --procs=4 --events=30 --event-seed=1 --seed=1 "
      "--degraded --mode=full --timing=off");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("violations: 0"), std::string::npos) << r.output;
  const std::size_t row = r.output.find("\n14  ");
  ASSERT_NE(row, std::string::npos) << r.output;
  const std::string line =
      r.output.substr(row + 1, r.output.find('\n', row + 1) - row - 1);
  EXPECT_NE(line.find("rejected"), std::string::npos) << line;
}

TEST(CliSimulate, UnrepairedFailureExitsWithTwo) {
  // The degraded-operation contract: exit 2 whenever at least one
  // injected failure could not be repaired, so CI notices silent
  // capacity-starved degradation. This survivor cannot absorb the dead
  // processor's tasks within --capacity.
  const RunResult r = run_cli(
      "simulate --perturb --fail-proc=2 --capacity=100 "
      "--tasks=8 --procs=2 --seed=7");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("NOT recovered"), std::string::npos) << r.output;
}

TEST(CliSimulate, DegradedLadderRescuesTheStarvedFailure) {
  // Same scenario, --degraded on: the shed rung drops work instead of
  // failing hard, the shed set is reported, and the exit code clears.
  const RunResult r = run_cli(
      "simulate --perturb --fail-proc=2 --capacity=100 "
      "--tasks=8 --procs=2 --seed=7 --degraded");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("rung 3"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("shed"), std::string::npos) << r.output;
}

TEST(CliSimulate, ConcurrentFailuresReportPerFailureOutcomes) {
  // --fail-proc/--fail-at take comma lists: every failure gets its own
  // outcome line, in injection order.
  const RunResult r = run_cli(
      std::string("simulate --perturb --fail-proc=1,2 --fail-at=3,9 "
                  "--degraded ") +
      kSmallWorkload);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("failure: P1 at t=3"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("failure: P2 at t=9"), std::string::npos)
      << r.output;
}

TEST(CliSimulate, FailureListHygiene) {
  // A tick count that does not match the victim count is a usage error,
  // not a silently recycled default.
  const RunResult mismatch = run_cli(
      std::string("simulate --perturb --fail-proc=1,2 --fail-at=3 ") +
      kSmallWorkload);
  EXPECT_EQ(mismatch.exit_code, 1);
  EXPECT_NE(mismatch.output.find("one tick per --fail-proc"),
            std::string::npos)
      << mismatch.output;
}

TEST(CliSimulate, BurstKnobsConfigureTheChain) {
  const RunResult r = run_cli(
      std::string("simulate --perturb --replications=2 --jitter=0.5 "
                  "--burst-p=0.3 --burst-q=0.4 --burst-factor=3 ") +
      kSmallWorkload);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("burst: storm entry p=0.300"), std::string::npos)
      << r.output;
  // Burst knobs are perturbation knobs: bare use is a usage error.
  const RunResult orphan = run_cli("simulate --burst-p=0.3");
  EXPECT_EQ(orphan.exit_code, 1);
  EXPECT_NE(orphan.output.find("add --perturb"), std::string::npos)
      << orphan.output;
}

TEST(CliCompare, AdaptiveRequiresPerturb) {
  const RunResult r = run_cli(
      std::string("compare --adaptive ") + kSmallWorkload);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("add --perturb"), std::string::npos) << r.output;
}

TEST(CliCompare, AdaptiveAddsPolicyRowAndPicks) {
  const RunResult r = run_cli(
      std::string("compare --perturb --replications=2 --adaptive "
                  "--timing=off --count=3 ") +
      kSmallWorkload);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("adaptive"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("adaptive picks:"), std::string::npos) << r.output;
}

TEST(CliCompare, AdaptiveSweepIsByteIdenticalAcrossThreads) {
  // The adaptive post-pass folds already-solved cells sequentially, so
  // the policy row and its picks must not depend on the thread count.
  const std::string base =
      std::string("compare --perturb --replications=2 --adaptive "
                  "--timing=off --count=3 ") +
      kSmallWorkload;
  const RunResult sequential = run_cli(base + " --threads=1");
  const RunResult threaded = run_cli(base + " --threads=8");
  EXPECT_EQ(sequential.exit_code, 0) << sequential.output;
  EXPECT_EQ(sequential.output, threaded.output);
}

TEST(CliReplay, DegradedModeReportsLadderCountsInJson) {
  namespace fs = std::filesystem;
#if defined(_WIN32)
  const int pid = _getpid();
#else
  const int pid = getpid();
#endif
  const fs::path dir = fs::temp_directory_path() /
                       ("lbmem_cli_degraded_test_" + std::to_string(pid));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string prefix = (dir / "out").string();
  // This trace's P1 failure climbs to the shed rung (the anchor the
  // degraded-mode smoke pins): the per-event rung, the per-rung recovery
  // counters, and the shed set must all land in the JSON artifact.
  const RunResult r = run_cli(
      std::string("replay --events=12 --event-seed=5 --timing=off "
                  "--degraded \"--out=") +
      prefix + "\" " + kSmallWorkload);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::ifstream json(prefix + "_online.json");
  ASSERT_TRUE(json.good()) << "missing " << prefix << "_online.json";
  std::stringstream content;
  content << json.rdbuf();
  EXPECT_NE(content.str().find("\"degraded_rung\""), std::string::npos);
  EXPECT_NE(content.str().find("\"recovered_shed\""), std::string::npos);
  EXPECT_NE(content.str().find("\"recovered_retry\""), std::string::npos);
  EXPECT_NE(content.str().find("\"degraded_mode\""), std::string::npos);
  EXPECT_NE(content.str().find("\"shed\""), std::string::npos);
  fs::remove_all(dir);
}

TEST(CliExport, WritesAllArtifacts) {
  namespace fs = std::filesystem;
  // Per-process directory: concurrent runs from several build trees
  // (default + sanitize) must not clobber each other.
#if defined(_WIN32)
  const int pid = _getpid();
#else
  const int pid = getpid();
#endif
  const fs::path dir =
      fs::temp_directory_path() /
      ("lbmem_cli_export_test_" + std::to_string(pid));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string prefix = (dir / "out").string();

  const RunResult r = run_cli(std::string("export \"--out=") + prefix +
                              "\" " + kSmallWorkload);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (const char* suffix :
       {"_graph.dot", "_before.dot", "_after.dot", "_before.json",
        "_after.json", "_stats.json"}) {
    const fs::path artifact = prefix + suffix;
    std::error_code ec;
    const auto size = fs::file_size(artifact, ec);
    EXPECT_FALSE(ec) << "missing " << artifact;
    if (!ec) {
      EXPECT_GT(size, 0u) << "empty " << artifact;
    }
  }
  fs::remove_all(dir);
}

TEST(CliServe, StreamsAGeneratedTrace) {
  const RunResult r = run_cli(
      std::string("serve --events=60 --event-seed=3 --arrivals=poisson "
                  "--mean-gap=4 --cycle-ticks=32 ") +
      kSmallWorkload);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("--- serve (60 events"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("final violations: 0"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("coalescing:"), std::string::npos) << r.output;
}

TEST(CliServe, OutputIsDeterministic) {
  const std::string args =
      std::string("serve --events=40 --event-seed=9 --arrivals=bursty "
                  "--timing=off ") +
      kSmallWorkload;
  const RunResult first = run_cli(args);
  const RunResult second = run_cli(args);
  EXPECT_EQ(first.exit_code, 0) << first.output;
  EXPECT_EQ(first.output, second.output);
}

TEST(CliServe, StatsEveryPrintsProgressLines) {
  const RunResult r = run_cli(
      std::string("serve --events=60 --event-seed=3 --stats-every=10 "
                  "--timing=off ") +
      kSmallWorkload);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("cycle 10 "), std::string::npos) << r.output;
  EXPECT_NE(r.output.find(" backlog="), std::string::npos) << r.output;
}

TEST(CliServe, EmitTraceRoundTripsThroughTraceIn) {
  namespace fs = std::filesystem;
#if defined(_WIN32)
  const int pid = _getpid();
#else
  const int pid = getpid();
#endif
  const fs::path dir =
      fs::temp_directory_path() /
      ("lbmem_cli_serve_test_" + std::to_string(pid));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string trace_path = (dir / "trace.txt").string();
  const std::string prefix = (dir / "out").string();

  const RunResult emit = run_cli(
      std::string("serve --events=30 --event-seed=5 \"--emit-trace=") +
      trace_path + "\" " + kSmallWorkload);
  EXPECT_EQ(emit.exit_code, 0) << emit.output;
  // Emit mode writes the trace and exits without serving.
  EXPECT_EQ(emit.output.find("--- serve"), std::string::npos) << emit.output;
  {
    std::ifstream in(trace_path);
    std::string header;
    ASSERT_TRUE(std::getline(in, header));
    EXPECT_EQ(header, "# lbmem-trace v1");
  }

  // Serving the recorded trace matches serving the generated one: the
  // outputs differ only in the trace-source label inside the banner line.
  const auto strip_banner = [](const std::string& text) {
    const std::size_t pos = text.find("--- serve (");
    if (pos == std::string::npos) return text;
    return text.substr(text.find('\n', pos));
  };
  const RunResult from_file = run_cli(
      std::string("serve \"--trace-in=") + trace_path + "\" --timing=off " +
      kSmallWorkload);
  EXPECT_EQ(from_file.exit_code, 0) << from_file.output;
  EXPECT_NE(from_file.output.find("--- serve (30 events"), std::string::npos)
      << from_file.output;
  const RunResult generated = run_cli(
      std::string("serve --events=30 --event-seed=5 --timing=off ") +
      kSmallWorkload);
  EXPECT_EQ(strip_banner(from_file.output), strip_banner(generated.output));

  // --out writes the JSON report artifact.
  const RunResult with_out = run_cli(
      std::string("serve \"--trace-in=") + trace_path +
      "\" --timing=off \"--out=" + prefix + "\" " + kSmallWorkload);
  EXPECT_EQ(with_out.exit_code, 0) << with_out.output;
  std::error_code ec;
  EXPECT_GT(fs::file_size(prefix + "_serve.json", ec), 0u);
  EXPECT_FALSE(ec);
  fs::remove_all(dir);
}

TEST(CliServe, TickWithoutClockHeadroomExitsWithOne) {
  namespace fs = std::filesystem;
#if defined(_WIN32)
  const int pid = _getpid();
#else
  const int pid = getpid();
#endif
  const fs::path trace_path =
      fs::temp_directory_path() /
      ("lbmem_cli_serve_tick_" + std::to_string(pid) + ".txt");
  {
    std::ofstream out(trace_path);
    out << "9223372036854775807 wcet t0 3\n";
  }
  const RunResult r =
      run_cli("serve --tasks=20 --procs=4 \"--trace-in=" +
              trace_path.string() + "\"");
  fs::remove(trace_path);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("tick 9223372036854775807"), std::string::npos)
      << r.output;
}

TEST(CliServe, ArrivalClockOverflowExitsWithOne) {
  // A 1e18-tick mean gap carries the generated trace's clock past the
  // largest tick; the generator rejects the trace instead of wrapping.
  const RunResult r = run_cli(
      "serve --tasks=20 --procs=4 --arrivals=poisson --mean-gap=1e18 "
      "--events=40");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("random_event_trace: event "), std::string::npos)
      << r.output;
}

TEST(CliServe, ArrivalsThatExplodeTheInstanceCountAreRejected) {
  // Coprime periods multiply the hyper-period: 4294967311 overflows the
  // instance index of every period-16 task, and 1000003 would expand the
  // graph to tens of millions of instances. Both arrivals are rejected
  // with the running system untouched.
  namespace fs = std::filesystem;
#if defined(_WIN32)
  const int pid = _getpid();
#else
  const int pid = getpid();
#endif
  const fs::path trace_path =
      fs::temp_directory_path() /
      ("lbmem_cli_serve_explode_" + std::to_string(pid) + ".txt");
  {
    std::ofstream out(trace_path);
    out << "5 arrival big 4294967311 1 1\n"
        << "5 arrival big 1000003 1 1\n";
  }
  const RunResult r =
      run_cli("serve --tasks=20 --procs=4 --seed=1 --timing=off "
              "\"--trace-in=" + trace_path.string() + "\"");
  fs::remove(trace_path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("drained: 0 applied, 2 rejected"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("alive: 20 tasks"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("final violations: 0"), std::string::npos)
      << r.output;
}

TEST(CliServe, FlagHygiene) {
  // Generation knobs conflict with a recorded trace.
  RunResult r = run_cli("serve --trace-in=foo.txt --events=10");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("--trace-in"), std::string::npos) << r.output;
  // emit + trace-in is contradictory.
  r = run_cli("serve --trace-in=foo.txt --emit-trace=bar.txt");
  EXPECT_EQ(r.exit_code, 1);
  // mean-gap parameterizes the Poisson model only.
  r = run_cli("serve --mean-gap=8");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("poisson"), std::string::npos) << r.output;
  // Serve-only flags do not leak into replay.
  r = run_cli("replay --cycle-ticks=16");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("does not apply"), std::string::npos) << r.output;
  // Bad values are rejected.
  r = run_cli("serve --cycle-ticks=0");
  EXPECT_EQ(r.exit_code, 1);
  r = run_cli("serve --arrivals=psychic");
  EXPECT_EQ(r.exit_code, 1);
  // A missing trace file is an error, not an empty serve.
  r = run_cli("serve --trace-in=/nonexistent/trace.txt");
  EXPECT_EQ(r.exit_code, 1);
}

}  // namespace
