#!/usr/bin/env bash
# Record the performance trajectory: build the Release bench preset, run
# bench_complexity, bench_online, bench_solvers, bench_parallel,
# bench_robustness, bench_observability, bench_degraded and
# bench_throughput with JSON output, and write BENCH_complexity.json /
# BENCH_online.json / BENCH_solvers.json / BENCH_parallel.json /
# BENCH_robustness.json / BENCH_observability.json / BENCH_degraded.json /
# BENCH_throughput.json at the repo root (override the destinations with
# $1..$8). Check the results in so the perf history stays non-empty; see
# README.md, "Performance", "Online rebalancing", "Choosing a solver",
# "Parallelism", "Robustness", "Observability" and "Serving".
#
# Every bench runs 5 repetitions, and the recording keeps only their
# aggregates (mean, median, stddev and cv per benchmark). A single run of a
# sub-millisecond bench such as BM_OnlineWcet spreads by about 30 % between
# runs on a shared 4-vCPU machine, so a one-shot recording cannot show a
# smaller change; compare medians, and read the spread from cv.
#
# The recorded context must describe a release-built harness: benchmarks
# measure header-inline hot paths compiled into the bench binary, and a
# Debug recording is a meaningless data point in the perf history. The
# benches stamp "library_build_type" from their own build (bench_json.hpp);
# this script refuses to overwrite the checked-in JSONs when a recording
# still says "debug" — e.g. when someone points it at a Debug build tree.
# Optionally set LBMEM_BENCHMARK_SOURCE_DIR to a google-benchmark checkout
# to also build the benchmark library itself in Release (CI does this).
#
# `bench_record.sh --selftest` exercises the release guard itself against
# synthetic recordings (spacing variants and the debug negative path) and
# exits without building anything; CI runs it so a formatting change in
# bench_json.hpp can never silently disarm the guard.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

# Fail loudly if a recording claims a debug-built harness; never leave a
# debug recording at the destination path. Whitespace-tolerant on purpose:
# the stamp is JSON, and "key": "value" spacing is a serializer detail the
# guard must not depend on (a compact writer once turned this grep into a
# false failure).
check_release() {
  local json="$1"
  if ! grep -Eq '"library_build_type"[[:space:]]*:[[:space:]]*"release"' \
      "${json}"; then
    echo "error: ${json} does not report a release-built benchmark harness" >&2
    grep '"library_build_type"' "${json}" >&2 || true
    rm -f "${json}"
    exit 1
  fi
}

if [[ "${1:-}" == "--selftest" ]]; then
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' EXIT
  printf '{"library_build_type": "release"}\n' > "${tmp}/spaced.json"
  printf '{"library_build_type":"release"}\n' > "${tmp}/compact.json"
  printf '{"library_build_type" : "release"}\n' > "${tmp}/padded.json"
  printf '{"library_build_type": "debug"}\n' > "${tmp}/debug.json"
  check_release "${tmp}/spaced.json"
  check_release "${tmp}/compact.json"
  check_release "${tmp}/padded.json"
  # Negative path: a debug recording must fail the guard and be removed
  # (subshell: check_release exits, the selftest carries on).
  if (check_release "${tmp}/debug.json") 2>/dev/null; then
    echo "selftest FAILED: a debug recording passed the release guard" >&2
    exit 1
  fi
  if [[ -e "${tmp}/debug.json" ]]; then
    echo "selftest FAILED: the rejected debug recording was not removed" >&2
    exit 1
  fi
  echo "bench_record.sh selftest passed"
  exit 0
fi

complexity_out="${1:-${repo}/BENCH_complexity.json}"
online_out="${2:-${repo}/BENCH_online.json}"
solvers_out="${3:-${repo}/BENCH_solvers.json}"
parallel_out="${4:-${repo}/BENCH_parallel.json}"
robustness_out="${5:-${repo}/BENCH_robustness.json}"
observability_out="${6:-${repo}/BENCH_observability.json}"
degraded_out="${7:-${repo}/BENCH_degraded.json}"
throughput_out="${8:-${repo}/BENCH_throughput.json}"

cd "${repo}"
config_args=()
if [[ -n "${LBMEM_BENCHMARK_SOURCE_DIR:-}" ]]; then
  config_args+=("-DLBMEM_BENCHMARK_SOURCE_DIR=${LBMEM_BENCHMARK_SOURCE_DIR}")
fi
cmake --preset bench "${config_args[@]}"
cmake --build --preset bench -j "$(nproc)" \
  --target bench_complexity bench_online bench_solvers bench_parallel \
    bench_robustness bench_observability bench_degraded bench_throughput

record() {
  local bench="$1" out="$2"
  "${repo}/build-bench/bench/${bench}" \
    --benchmark_repetitions=5 \
    --benchmark_report_aggregates_only=true \
    --benchmark_out="${out}" \
    --benchmark_out_format=json
  check_release "${out}"
  echo "wrote ${out}"
}

record bench_complexity "${complexity_out}"
record bench_online "${online_out}"
record bench_solvers "${solvers_out}"
record bench_parallel "${parallel_out}"
record bench_robustness "${robustness_out}"
record bench_observability "${observability_out}"
record bench_degraded "${degraded_out}"
record bench_throughput "${throughput_out}"
