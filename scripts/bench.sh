#!/usr/bin/env sh
# Regenerate the repository's performance record.
#
#   scripts/bench.sh [extra wsbench flags...]
#
# Writes BENCH_PR10.json at the repo root (ns/event and allocs/event for the
# steady-state engine configurations, plus Table 1-4 wall times at 1 worker
# vs GOMAXPROCS) and then runs the Go micro-benchmarks once for a quick
# smoke reading: the simulator and event queue, and the solve layer (the
# 51 solves behind the serving benchmark's solve-hot set-up, and the two
# slowest single models, stages and rebalance). Commit the refreshed JSON
# alongside performance changes.
#
# To gate against the previous record instead of eyeballing it, pass the
# comparison flags through to wsbench — the script exits non-zero if any
# throughput config regressed past the threshold (25% by default, sized to
# ride out shared-machine jitter while catching real cliffs):
#
#   scripts/bench.sh -compare BENCH_PR8.json
#   scripts/bench.sh -compare BENCH_PR8.json -maxregress 0.10
set -eu
cd "$(dirname "$0")/.."

go run ./cmd/wsbench -out BENCH_PR10.json "$@"
echo
go test -run '^$' -bench 'BenchmarkSimulatorThroughput|BenchmarkRunnerReuse|BenchmarkPolicySimpleSteal|BenchmarkStealHalf|BenchmarkCalendarPushPop|BenchmarkHotSet|BenchmarkSolveStages|BenchmarkSolveRebalance' -benchmem ./internal/sim/ ./internal/eventq/ ./internal/experiments/ .
