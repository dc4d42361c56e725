#!/bin/sh
# Runs the headline benchmarks and records the results in
# BENCH_pipeline.json at the repository root.
#
#   scripts/bench.sh [count] [bench-regex]
#
# count is the -count passed to `go test` (default 5). bench-regex
# optionally restricts which benchmarks run (default: the eleven
# recorded ones). Eleven benchmarks are recorded: BenchmarkPipeline (the full
# experiment matrix), BenchmarkPipelineLarge (the synthetic large-program
# stress run), BenchmarkSweep (the sharded sweep engine at each shard
# count), BenchmarkSweepRemote (the same grid through the wire protocol
# and two loopback sweepd workers — the delta against BenchmarkSweep is
# the distribution overhead), BenchmarkSweepMemo (record-once/replay-many
# trace memoization on a 16-point threshold axis, memo=rejected — a
# one-byte corpus budget, so every job runs live — vs memo=on; the jobs/s
# ratio is the memoization speedup; historycap=warm replays a HistoryCap
# grid on a warm Runner, where the engine answers the cells net and
# net+comb share and those whose HistoryCap lies in an earlier run's
# history span), BenchmarkLEI (the
# pooled-scratch LEI selection path), BenchmarkAdaptive (the adaptive
# meta-selector on the phased workload — detector accounting plus policy
# switches), BenchmarkCombine (the trace-combination selectors over
# the micro and synthetic workloads), BenchmarkAnalyze (the pooled
# metrics analyzer), and BenchmarkReplay (trace record/replay: live VM
# ns/instr vs stream-decode ns/event vs corpus-replay ns/instr — the
# live/replay gap is the interpreter cost replay saves), and
# BenchmarkVMInterpret (the VM alone: gcc at scale 100, no sink, so the
# dispatch loop is all it times). The JSON holds one object
# per run with each benchmark's normalized metrics (ns and heap bytes per
# simulated instruction, jobs/s for the sweep engine, where reported) plus
# the standard ns/op, B/op, and allocs/op columns, so regressions are
# diffable in review. Results are merged into the existing file by
# scripts/benchmerge: only the benchmarks that ran are replaced, so partial
# re-runs never clobber the other recorded numbers.
set -eu

cd "$(dirname "$0")/.."
count="${1:-5}"
benchre="${2:-^(BenchmarkPipeline|BenchmarkPipelineLarge|BenchmarkSweep|BenchmarkSweepRemote|BenchmarkSweepMemo|BenchmarkLEI|BenchmarkAdaptive|BenchmarkCombine|BenchmarkAnalyze|BenchmarkReplay|BenchmarkVMInterpret)$}"
out="BENCH_pipeline.json"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -bench "$benchre" -benchmem -count="$count" -run '^$' . | tee "$raw"

go run ./scripts/benchmerge -out "$out" < "$raw"
echo "wrote $out"
