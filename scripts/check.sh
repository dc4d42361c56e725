#!/bin/sh
# Full verification gate: tier-1 checks (go test pins every paper figure
# and every extension figure byte for byte against
# internal/experiments/testdata/paper.golden.md and extras.golden.md),
# the repo-invariant lint suite
# (cmd/lint — per-package and whole-module call-graph analyzers; see
# docs/LINTING.md), the race detector over the
# concurrent sweep engine (including the zero-alloc shard guard, whose
# cases cover net+comb/lei+comb), the distributed sweep service, the
# harness that drives it (which exercises the adaptive meta-selector end
# to end via the Pareto-front pin), the core selector package
# (observed-trace storage, combiner, and adaptive detector tests), and the
# trace corpora and code cache that shards read concurrently (corpus
# event arenas and edge tables, region walks), a
# sweep smoke run through the cmd/sweep CLI covering the adaptive
# selector next to the statics and a trace:<path> corpus recorded by
# cmd/tracerec (and read back through its -info and -verify, the second
# going through the corpus store's trace-file fill), a CLI smoke run (regionsim's trace:<path> replay diffed
# against the live run it recorded, a two-selector regionsim run diffed
# against the two single-selector runs, and traceviz on asm:<path> and
# trace:<path> references), a papertables smoke run (-sweeps -markdown
# diffed against both golden files, pinning the CLI's one shared Runner
# for the extension studies), a distributed smoke run (two loopback sweepd workers,
# jsonl output diffed against the local run — docs/SWEEPD.md — so
# remote adaptive and trace-replay runs must be byte-identical; worker
# logs are dumped when the diff fails; the local run memoizes, and it is
# first diffed against the -memobudget 1 worker alone, which rejects every
# corpus, so every cell runs live and the trace cell streams from disk:
# that diff pins the record-once/replay-many layer against live runs end
# to end, and the two-worker diff then mixes a memoizing worker with the
# rejecting one),
# a bench-regression gate
# comparing fresh BenchmarkPipeline/BenchmarkLEI/BenchmarkAdaptive/
# BenchmarkCombine/BenchmarkSweep/BenchmarkSweepMemo/BenchmarkReplay
# numbers against
# BENCH_pipeline.json, the differential selector-equivalence suite run
# twice (catching order- or state-dependent divergence between the
# dense production selectors and their frozen map-based references, the
# pooled Combiner and the adaptive meta-selector included, between the
# simulator's region walk and the frozen event-at-a-time simulator, and
# between the VM's segment dispatch and the frozen instruction-at-a-time
# interpreter, at every instruction budget below 3000), and a short fuzz
# pass over the selector, region-walk, VM, wire-codec, trace-stream,
# repeat-finder, assembler, compact-trace, and lint directive-grammar
# fuzz targets.
#
#   scripts/check.sh [fuzztime]
#
# fuzztime is the -fuzztime for each fuzz target (default 10s; set 0 to
# skip fuzzing). Environment knobs for the bench gate: BENCH_GATE=0
# skips it (benchmarks need a quiet machine); BENCH_TOL overrides the
# allowed fractional regression (default 0.25).
set -eu

cd "$(dirname "$0")/.."
fuzztime="${1:-10s}"

echo "== tier-1: build, vet, test =="
go build ./...
go vet ./...
go test ./...
# benchmark/ is its own module, so the root ./... never builds it.
go -C benchmark vet ./...
go -C benchmark test ./...

echo "== lint: hotpathalloc, resetclean, densemap, crosshot, epochguard, scratchclean (docs/LINTING.md) =="
go run ./cmd/lint ./...

echo "== race detector: sweep engine + sweepnet + experiment harness + core selectors + shared corpora and regions =="
go test -race ./internal/sweep/ ./internal/sweepnet/ ./internal/experiments/ ./internal/core/ ./internal/tracestream/ ./internal/codecache/

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"; [ -n "${w1pid:-}" ] && kill "$w1pid" 2>/dev/null; [ -n "${w2pid:-}" ] && kill "$w2pid" 2>/dev/null; wait 2>/dev/null || true' EXIT

echo "== trace corpus smoke: record with cmd/tracerec, sweep trace:<path> =="
go run ./cmd/tracerec -workload gzip -scale 40 -out "$workdir/gzip.trace"
go run ./cmd/tracerec -info "$workdir/gzip.trace"
go run ./cmd/tracerec -verify "$workdir/gzip.trace"
go run ./cmd/sweep \
    -grid "workloads=gzip,vpr,trace:$workdir/gzip.trace;selectors=net,lei,adaptive;scale=40;cachelimit=0,400" \
    -shards 2 -sink none

echo "== CLI smoke: regionsim and traceviz on name, trace: and asm: references =="
go build -o "$workdir/regionsim" ./cmd/regionsim
go build -o "$workdir/traceviz" ./cmd/traceviz
"$workdir/regionsim" -workload gzip -scale 40 -selector net >"$workdir/net.txt"
"$workdir/regionsim" -workload gzip -scale 40 -selector lei >"$workdir/lei.txt"
"$workdir/regionsim" -workload "trace:$workdir/gzip.trace" -selector lei >"$workdir/trace-lei.txt"
diff "$workdir/lei.txt" "$workdir/trace-lei.txt" || {
    echo "check.sh: regionsim trace:<path> replay differs from the live run it recorded"
    exit 1
}
# A multi-selector run prints each single-selector run's report block in
# order, then the side-by-side table.
"$workdir/regionsim" -workload gzip -scale 40 -selector net,lei >"$workdir/both.txt"
cat "$workdir/net.txt" "$workdir/lei.txt" >"$workdir/singles.txt"
head -n "$(wc -l <"$workdir/singles.txt")" "$workdir/both.txt" >"$workdir/both-reports.txt"
diff "$workdir/singles.txt" "$workdir/both-reports.txt" || {
    echo "check.sh: regionsim -selector net,lei reports differ from the single-selector runs"
    exit 1
}
"$workdir/traceviz" -workload asm:examples/programs/spin.asm >/dev/null
"$workdir/traceviz" -workload "trace:$workdir/gzip.trace" >/dev/null
echo "CLI references agree"

echo "== papertables smoke: -sweeps -markdown against both golden files =="
# papertables builds every extension study on one shared Runner; its
# output must equal the paper figures, one blank line, then the extension
# figures, as the two golden files pin them.
go run ./cmd/papertables -sweeps -markdown >"$workdir/papertables.md"
{ cat internal/experiments/testdata/paper.golden.md; echo; cat internal/experiments/testdata/extras.golden.md; } >"$workdir/golden.md"
diff "$workdir/golden.md" "$workdir/papertables.md" || {
    echo "check.sh: papertables -sweeps -markdown differs from the golden files"
    exit 1
}
echo "papertables output matches the golden files"

echo "== distributed smoke run: 2 loopback sweepd workers, jsonl diff =="
# The trace:<path> cell rides along: loopback workers share this
# filesystem, so the remote replay must match the local one byte for
# byte like every other cell.
# historycap gives the grid cells that share a report: net and net+comb
# ignore HistoryCap, and lei, lei+comb and adaptive share a capacity that
# lies in the history span of an earlier cell's run. So both diffs also pin
# shared cells of every selector: the local run and the memoizing worker
# answer them from an earlier cell, and the -memobudget 1 worker, which
# holds no corpus, simulates every one.
smokegrid="workloads=gzip,vpr,phased,trace:$workdir/gzip.trace;selectors=net,lei,net+comb,lei+comb,adaptive;scale=40;cachelimit=0,400;historycap=50,100,500,1000"
go build -o "$workdir/sweepd" ./cmd/sweepd
go build -o "$workdir/sweep" ./cmd/sweep
"$workdir/sweepd" -listen 127.0.0.1:0 >"$workdir/w1.log" & w1pid=$!
# The second worker's one-byte corpus budget rejects every corpus: its
# memo cells run live and its trace:<path> cell streams from disk, so the
# diff below also pins both fallbacks end to end.
"$workdir/sweepd" -listen 127.0.0.1:0 -memobudget 1 >"$workdir/w2.log" & w2pid=$!
# Each worker prints "sweepd: listening on <addr>" once bound.
for log in "$workdir/w1.log" "$workdir/w2.log"; do
    tries=0
    until grep -q 'listening on' "$log" 2>/dev/null; do
        tries=$((tries + 1))
        [ "$tries" -lt 100 ] || { echo "check.sh: sweepd never came up ($log)"; exit 1; }
        sleep 0.1
    done
done
addr1="$(sed -n 's/^sweepd: listening on //p' "$workdir/w1.log")"
addr2="$(sed -n 's/^sweepd: listening on //p' "$workdir/w2.log")"
"$workdir/sweep" -grid "$smokegrid" -sink jsonl >"$workdir/local.jsonl"
# Memoization differential: the default local run above memoizes
# (record-once/replay-many); the -memobudget 1 worker alone rejects every
# corpus, so every cell runs live and the trace cell streams from disk.
# That must not change a byte.
"$workdir/sweep" -grid "$smokegrid" -sink jsonl -remote "$addr2" >"$workdir/live.jsonl"
diff "$workdir/local.jsonl" "$workdir/live.jsonl" || {
    echo "check.sh: memoized sweep output differs from the live run on the -memobudget 1 worker"
    cat "$workdir/w2.log"
    exit 1
}
"$workdir/sweep" -grid "$smokegrid" -sink jsonl -remote "$addr1,$addr2" >"$workdir/remote.jsonl"
diff "$workdir/local.jsonl" "$workdir/remote.jsonl" || {
    echo "check.sh: distributed run output differs from local run"
    # Dump what the workers saw — the jsonl diff alone rarely explains a
    # remote divergence (job decode errors and panics land in these logs).
    for log in "$workdir/w1.log" "$workdir/w2.log"; do
        echo "---- $log ----"
        cat "$log"
    done
    exit 1
}
kill "$w1pid" "$w2pid"
wait "$w1pid" "$w2pid" 2>/dev/null || true
w1pid=""; w2pid=""
# The drained -memobudget 1 worker holds no corpus, so it shared no cell.
grep -q '^sweepd: memo .* shared=0$' "$workdir/w2.log" || {
    echo "check.sh: the -memobudget 1 worker shared cells"
    cat "$workdir/w2.log"
    exit 1
}
echo "distributed output byte-identical to local"

if [ "${BENCH_GATE:-1}" != "0" ]; then
    echo "== bench-regression gate: Pipeline + LEI + Adaptive + Combine + Sweep + SweepMemo + Replay vs BENCH_pipeline.json =="
    benchout="$workdir/bench.out"
    # No pipe: POSIX sh has no pipefail, a pipe would mask a go test failure.
    go test -run '^$' -bench '^(BenchmarkPipeline|BenchmarkLEI|BenchmarkAdaptive|BenchmarkCombine|BenchmarkSweep|BenchmarkSweepMemo|BenchmarkReplay)$' -benchmem -count=3 . >"$benchout"
    cat "$benchout"
    go run ./scripts/benchgate -baseline BENCH_pipeline.json -tol "${BENCH_TOL:-0.25}" <"$benchout"
fi

echo "== differential equivalence (x2) =="
go test -run Diff -count=2 ./internal/difftest/

if [ "$fuzztime" != "0" ]; then
    echo "== fuzz: FuzzNETSelect ($fuzztime) =="
    go test -run '^$' -fuzz '^FuzzNETSelect$' -fuzztime "$fuzztime" ./internal/difftest/
    echo "== fuzz: FuzzLEISelect ($fuzztime) =="
    go test -run '^$' -fuzz '^FuzzLEISelect$' -fuzztime "$fuzztime" ./internal/difftest/
    echo "== fuzz: FuzzCombinedSelect ($fuzztime) =="
    go test -run '^$' -fuzz '^FuzzCombinedSelect$' -fuzztime "$fuzztime" ./internal/difftest/
    echo "== fuzz: FuzzAdaptiveSelect ($fuzztime) =="
    go test -run '^$' -fuzz '^FuzzAdaptiveSelect$' -fuzztime "$fuzztime" ./internal/difftest/
    echo "== fuzz: FuzzRegionWalk ($fuzztime) =="
    go test -run '^$' -fuzz '^FuzzRegionWalk$' -fuzztime "$fuzztime" ./internal/difftest/
    echo "== fuzz: FuzzVM ($fuzztime) =="
    go test -run '^$' -fuzz '^FuzzVM$' -fuzztime "$fuzztime" ./internal/difftest/
    echo "== fuzz: FuzzJobCodec ($fuzztime) =="
    go test -run '^$' -fuzz '^FuzzJobCodec$' -fuzztime "$fuzztime" ./internal/sweepnet/
    echo "== fuzz: FuzzStreamDecode ($fuzztime) =="
    go test -run '^$' -fuzz '^FuzzStreamDecode$' -fuzztime "$fuzztime" ./internal/tracestream/
    echo "== fuzz: FuzzRepeatFinder ($fuzztime) =="
    go test -run '^$' -fuzz '^FuzzRepeatFinder$' -fuzztime "$fuzztime" ./internal/tracestream/
    echo "== fuzz: FuzzParse ($fuzztime) =="
    go test -run '^$' -fuzz '^FuzzParse$' -fuzztime "$fuzztime" ./internal/asm/
    echo "== fuzz: FuzzParseNoCrashOnGarbage ($fuzztime) =="
    go test -run '^$' -fuzz '^FuzzParseNoCrashOnGarbage$' -fuzztime "$fuzztime" ./internal/asm/
    echo "== fuzz: FuzzCompactDecode ($fuzztime) =="
    go test -run '^$' -fuzz '^FuzzCompactDecode$' -fuzztime "$fuzztime" ./internal/difftest/
    echo "== fuzz: FuzzDirectives ($fuzztime) =="
    go test -run '^$' -fuzz '^FuzzDirectives$' -fuzztime "$fuzztime" ./internal/lint/
fi

echo "check.sh: all checks passed"
