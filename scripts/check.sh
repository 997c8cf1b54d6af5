#!/bin/sh
# check.sh — the full verification gauntlet, in increasing cost order:
# compile, gofmt, vet, twobit lint (static protocol analysis), the test suite
# under the race detector, a stress of the goroutine witness (livesim)
# under it, then a sweep smoke stage that exercises the
# experiment-orchestration engine end to end: a tiny campaign must produce
# byte-identical stores at workers=1 and workers=4, and a store truncated
# to half must converge to those same bytes under -resume. Then the
# zero-allocation and byte floors run once without the race detector, the model
# checker closes the small configurations outright and round-trips a
# seeded counterexample through -trace and -replay, and the wire codecs,
# the text trace reader, the kernel's event order, the command serializer,
# the top-K slot index and the false-sharing table take a 30 s fuzz each. Everything must pass for a change to land.
# Performance is not measured here: that is `go run ./bench`.
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> gofmt -l ."
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt: these files are not formatted:"
	echo "$unformatted"
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

# Every stage below runs one build of the command line.
SMOKE="$(mktemp -d)"
trap 'rm -rf "$SMOKE"' EXIT
go build -o "$SMOKE/twobit" ./cmd/twobit
TWOBIT="$SMOKE/twobit"

echo "==> twobit lint ./..."
"$TWOBIT" lint ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> livesim stress (1200 race-enabled runs)"
# The goroutine witness depends on the Go scheduler: one run proves
# little. Each run checks every load and store through the simulator's
# oracle and ends with its two-bit quiescent rule. Shutdown must wait for
# every message in flight, or a cache can quit with an invalidation queued
# and break that rule; and under eviction churn a stale clean EJECT or a
# denied grant must not reset a block another cache re-fetched
# (TestHeldInboxKeepsTheLiveCopy replays both deterministically).
go test -race -timeout 30m -count=200 -cpu 1,2,4 -run '^(TestRandomSharingCoherent|TestEvictionChurn)$' ./internal/livesim

echo "==> sweep smoke (determinism + resume)"
cat > "$SMOKE/plan.json" <<'EOF'
{
  "name": "smoke",
  "protocols": ["two-bit", "full-map", "full-map+E", "classical", "duplication", "write-once", "software"],
  "qs": [0.05, 0.10],
  "ws": [0.3],
  "procs": [4],
  "replicates": 2,
  "refs_per_proc": 300,
  "root_seed": 11
}
EOF
"$TWOBIT" sweep -plan "$SMOKE/plan.json" -workers 1 -out "$SMOKE/w1.jsonl" -quiet > /dev/null
"$TWOBIT" sweep -plan "$SMOKE/plan.json" -workers 4 -out "$SMOKE/w4.jsonl" -quiet > /dev/null
cmp "$SMOKE/w1.jsonl" "$SMOKE/w4.jsonl" || {
    echo "check.sh: workers=1 and workers=4 stores differ" >&2
    exit 1
}
# Simulate a killed campaign: keep the first half of the store, resume it.
LINES="$(wc -l < "$SMOKE/w1.jsonl")"
head -n "$((LINES / 2))" "$SMOKE/w1.jsonl" > "$SMOKE/half.jsonl"
"$TWOBIT" sweep -plan "$SMOKE/plan.json" -workers 4 -out "$SMOKE/half.jsonl" -resume -quiet > /dev/null
cmp "$SMOKE/w1.jsonl" "$SMOKE/half.jsonl" || {
    echo "check.sh: resumed store does not converge to the serial store" >&2
    exit 1
}

echo "==> sweep scaling smoke (multi-process slices)"
# Multi-process slices: two independent processes each fill one slice
# of the run-id space; -merge validates and canonicalizes.
"$TWOBIT" sweep -plan "$SMOKE/plan.json" -shard 0/2 -workers 2 \
    -shards "$SMOKE/mp" -quiet > /dev/null &
MP_PID=$!
"$TWOBIT" sweep -plan "$SMOKE/plan.json" -shard 1/2 -workers 2 \
    -shards "$SMOKE/mp" -quiet > /dev/null
wait "$MP_PID"
"$TWOBIT" sweep -plan "$SMOKE/plan.json" -merge \
    -shards "$SMOKE/mp" -out "$SMOKE/mp.jsonl" -quiet > /dev/null
cmp "$SMOKE/w1.jsonl" "$SMOKE/mp.jsonl" || {
    echo "check.sh: multi-process shard stores do not merge to the single-writer store" >&2
    exit 1
}
# Parallel-efficiency floor, only where the hardware can express it: a
# single-CPU runner can show determinism but not speedup.
NCPU="$(nproc 2>/dev/null || echo 1)"
if [ "$NCPU" -ge 4 ]; then
    go test -run '^TestScalingLaw$' -count=1 ./internal/sweep
else
    echo "    (efficiency floor skipped: $NCPU CPU(s); byte-identity covered above)"
fi

echo "==> pooled-runner smoke (heterogeneous shapes)"
# Every worker owns one pooled machine graph and resets it between runs;
# a plan that alternates protocols, interconnects, processor counts and
# scenario traces forces those resets across structurally different
# shapes. The workers=1 store is the canon; two concurrent slice
# processes of two workers each then re-execute the same plan through
# freshly pooled runners, and their merge must be byte-identical — any
# state leaking across a reset shows up as a cmp failure here.
cat > "$SMOKE/poolplan.json" <<'EOF4'
{
  "name": "poolsmoke",
  "protocols": ["two-bit", "full-map", "classical", "write-once"],
  "qs": [0.1],
  "ws": [0.3],
  "procs": [2, 4],
  "replicates": 1,
  "refs_per_proc": 200,
  "root_seed": 23,
  "scenarios": [{"name": "kv-serving"}, {"name": "false-sharing"}]
}
EOF4
"$TWOBIT" sweep -plan "$SMOKE/poolplan.json" -workers 1 -out "$SMOKE/pool_w1.jsonl" -quiet > /dev/null
"$TWOBIT" sweep -plan "$SMOKE/poolplan.json" -shard 0/2 -workers 2 \
    -shards "$SMOKE/poolshards" -quiet > /dev/null &
POOL_PID=$!
"$TWOBIT" sweep -plan "$SMOKE/poolplan.json" -shard 1/2 -workers 2 \
    -shards "$SMOKE/poolshards" -quiet > /dev/null
wait "$POOL_PID"
"$TWOBIT" sweep -plan "$SMOKE/poolplan.json" -merge \
    -shards "$SMOKE/poolshards" -out "$SMOKE/pool_merged.jsonl" -quiet > /dev/null
cmp "$SMOKE/pool_w1.jsonl" "$SMOKE/pool_merged.jsonl" || {
    echo "check.sh: pooled slice stores do not merge to the workers=1 canonical store" >&2
    exit 1
}

echo "==> zero-alloc and byte floors + order oracle + windowed passivity"
# go test -race above skips the ZeroAlloc and BytesPer tests (the race
# detector allocates on its own), so run them once without it: the
# kernel's schedule+drain path, the bus fan-out, every obs instrument,
# disabled and enabled, a warmed directory controller and a repeated
# invariant sweep must not allocate, and a fresh oracle's commit table
# must cost at most two 8-byte rows per version. The order oracle replays the retired
# container/heap implementation against the kernel's ring and overflow
# heap and fails on the first divergent pop; the passivity smoke demands
# that a run with windows and contention profiling on reproduce the
# uninstrumented run byte for byte once the snapshot is stripped.
go test -run 'ZeroAlloc|BytesPer' -count=1 ./...
go test -run '^TestKernelOrderOracle' -count=1 ./internal/sim
go test -run '^TestTimeSeriesDoesNotPerturb$' -count=1 ./internal/system

echo "==> trace export determinism"
cat > "$SMOKE/traceplan.json" <<'EOF2'
{
  "name": "tracesmoke",
  "protocols": ["two-bit"],
  "qs": [0.1],
  "ws": [0.3],
  "procs": [4],
  "refs_per_proc": 200,
  "root_seed": 7
}
EOF2
"$TWOBIT" obs -plan "$SMOKE/traceplan.json" -run 0 -format chrome -o "$SMOKE/trace1.json"
"$TWOBIT" obs -plan "$SMOKE/traceplan.json" -run 0 -format chrome -o "$SMOKE/trace2.json"
cmp "$SMOKE/trace1.json" "$SMOKE/trace2.json" || {
    echo "check.sh: trace export is not deterministic" >&2
    exit 1
}

echo "==> trace smoke (synthesize → replay determinism)"
# Same seed + scenario must produce the same simulation whether the
# trace streams from disk at any chunk size or is generated live: the
# streamed runs at two chunk sizes and the live-generator run must all
# print byte-identical results.
"$TWOBIT" trace synth -scenario kv-serving -procs 4 -refs 2000 -chunk 4096 -o "$SMOKE/big.mtrc2" -quiet
"$TWOBIT" trace synth -scenario kv-serving -procs 4 -refs 2000 -chunk 64 -o "$SMOKE/small.mtrc2" -quiet
"$TWOBIT" sim -trace "$SMOKE/big.mtrc2" -refs 2000 -json > "$SMOKE/run_big.json"
"$TWOBIT" sim -trace "$SMOKE/small.mtrc2" -refs 2000 -json > "$SMOKE/run_small.json"
cmp "$SMOKE/run_big.json" "$SMOKE/run_small.json" || {
    echo "check.sh: streamed replay differs across chunk sizes" >&2
    exit 1
}
"$TWOBIT" trace convert "$SMOKE/big.mtrc2" "$SMOKE/big.txt" -format text
"$TWOBIT" sim -trace "$SMOKE/big.txt" -refs 2000 -json > "$SMOKE/run_text.json"
cmp "$SMOKE/run_big.json" "$SMOKE/run_text.json" || {
    echo "check.sh: streamed replay differs from materialized replay" >&2
    exit 1
}

echo "==> mcheck: full 2-cache closures (every message-network protocol)"
for p in two-bit full-map full-map+E classical duplication software; do
    "$TWOBIT" mcheck -protocol=$p -caches=2 -blocks=2 -refs=2
done

echo "==> mcheck: full 3-cache x 1-block closure"
"$TWOBIT" mcheck -caches=3 -blocks=1 -refs=2

echo "==> mcheck: bounded 3-cache x 2-block prefix (wall-clock budget)"
"$TWOBIT" mcheck -caches=3 -blocks=2 -refs=2 -maxstates=100000

echo "==> mcheck: counterexample round trip (-bug, -trace, -replay)"
# A seeded defect must be caught (exit 1, not a usage error's 2), and the
# trace it writes must replay to the same verdict (exit 0).
STATUS=0
"$TWOBIT" mcheck -caches=2 -blocks=1 -bug=write-miss-invalidate -trace "$SMOKE/ce.trace" > /dev/null || STATUS=$?
[ "$STATUS" -eq 1 ] || {
    echo "check.sh: mcheck -bug exited $STATUS, want 1 (violation found)" >&2
    exit 1
}
"$TWOBIT" mcheck -replay "$SMOKE/ce.trace"

echo "==> fuzz: results codec (30s)"
go test -run '^$' -fuzz '^FuzzDecodeResults$' -fuzztime 30s ./internal/system

echo "==> fuzz: store prefix parser (30s)"
go test -run '^$' -fuzz '^FuzzStorePrefix$' -fuzztime 30s ./internal/sweep

echo "==> fuzz: mcheck trace codec (30s)"
go test -run '^$' -fuzz '^FuzzTraceCodec$' -fuzztime 30s ./internal/mcheck

echo "==> fuzz: chunked trace codec (30s)"
go test -run '^$' -fuzz '^FuzzChunkedCodec$' -fuzztime 30s ./internal/memtrace

echo "==> fuzz: text trace reader (30s)"
go test -run '^$' -fuzz '^FuzzReadText$' -fuzztime 30s ./internal/memtrace

echo "==> fuzz: kernel event order (30s)"
go test -run '^$' -fuzz '^FuzzKernelOrder$' -fuzztime 30s ./internal/sim

echo "==> fuzz: command serializer vs its map model (30s)"
go test -run '^$' -fuzz '^FuzzSerializer$' -fuzztime 30s ./internal/proto

echo "==> fuzz: top-K slot index vs its map model (30s)"
go test -run '^$' -fuzz '^FuzzTopK$' -fuzztime 30s ./internal/stats

echo "==> fuzz: false-sharing table vs its map model (30s)"
go test -run '^$' -fuzz '^FuzzFalseShare$' -fuzztime 30s ./internal/obs

echo "OK"
