#!/usr/bin/env bash
# bench_trajectory.sh — run the committed benchmark-trajectory sets (PR 3:
# compute fast path, PR 4: heterogeneous shards, PR 5: batched training
# epoch, PR 7: wire codecs, PR 8: hedged-dispatch tail latency, PR 9: fused
# GEMM epilogues + kernel tiers, PR 10: persistent region atlas), merge the
# results into one JSON file, and gate
# them against the committed snapshots with `benchjson -compare`.
#
# Usage (from anywhere inside the repo; CI runs it verbatim):
#
#   scripts/bench_trajectory.sh [out.json]
#
# Environment:
#   BENCH_TOL   allowed fractional ns/op regression vs snapshot (default 0.35)
#
# Exits non-zero when any committed trajectory benchmark regressed past the
# tolerance or vanished from the run. Benchmarks added since the snapshots
# ride along without being gated.
set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

out="${1:-BENCH_ci.json}"
tol="${BENCH_TOL:-0.35}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Each bench run writes to its own file so a failure in any of them fails
# the script (a piped brace group would only surface the last command's
# exit status).
echo "== PR 3 set: batched forward, region-cached extraction, GEMM kernels"
go test -run='^$' -bench='Logits(Loop|Batch)256|Predict(Loop|Batch)256|MaxoutLogits' -benchtime=20x ./internal/nn/ >"$tmp/nn.txt"
go test -run='^$' -bench='Extract' -benchtime=20x ./internal/openbox/ >"$tmp/openbox.txt"
go test -run='^$' -bench='Mul(BT|Naive)?_256' -benchtime=10x ./internal/mat/ >"$tmp/mat.txt"

echo "== PR 4 set: heterogeneous shard topologies"
go test -run='^$' -bench='BenchmarkShard_(Local4|Remote2Local2)' -benchtime=20x ./internal/api/ >"$tmp/shard.txt"

echo "== PR 5 set: batched training epoch"
go test -run='^$' -bench='BenchmarkTrainEpoch' -benchtime=10x ./internal/nn/ >"$tmp/train.txt"

# The small-batch codec round trips run in microseconds, so they get a
# deeper iteration count than the heavyweight sets to keep the gate quiet.
echo "== PR 7 set: wire codec round trips (/batch payloads, JSON vs binary)"
go test -run='^$' -bench='BenchmarkWireBatch' -benchtime=200x ./internal/wire/ >"$tmp/wire.txt"

echo "== PR 8 set: hedged dispatch tail latency (spiky remote, p99 metric)"
go test -run='^$' -bench='BenchmarkShard_Tail_(Unhedged|Hedged)' -benchtime=20x ./internal/api/ >"$tmp/hedge.txt"

echo "== PR 9 set: fused GEMM epilogues and forward at the best tier"
go test -run='^$' -bench='BenchmarkMulEpilogue' -benchtime=10x ./internal/mat/ >"$tmp/epilogue.txt"
go test -run='^$' -bench='BenchmarkForwardFused256' -benchtime=20x ./internal/nn/ >"$tmp/fused.txt"

# The warm-lookup path runs in microseconds, so like the wire set it gets a
# deeper iteration count: at 20x the first-iteration page-cache effects
# dominate and the gate would flap.
echo "== PR 10 set: region atlas (cold compose vs warm disk lookup, reopen)"
go test -run='^$' -bench='BenchmarkAtlas_(ColdCompose|WarmLookup)' -benchtime=500x ./internal/atlas/ >"$tmp/atlas.txt"
go test -run='^$' -bench='BenchmarkAtlas_Reopen' -benchtime=50x ./internal/atlas/ >>"$tmp/atlas.txt"

cat "$tmp"/nn.txt "$tmp"/openbox.txt "$tmp"/mat.txt "$tmp"/shard.txt "$tmp"/train.txt "$tmp"/wire.txt "$tmp"/hedge.txt "$tmp"/epilogue.txt "$tmp"/fused.txt "$tmp"/atlas.txt |
	go run ./cmd/benchjson -out "$out" \
		-compare BENCH_pr3.json,BENCH_pr4.json,BENCH_pr5.json,BENCH_pr7.json,BENCH_pr8.json,BENCH_pr9.json,BENCH_pr10.json -tol "$tol"
