#!/bin/sh
# Pre-merge gate: gofmt cleanliness, vet, build, race-enabled tests, one pass
# of every microbenchmark, the stress, fpbdebug and checkpoint lanes, the
# benchmark module, and the daemon smoke. `make check` runs this script.
set -eux
cd "$(dirname "$0")/.."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt required for:" >&2
    echo "$unformatted" >&2
    exit 1
fi
go vet ./...
go build ./...
go test -race ./...
# Run every package microbenchmark once, so a benchmark that panics or has
# gone stale against its package's API fails the gate.
go test -run '^$' -bench . -benchtime 1x ./internal/...
# Stress lane for the concurrent service code: the worker pool, drain,
# cancel and failover tests must pass every time, not most of the time.
# The client package holds Fleet.Walk, the routing the coordinator uses too.
GOMAXPROCS=2 go test -count=20 ./internal/serve/ ./internal/serve/client/ ./internal/cluster/
# fpbdebug swaps in the Store.Get aliasing guard; run the packages that
# exercise it so the debug build stays green. It also enables the full
# prefill equivalence matrix in internal/system (every workload, core slot
# and Fig. 19/20 cache geometry against the forward LRU replay).
go test -tags fpbdebug ./internal/pcm/ ./internal/mem/ ./internal/system/
# perfbench is its own module, so `go test ./...` above never compiles it,
# yet it drives the system and ckpt APIs directly: vet and test it here so
# an API change breaks the gate, not the benchmark run.
(cd perfbench && GOWORK=off go vet ./... && GOWORK=off go test ./...)
# Checkpoint/warm-start gate: one fpbsim run checkpoints its warmup, a
# second restores it, and the full metrics snapshots must be byte-identical
# (TestRunnerWarmStartSweep in internal/exp asserts the same across a Fig. 18
# grid). CKPT=0 skips (the unit suite still covers the codecs).
if [ "${CKPT:-1}" = 1 ]; then
    CKDIR=$(mktemp -d)
    go run ./cmd/fpbsim -workload mcf_m -scheme fpb -instr 3000 -warmup 500000 \
        -checkpoint-dir "$CKDIR" -metrics "$CKDIR/cold.json" >/dev/null
    go run ./cmd/fpbsim -workload mcf_m -scheme fpb -instr 3000 -warmup 500000 \
        -checkpoint-dir "$CKDIR" -metrics "$CKDIR/warm.json" >/dev/null
    cmp "$CKDIR/cold.json" "$CKDIR/warm.json"
    rm -rf "$CKDIR"
fi
# End-to-end daemon smoke: real fpbd binary, one job through the full
# lifecycle, both /metrics formats asserted. SMOKE=0 skips it (e.g. for
# sandboxes without loopback listeners); it needs curl.
if [ "${SMOKE:-1}" = 1 ]; then
    ./scripts/smoke.sh
fi
