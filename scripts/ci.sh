#!/bin/sh
# ci.sh — the suite's verification gate. Runs formatting, vet, build, and
# the test suite with the race detector (the profile.Sharded tests are the
# concurrency-sensitive part). Usage: scripts/ci.sh  (or: make ci)
set -eu

cd "$(dirname "$0")/.."

# Shared scratch space for the service-smoke and benchdiff stages; the trap
# also reaps a daemon left behind by a failing stage.
benchtmp=$(mktemp -d)
cleanup() {
    [ -n "${daemon:-}" ] && kill "$daemon" 2>/dev/null
    rm -rf "$benchtmp"
}
trap cleanup EXIT

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test -race"
if go test -race -count=1 ./... ; then
    :
else
    status=$?
    echo "go test -race failed" >&2
    exit $status
fi

echo "== suite smoke sweep (parallel, race detector)"
# The full 16-kernel SizeSmall sweep through the parallel engine, with a
# per-run timeout so a hung kernel fails the gate instead of wedging it.
go run -race ./cmd/rtrbench suite --size small --parallel 4 --timeout 120s

echo "== golden verify (digest diff, race detector)"
# Correctness gate: every kernel's result digest (operation counts and
# final-state summaries, never timings) must match the goldens checked in
# under rtrbench/testdata/golden/. Run once serial and once parallel — the
# digests must be bit-identical either way; -metamorphic on the parallel run
# additionally proves trial-order and profiling independence. On intentional
# result changes, regenerate with `make golden-update` and review the diff.
go run -race ./cmd/rtrbench verify -parallel 1
go run -race ./cmd/rtrbench verify -parallel 8 -metamorphic

echo "== intra-kernel workers smoke (data-parallel loops, race detector)"
# The Workers > 1 code paths — pfl's weigh fan-out and prm's chunked
# connection — with real goroutine interleavings under the race detector.
# That they leave every digest unchanged rides the -metamorphic verify stage
# above (its "workers" property).
go run -race ./cmd/rtrbench suite --size small --parallel 2 --workers 4 \
    --kernels pfl,prm --timeout 120s

echo "== concurrency stress (race detector, 1/2/4 procs)"
# The concurrent tests of the service stack and the data-parallel kernels,
# repeated at several GOMAXPROCS: a test that assumes cross-call atomicity
# or sleep-based ordering passes on one core and flakes on more.
go test -race -count=5 -cpu 1,2,4 ./internal/resultstore ./internal/jobqueue \
    ./internal/durable ./internal/stream ./internal/profile ./internal/grid \
    ./internal/core/pfl ./internal/core/prm

echo "== streaming smoke (periodic real-time mode, race detector)"
# The streaming tentpole end to end: pfl driven as a 2ms-period periodic
# task with an implicit 2ms deadline for 1s of wall time, under the race
# detector, with the deadline-miss accounting sanity-checked from the JSON
# report — ticks advanced and the miss rate is a valid fraction. The
# queue and anytime-cutoff overload policies ride the deterministic
# virtual-clock tests in internal/stream and rtrbench (run above).
go run -race ./cmd/rtrbench stream -kernel pfl -period 2ms -deadline 2ms \
    -duration 1s -policy skip-next -format json -out "$benchtmp/stream.json"
jq -e '.stream.ticks >= 1 and .stream.miss_rate >= 0 and .stream.miss_rate <= 1
       and .stream.policy == "skip-next"' "$benchtmp/stream.json" >/dev/null

echo "== chaos sweep (injected faults, race detector)"
# The same sweep under deterministic fault injection: sensor dropouts and
# NaN corruption, stalls, and injected panics. The gate checks the process
# survives — panics must surface as structured per-kernel errors, not kill
# the sweep — and that panic recovery is race-clean.
go run -race ./cmd/rtrbench suite --size small -chaos -trials 2 -parallel 4 --timeout 120s

echo "== rtrbenchd service smoke (submit, cache hit, gauges, SIGTERM drain)"
# The daemon end to end under the race detector: two submissions of the
# same request — the first executes, the second must be a content-addressed
# cache hit — plus the result-by-digest read path, the queue/cache gauges
# on /metrics, and a SIGTERM drain that must exit 0.
go build -race -o "$benchtmp/rtrbenchd" ./cmd/rtrbenchd
"$benchtmp/rtrbenchd" -addr 127.0.0.1:0 -addrfile "$benchtmp/addr" -batch 2 -maxwait 50ms &
daemon=$!
i=0
while [ ! -s "$benchtmp/addr" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "rtrbenchd never wrote its address" >&2; exit 1; }
    sleep 0.1
done
base=$(cat "$benchtmp/addr")
req='{"kernels":["dmp","cem"],"trials":1,"seed":7}'
job=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$req" "$base/v1/jobs")
id=$(echo "$job" | jq -re .id)
done_view=$(curl -sf "$base/v1/jobs/$id?wait=120s")
echo "$done_view" | jq -e '.state == "done" and .cached != true' >/dev/null
digest=$(echo "$done_view" | jq -re .digest)
# Repeat submission: served from the store (cached), same digest.
curl -sf -X POST -H 'Content-Type: application/json' -d "$req" "$base/v1/jobs" \
    | jq -e --arg d "$digest" '.cached == true and .state == "done" and .digest == $d' >/dev/null
# Content-addressed read path.
curl -sf "$base/v1/results/$digest" | jq -e '.schema == "rtrbenchd.job/v1"' >/dev/null
# Queue and cache gauges on /metrics.
metrics=$(curl -sf "$base/metrics")
echo "$metrics" | grep -q '^rtrbench_queue_depth 0$'
echo "$metrics" | grep -q '^rtrbench_result_cache_hits 1$'
echo "$metrics" | grep -q '^rtrbench_jobs_cached 1$'
# Streaming job through the daemon, submitted under a client identity: it
# completes with a stream block, carries no digest (stream results are
# never content-addressed), and afterwards /metrics exposes the live
# rtrbench_stream_* counters plus the per-client dequeue label.
streamreq='{"stream":{"kernel":"dmp","period":"2ms","duration":"200ms"}}'
sid=$(curl -sf -X POST -H 'Content-Type: application/json' -H 'X-Client-ID: ci-smoke' \
    -d "$streamreq" "$base/v1/jobs" | jq -re .id)
sview=$(curl -sf "$base/v1/jobs/$sid?wait=120s")
echo "$sview" | jq -e '.state == "done" and (.digest // "") == ""
    and .result.kernels[0].stream.ticks >= 1' >/dev/null
metrics=$(curl -sf "$base/metrics")
echo "$metrics" | grep -q '^rtrbench_stream_ticks [1-9]'
echo "$metrics" | grep -q '^rtrbench_stream_jobs_completed 1$'
echo "$metrics" | grep -q 'rtrbench_jobs_dequeued_by_client{client="ci-smoke"} 1'
# SIGTERM drains in-flight work and exits 0.
kill -TERM "$daemon"
wait "$daemon"
daemon=

echo "== rtrbenchd crash-recovery smoke (kill -9, WAL replay, torn tail)"
# The durability drill: populate the cache through a WAL-backed daemon,
# kill -9 it (no drain, no snapshot), tear the final WAL record mid-byte,
# restart over the same data directory, and require (a) /readyz flips to
# ready, (b) recovery reports the truncation on /metrics, (c) the intact
# result is still a cache hit with the same digest, and (d) the torn
# result re-executes instead of serving corrupt state.
datadir="$benchtmp/data"
rm -f "$benchtmp/addr"
"$benchtmp/rtrbenchd" -addr 127.0.0.1:0 -addrfile "$benchtmp/addr" \
    -batch 1 -maxwait 10ms -data "$datadir" -fsync always &
daemon=$!
i=0
while [ ! -s "$benchtmp/addr" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "rtrbenchd (durable) never wrote its address" >&2; exit 1; }
    sleep 0.1
done
base=$(cat "$benchtmp/addr")
i=0
until curl -sf "$base/readyz" >/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "rtrbenchd (durable) never became ready" >&2; exit 1; }
    sleep 0.1
done
req1='{"kernels":["dmp"],"trials":1,"seed":7}'
req2='{"kernels":["cem"],"trials":1,"seed":7}'
id1=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$req1" "$base/v1/jobs" | jq -re .id)
digest1=$(curl -sf "$base/v1/jobs/$id1?wait=120s" | jq -re .digest)
id2=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$req2" "$base/v1/jobs" | jq -re .id)
curl -sf "$base/v1/jobs/$id2?wait=120s" | jq -e '.state == "done"' >/dev/null
# Crash hard: no drain, no snapshot — the WAL is all that survives.
kill -9 "$daemon"
wait "$daemon" 2>/dev/null || true
daemon=
# Tear the newest WAL record mid-byte (a torn write at the moment of the
# crash): recovery must truncate it, not refuse to start.
lastseg=$(ls "$datadir"/wal-*.jsonl | sort | tail -1)
segsize=$(wc -c < "$lastseg")
truncate -s $((segsize - 3)) "$lastseg"
rm -f "$benchtmp/addr"
"$benchtmp/rtrbenchd" -addr 127.0.0.1:0 -addrfile "$benchtmp/addr" \
    -batch 1 -maxwait 10ms -data "$datadir" -fsync always &
daemon=$!
i=0
while [ ! -s "$benchtmp/addr" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "restarted rtrbenchd never wrote its address" >&2; exit 1; }
    sleep 0.1
done
base=$(cat "$benchtmp/addr")
# /readyz flips false -> true once the replay lands.
i=0
until curl -sf "$base/readyz" >/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "restarted rtrbenchd never became ready" >&2; exit 1; }
    sleep 0.1
done
metrics=$(curl -sf "$base/metrics")
echo "$metrics" | grep -q '^rtrbench_wal_recovery_truncated 1$'
echo "$metrics" | grep -q '^rtrbench_wal_records_replayed 1$'
# The intact result survived the crash: a repeat submission is a cache hit
# with the same content address, served without re-execution.
curl -sf -X POST -H 'Content-Type: application/json' -d "$req1" "$base/v1/jobs" \
    | jq -e --arg d "$digest1" '.cached == true and .digest == $d' >/dev/null
# The torn result did not: its repeat submission re-executes (202, queued).
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: application/json' -d "$req2" "$base/v1/jobs")
[ "$code" = "202" ] || { echo "torn-tail result unexpectedly cached (HTTP $code)" >&2; exit 1; }
kill -TERM "$daemon"
wait "$daemon"
daemon=

echo "== fuzz smoke"
# Short native-fuzz bursts over the untrusted-input surfaces (one -fuzz
# target per invocation is a Go toolchain restriction). The checked-in
# corpora under testdata/fuzz/ already ran as regular tests above. The
# kdtree differential target runs under the race detector: its oracle
# comparison is exactly the kind of traversal code where a data race in the
# shared candidate heap would hide.
go test -run FuzzVariantParsing -fuzz FuzzVariantParsing -fuzztime 5s ./rtrbench
go test -run FuzzIndoorMap -fuzz FuzzIndoorMap -fuzztime 5s ./internal/maps
go test -race -run FuzzKDTreeNearest -fuzz FuzzKDTreeNearest -fuzztime 5s ./internal/kdtree
go test -run FuzzHistogram -fuzz FuzzHistogram -fuzztime 5s ./internal/obs

echo "== benchdiff gate (interleaved A/A statistics + zero-alloc + ledger chain)"
# The single perf regression gate. One -count 10 run of the hottest step
# benchmarks is split sample-by-sample into two interleaved
# rtrbench.bench/v2 half-snapshots (benchjson -split) — an A/A comparison
# on identical code where slow machine drift (thermal state, background
# load) lands evenly on both halves instead of separating them.
# cmd/benchdiff compares the halves with the Mann-Whitney U test and must
# pass: the significance test plus the -threshold noise floor suppress
# pure noise. The same invocation folds in the old alloc gate: -zeroalloc
# pins the steady-state step benchmarks to exactly 0 allocs/op (the
# benchmarks also assert this themselves via b.Fatalf), and any allocs/op
# growth between the halves is a deterministic regression. Finally the
# two snapshots are chained into a throwaway ledger and the hash chain
# verified, exercising the append/verify path end to end.
{
    go test -run '^$' -bench '^BenchmarkEKFSLAMStep$' -benchtime 10x -count 10 -benchmem ./internal/core/ekfslam
    go test -run '^$' -bench '^BenchmarkPFLStep$' -benchtime 10x -count 10 -benchmem ./internal/core/pfl
} | go run ./cmd/benchjson -date ci -goldens rtrbench/testdata/golden -split "$benchtmp/a.json,$benchtmp/b.json"
go run ./cmd/benchdiff -threshold 10 -zeroalloc 'Step$' "$benchtmp/a.json" "$benchtmp/b.json"
go run ./cmd/benchdiff -ledger append -ledger-file "$benchtmp/ledger.jsonl" -note "ci A" "$benchtmp/a.json"
go run ./cmd/benchdiff -ledger append -ledger-file "$benchtmp/ledger.jsonl" -note "ci B" "$benchtmp/b.json"
go run ./cmd/benchdiff -ledger verify -ledger-file "$benchtmp/ledger.jsonl"

echo "CI OK"
