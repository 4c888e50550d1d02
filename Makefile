# RTRBench-Go build and verification targets.

GO ?= go

.PHONY: all build test race bench bench-all benchdiff ci fmt vet verify golden-update stream

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 ./...

# Performance snapshot: per-kernel Table 1 benchmarks + zero-alloc step
# benchmarks, exported as BENCH_<date>.json (see scripts/bench.sh).
bench:
	sh scripts/bench.sh

# Full table/figure regeneration harness (see bench_test.go).
bench-all:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Statistical comparison of two snapshots: make benchdiff OLD=a.json NEW=b.json
# (Mann-Whitney U per benchmark; nonzero exit on significant regressions).
benchdiff:
	$(GO) run ./cmd/benchdiff $(OLD) $(NEW)

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...

# Correctness gate: diff every kernel's result digest against the goldens in
# rtrbench/testdata/golden/, plus the metamorphic invariance checks
# (parallelism, trial order, profiling on/off).
verify:
	$(GO) run ./cmd/rtrbench verify -metamorphic

# Regenerate the golden digests after an intentional result change. Review
# the diff before committing — every changed field is a changed answer.
golden-update:
	$(GO) run ./cmd/rtrbench verify -update

# Streaming real-time smoke: pfl as a 2ms periodic task for 1s with
# deadline-miss accounting. Override with
# make stream KERNEL=ekfslam PERIOD=5ms DURATION=2s POLICY=anytime-cutoff
KERNEL ?= pfl
PERIOD ?= 2ms
DURATION ?= 1s
POLICY ?= skip-next
stream:
	$(GO) run ./cmd/rtrbench stream -kernel $(KERNEL) -period $(PERIOD) \
		-deadline $(PERIOD) -duration $(DURATION) -policy $(POLICY)

# The full verification gate: gofmt + vet + build + race tests.
ci:
	sh scripts/ci.sh
