package rtrbench

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestRegistryIndices checks the map-backed registry covers exactly the
// paper's indices 1-16 with no duplicate name or index.
func TestRegistryIndices(t *testing.T) {
	ks := Kernels()
	if len(ks) != 16 {
		t.Fatalf("Kernels() = %d entries, want 16", len(ks))
	}
	seenIdx := map[int]string{}
	seenName := map[string]bool{}
	for _, k := range ks {
		if k.Index < 1 || k.Index > 16 {
			t.Errorf("kernel %s has index %d outside 1..16", k.Name, k.Index)
		}
		if prev, dup := seenIdx[k.Index]; dup {
			t.Errorf("index %d claimed by both %s and %s", k.Index, prev, k.Name)
		}
		seenIdx[k.Index] = k.Name
		if seenName[k.Name] {
			t.Errorf("duplicate kernel name %s", k.Name)
		}
		seenName[k.Name] = true
	}
	for i := 1; i <= 16; i++ {
		if _, ok := seenIdx[i]; !ok {
			t.Errorf("no kernel with index %d", i)
		}
	}
}

// TestInvalidVariants checks every kernel rejects a bogus variant string
// with an error instead of silently falling back to the default config.
func TestInvalidVariants(t *testing.T) {
	for _, k := range Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			_, err := Run(k.Name, Options{Size: SizeSmall, Variant: "no-such-variant"})
			if err == nil {
				t.Fatalf("%s: bogus variant accepted, want error", k.Name)
			}
		})
	}
	// Numeric-variant kernels must also reject out-of-range values.
	if _, err := Run("movtar", Options{Size: SizeSmall, Variant: "4"}); err == nil {
		t.Error("movtar: variant size 4 accepted, want error (must be > 8)")
	}
}

// TestRunContextCancelled checks a pre-cancelled context aborts every
// kernel promptly with ctx.Err() — the engine's per-step cancellation
// contract.
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, k := range Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			start := time.Now()
			_, err := RunContext(ctx, k.Name, Options{Size: SizeSmall})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			// Generous bound: configuration may build maps, but no kernel
			// may run to completion (a small run is well under this, so
			// the check only catches ignoring ctx entirely on big loops).
			if d := time.Since(start); d > 5*time.Second {
				t.Errorf("cancelled run took %v", d)
			}
		})
	}
}

// TestRunContextCancelMidRun cancels from the first step of a 25-step pfl
// run and checks the kernel stops within a step, not at the end of the
// workload. The cancel runs in the profile's step hook, so it lands at the
// same point of the run every time.
func TestRunContextCancelMidRun(t *testing.T) {
	k, ok := Lookup("pfl")
	if !ok {
		t.Fatal("pfl not registered")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{Size: SizeSmall}
	p := newProfile(opts)
	steps := 0
	p.SetStepHook(func() {
		steps++
		cancel()
	})
	if _, err := k.runWith(ctx, opts, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if steps != 1 {
		t.Errorf("kernel finished %d steps, want 1 (it must stop at the first step after cancellation)", steps)
	}
}

// TestSuiteDeterministicAcrossParallelism runs the full 16-kernel sweep
// sequentially and in parallel and checks the per-kernel Metrics are
// identical: parallelism must not leak into kernel results.
func TestSuiteDeterministicAcrossParallelism(t *testing.T) {
	seq, err := Suite(context.Background(), SuiteOptions{
		Options:  Options{Size: SizeSmall, Seed: 7},
		Parallel: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.FirstError(); err != nil {
		t.Fatal(err)
	}
	par, err := Suite(context.Background(), SuiteOptions{
		Options:  Options{Size: SizeSmall, Seed: 7},
		Parallel: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := par.FirstError(); err != nil {
		t.Fatal(err)
	}
	if len(seq.Kernels) != 16 || len(par.Kernels) != 16 {
		t.Fatalf("kernel counts %d/%d, want 16", len(seq.Kernels), len(par.Kernels))
	}
	for i := range seq.Kernels {
		s, p := seq.Kernels[i], par.Kernels[i]
		if s.Info.Name != p.Info.Name {
			t.Fatalf("order mismatch at %d: %s vs %s", i, s.Info.Name, p.Info.Name)
		}
		if len(s.Result.Metrics) == 0 {
			t.Errorf("%s: no metrics", s.Info.Name)
		}
		for name, sv := range s.Result.Metrics {
			if pv, ok := p.Result.Metrics[name]; !ok || pv != sv {
				t.Errorf("%s: metric %s sequential=%v parallel=%v", s.Info.Name, name, sv, pv)
			}
		}
	}
}

// TestSuiteTrialStats checks warmup+trials bookkeeping and the aggregate
// statistics on a cheap kernel with per-step latency tracking.
func TestSuiteTrialStats(t *testing.T) {
	res, err := Suite(context.Background(), SuiteOptions{
		Options:  Options{Size: SizeSmall, StepLatency: true},
		Kernels:  []string{"pfl"},
		Parallel: 2,
		Trials:   3,
		Warmup:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Kernels) != 1 {
		t.Fatalf("got %d kernels, want 1", len(res.Kernels))
	}
	kr := res.Kernels[0]
	if kr.Err != nil {
		t.Fatal(kr.Err)
	}
	ts := kr.Trials
	if ts == nil || ts.Trials != 3 {
		t.Fatalf("Trials stats = %+v, want 3 trials", ts)
	}
	if ts.ROIMin <= 0 || ts.ROIMin > ts.ROIMean || ts.ROIMean > ts.ROIMax {
		t.Errorf("ROI stats out of order: min=%v mean=%v max=%v", ts.ROIMin, ts.ROIMean, ts.ROIMax)
	}
	// The merged step distribution covers all three trials; the
	// representative result holds only the first.
	if ts.Steps == nil || kr.Result.Steps == nil {
		t.Fatalf("step stats missing: merged=%v single=%v", ts.Steps, kr.Result.Steps)
	}
	if want := 3 * kr.Result.Steps.Count; ts.Steps.Count != want {
		t.Errorf("merged step count = %d, want %d (3 trials x %d)", ts.Steps.Count, want, kr.Result.Steps.Count)
	}
}

// TestSuiteTimeout checks per-run timeouts surface as per-kernel errors
// and that ContinueOnError keeps the sweep going.
func TestSuiteTimeout(t *testing.T) {
	res, err := Suite(context.Background(), SuiteOptions{
		Options:         Options{Size: SizeSmall},
		Kernels:         []string{"pfl", "mpc"},
		Parallel:        1,
		Timeout:         time.Nanosecond,
		ContinueOnError: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, kr := range res.Kernels {
		if !errors.Is(kr.Err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want DeadlineExceeded", kr.Info.Name, kr.Err)
		}
	}
}

// TestSuiteAbortsOnError checks the default abort-on-first-error mode
// cancels the remaining kernels.
func TestSuiteAbortsOnError(t *testing.T) {
	res, err := Suite(context.Background(), SuiteOptions{
		Options:  Options{Size: SizeSmall},
		Parallel: 1,
		Timeout:  time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstError() == nil {
		t.Fatal("want a per-kernel error")
	}
	failed := 0
	for _, kr := range res.Kernels {
		if kr.Err != nil {
			failed++
		}
	}
	if failed != len(res.Kernels) {
		t.Errorf("%d/%d kernels failed; abort should cancel the rest", failed, len(res.Kernels))
	}
}

// TestSuiteUnknownKernel checks selection validation.
func TestSuiteUnknownKernel(t *testing.T) {
	if _, err := Suite(context.Background(), SuiteOptions{Kernels: []string{"nope"}}); err == nil {
		t.Fatal("want error for unknown kernel")
	}
}

// TestSuiteRejectsVariant checks the suite refuses a global variant.
func TestSuiteRejectsVariant(t *testing.T) {
	if _, err := Suite(context.Background(), SuiteOptions{Options: Options{Variant: "connect"}}); err == nil {
		t.Fatal("want error for suite-wide variant")
	}
}

// TestAggregateROI checks the trial statistics math on synthetic data.
func TestAggregateROI(t *testing.T) {
	mean, min, max, stddev := aggregateROI([]time.Duration{10, 20, 30})
	if mean != 20 || min != 10 || max != 30 {
		t.Errorf("mean=%d min=%d max=%d, want 20/10/30", mean, min, max)
	}
	// Population stddev of {10,20,30} is sqrt(200/3) ≈ 8.16.
	if stddev < 8 || stddev > 9 {
		t.Errorf("stddev = %d, want ≈8", stddev)
	}
	mean, min, max, stddev = aggregateROI([]time.Duration{42})
	if mean != 42 || min != 42 || max != 42 || stddev != 0 {
		t.Errorf("single trial: mean=%d min=%d max=%d stddev=%d", mean, min, max, stddev)
	}
	if mean, min, max, stddev = aggregateROI(nil); mean != 0 || min != 0 || max != 0 || stddev != 0 {
		t.Error("empty input should aggregate to zeros")
	}
}
