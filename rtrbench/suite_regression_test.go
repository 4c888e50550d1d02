package rtrbench

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/profile"
)

// TestFailedTrialLeavesNoPartialSamples is the regression test for the
// shard-purity bug: a measured trial that fails mid-run used to leave its
// partial counters and step samples in its profile shard, and Snapshot
// merged them into the TrialStats of the trials that completed.
//
// The synthetic kernel completes trial 0 (seed 1) with counter ops=100 and
// one step sample, then fails trial 1 (seed 2) after recording ops=999 and
// another step — the aggregate must only see trial 0's contribution.
func TestFailedTrialLeavesNoPartialSamples(t *testing.T) {
	info := Info{
		Name: "fake-partial",
		runWith: func(ctx context.Context, o Options, p *profile.Profile) (Result, error) {
			p.BeginROI()
			if o.Seed == 1 { // trial 0
				p.Count("ops", 100)
				p.StepDone()
				p.EndROI()
				return Result{Kernel: "fake-partial"}, nil
			}
			// Trial 1 pollutes the shard, then fails mid-run.
			p.Count("ops", 999)
			p.StepDone()
			return Result{}, errors.New("mid-run failure")
		},
	}
	kr := (&Engine{}).runKernelTrials(context.Background(), info, SuiteOptions{
		Options: Options{Seed: 1, StepLatency: true},
		Trials:  2,
	})
	if kr.Err == nil {
		t.Fatal("want trial-1 error")
	}
	if kr.FailedTrial != 1 {
		t.Fatalf("FailedTrial = %d, want 1", kr.FailedTrial)
	}
	ts := kr.Trials
	if ts == nil || ts.Trials != 1 {
		t.Fatalf("TrialStats = %+v, want 1 completed trial", ts)
	}
	if got := ts.Counters["ops"]; got != 100 {
		t.Errorf("Counters[ops] = %d, want 100 (failed trial leaked partial samples)", got)
	}
	if ts.Steps == nil || ts.Steps.Count != 1 {
		t.Errorf("Steps = %+v, want exactly trial 0's single sample", ts.Steps)
	}
}

// TestSuiteCancelSkipsQueuedKernels is the regression test for the
// semaphore-cancellation bug: after a first-failure cancel(), kernels still
// queued on the worker semaphore used to wait for a slot and then spin up a
// doomed run. With Parallel=1 and nine failing kernels, exactly one may
// ever start; the other eight must report the cancellation immediately.
func TestSuiteCancelSkipsQueuedKernels(t *testing.T) {
	const n = 9
	var started atomic.Int32
	// The running kernel fails only once every worker, its own included,
	// has reached the semaphore.
	var queued sync.WaitGroup
	queued.Add(n)
	infos := make([]Info, n)
	for i := range infos {
		infos[i] = Info{
			Name: fmt.Sprintf("fake-fail-%d", i),
			runWith: func(ctx context.Context, o Options, p *profile.Profile) (Result, error) {
				started.Add(1)
				queued.Wait()
				return Result{}, errors.New("boom")
			},
		}
	}
	e := &Engine{beforeSlot: queued.Done}
	res, err := e.RunKernels(context.Background(), infos, SuiteOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := started.Load(); got != 1 {
		t.Errorf("%d kernels started, want 1 (queued kernels must not spin up after cancel)", got)
	}
	failed, canceled := 0, 0
	for _, kr := range res.Kernels {
		switch {
		case errors.Is(kr.Err, context.Canceled):
			canceled++
			if kr.FailedTrial != -1 {
				t.Errorf("%s: FailedTrial = %d, want -1 (never ran)", kr.Info.Name, kr.FailedTrial)
			}
		case kr.Err != nil:
			failed++
		default:
			t.Errorf("%s: nil error in an all-failing sweep", kr.Info.Name)
		}
	}
	if failed != 1 || canceled != n-1 {
		t.Errorf("failed=%d canceled=%d, want 1 genuine failure and %d cancellations", failed, canceled, n-1)
	}
}
