package rtrbench

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"repro/internal/profile"
)

// Engine is the reusable execution core behind Suite: warmup runs and
// measured trials per kernel, a bounded worker pool across kernels, retry
// and cancellation semantics, and per-kernel profile sharding. The CLI
// (`rtrbench suite`), the verification harness, the tests, and the
// rtrbenchd daemon all drive this one code path.
//
// The zero value is ready to use and behaves exactly like Suite. The two
// hooks exist for callers that need to bend the engine without forking it:
// tests inject synthetic kernels through Resolve, and profile-layer
// experiments swap the trial profile through NewProfile.
type Engine struct {
	// Resolve maps a kernel-name selection onto kernel descriptors; nil
	// uses the package registry in Table I order (empty selection = all).
	Resolve func(names []string) ([]Info, error)
	// NewProfile builds the parent profile whose shards the measured
	// trials of one kernel run against; nil uses the default profile
	// configured from the run options (deadline, step latency).
	NewProfile func(Options) *profile.Profile

	// beforeSlot, when set, runs in each kernel's worker just before it
	// waits for a worker slot, so tests can order events against the
	// semaphore without sleeping.
	beforeSlot func()
}

// Run resolves the kernel selection in opts and executes the sweep. It is
// Suite with an injectable engine; see Suite for the error contract.
func (e *Engine) Run(ctx context.Context, opts SuiteOptions) (SuiteResult, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return SuiteResult{}, err
	}
	resolve := e.Resolve
	if resolve == nil {
		resolve = suiteKernels
	}
	infos, err := resolve(opts.Kernels)
	if err != nil {
		return SuiteResult{}, err
	}
	return e.runKernels(ctx, infos, opts)
}

// RunKernels executes an already-resolved kernel list, bypassing Resolve —
// the entry point for callers holding synthetic or pre-filtered kernels.
func (e *Engine) RunKernels(ctx context.Context, infos []Info, opts SuiteOptions) (SuiteResult, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return SuiteResult{}, err
	}
	return e.runKernels(ctx, infos, opts)
}

// runKernels is the worker-pool core; opts is already normalized.
func (e *Engine) runKernels(ctx context.Context, infos []Info, opts SuiteOptions) (SuiteResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	res := SuiteResult{Kernels: make([]KernelResult, len(infos))}
	start := time.Now()
	sem := make(chan struct{}, opts.Parallel)
	var wg sync.WaitGroup
	for i, info := range infos {
		wg.Add(1)
		go func(i int, info Info) {
			defer wg.Done()
			// A queued kernel must not wait for a worker slot after the
			// suite is cancelled (first failure, ctx deadline, Ctrl-C):
			// pre-fix, every queued worker eventually acquired the
			// semaphore and spun up a doomed run. Report the cancellation
			// immediately instead.
			if e.beforeSlot != nil {
				e.beforeSlot()
			}
			select {
			case sem <- struct{}{}:
			case <-runCtx.Done():
				res.Kernels[i] = KernelResult{Info: info, FailedTrial: -1, Err: runCtx.Err()}
				return
			}
			defer func() { <-sem }()
			// The slot may have been won in a race with cancellation:
			// re-check so a cancelled suite never starts another kernel.
			if err := runCtx.Err(); err != nil {
				res.Kernels[i] = KernelResult{Info: info, FailedTrial: -1, Err: err}
				return
			}
			// Last line of defense: runWith already recovers kernel
			// panics, but a panic anywhere else in the trial machinery
			// must not kill the whole sweep.
			defer func() {
				if rec := recover(); rec != nil {
					res.Kernels[i] = KernelResult{Info: info, FailedTrial: -1, Err: newKernelError(info.Name, rec)}
					if !opts.ContinueOnError {
						cancel()
					}
				}
			}()
			kr := e.runKernelTrials(runCtx, info, opts)
			if kr.Err != nil && !opts.ContinueOnError {
				cancel()
			}
			res.Kernels[i] = kr
		}(i, info)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// runKernelTrials executes one kernel's warmup runs and measured trials on
// shards of a common profile, then folds the shards into the aggregate
// statistics. opts is already normalized.
func (e *Engine) runKernelTrials(ctx context.Context, info Info, opts SuiteOptions) KernelResult {
	kr := KernelResult{Info: info, FailedTrial: -1}
	base := opts.Options
	seed := base.seed()

	for w := 0; w < opts.Warmup; w++ {
		o := base
		o.Seed = seed
		// Warmup runs must match steady-state behaviour: no injected
		// faults, and no profile either (profile.Disabled also keeps the
		// injector's step hook inert).
		o.Fault = nil
		if _, err := runOnce(ctx, info, o, profile.Disabled(), opts.Timeout); err != nil {
			kr.Err = err
			return kr
		}
	}

	newProf := e.NewProfile
	if newProf == nil {
		newProf = newProfile
	}
	parent := newProf(base)
	sharded := profile.NewSharded(parent)
	rois := make([]time.Duration, 0, opts.Trials)
	var degraded int
	var faults []FaultEvent
	for t := 0; t < opts.Trials; t++ {
		o := base
		// Trial t always runs with seed base+t: the fault schedule and
		// kernel workload are functions of the trial index alone, so the
		// sweep is reproducible at any Parallel.
		o.Seed = seed + int64(t)
		r, err := runTrial(ctx, info, o, sharded, opts, &kr.Retried)
		for i := range r.Faults {
			r.Faults[i].Trial = t
		}
		faults = append(faults, r.Faults...)
		if err != nil {
			var ke *KernelError
			if errors.As(err, &ke) {
				ke.Trial = t
			}
			kr.Err = err
			kr.FailedTrial = t
			break
		}
		if t == 0 {
			kr.Result = r
		}
		if r.Degraded {
			degraded++
		}
		rois = append(rois, r.ROI)
	}
	if len(rois) == 0 {
		if len(faults) > 0 {
			kr.Trials = &TrialStats{Faults: faults}
		}
		return kr
	}

	merged := sharded.Snapshot()
	stats := &TrialStats{Trials: len(rois), Counters: merged.Counters, Degraded: degraded, Faults: faults}
	stats.ROIMean, stats.ROIMin, stats.ROIMax, stats.ROIStddev = aggregateROI(rois)
	if merged.Steps.Count > 0 || merged.Steps.Deadline > 0 {
		stats.Steps = &StepStats{
			Count:    merged.Steps.Count,
			Min:      merged.Steps.Min,
			Mean:     merged.Steps.Mean,
			P50:      merged.Steps.P50,
			P95:      merged.Steps.P95,
			P99:      merged.Steps.P99,
			Max:      merged.Steps.Max,
			Deadline: merged.Steps.Deadline,
			Misses:   merged.Steps.Misses,
		}
	}
	kr.Trials = stats
	return kr
}

// IsTransient reports whether err is the kind of failure the suite's
// retry machinery considers transient: a per-run deadline expiry
// (context.DeadlineExceeded anywhere in the chain). Callers deciding
// whether to retry must additionally confirm their own context is still
// live — a timeout observed after suite cancellation is just the
// cancellation. This is the engine's notion of transience, exported so
// layers above it (the rtrbenchd job queue) classify failures the same
// way the trial loop does.
func IsTransient(err error) bool {
	return errors.Is(err, context.DeadlineExceeded)
}

// retryJitter scales a backoff by a factor in [0.5, 1.5) drawn from rng.
// Without it every retrying trial of a sweep sleeps the identical linear
// schedule and the retry attempts re-collide in synchronized storms —
// exactly what overloaded the run into timing out in the first place.
// The rng is seeded per trial, so the jitter (like the fault schedule) is
// a pure function of the trial's seed and the sweep stays reproducible.
func retryJitter(base time.Duration, rng *rand.Rand) time.Duration {
	if base <= 0 {
		return base
	}
	return time.Duration((0.5 + rng.Float64()) * float64(base))
}

// runTrial executes one measured trial, retrying up to opts.Retries times
// after a transient failure. Transient means the per-run Timeout expired
// while the suite context is still live (IsTransient plus a live-context
// check); kernel errors, injected panics, and suite cancellation fail
// immediately. Each attempt runs on a fresh profile shard so an abandoned
// attempt leaves no partial samples behind. Retry backoff grows linearly
// with the attempt and is jittered by a per-trial seeded RNG so parallel
// kernels don't retry in lockstep.
func runTrial(ctx context.Context, info Info, o Options, sharded *profile.Sharded, opts SuiteOptions, retried *int) (Result, error) {
	var rng *rand.Rand
	for attempt := 0; ; attempt++ {
		shard := sharded.Shard()
		r, err := runOnce(ctx, info, o, shard, opts.Timeout)
		if err == nil {
			return r, nil
		}
		transient := IsTransient(err) && ctx.Err() == nil
		if !transient || attempt >= opts.Retries {
			// The failing attempt's partial samples must not survive into
			// the kernel's aggregate statistics: Snapshot merges every
			// shard, and pre-fix a mid-run failure left its counters and
			// step latencies behind to pollute the completed trials.
			shard.Reset()
			return r, err
		}
		shard.Reset()
		*retried++
		if opts.RetryBackoff > 0 {
			if rng == nil {
				rng = rand.New(rand.NewSource(o.Seed))
			}
			backoff := retryJitter(opts.RetryBackoff*time.Duration(attempt+1), rng)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return r, ctx.Err()
			}
		}
	}
}

// runOnce executes one kernel run, bounded by timeout when non-zero.
func runOnce(ctx context.Context, info Info, o Options, p *profile.Profile, timeout time.Duration) (Result, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return info.runWith(ctx, o, p)
}
