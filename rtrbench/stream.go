package rtrbench

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/stream"
)

// StreamPolicy aliases the scheduler's overload policy so CLI and daemon
// surfaces can stay off internal/stream.
type StreamPolicy = stream.Policy

// The overload policies, re-exported for callers outside internal/.
const (
	StreamPolicySkipNext      = stream.PolicySkipNext
	StreamPolicyQueue         = stream.PolicyQueue
	StreamPolicyAnytimeCutoff = stream.PolicyAnytimeCutoff
)

// ParseStreamPolicy maps a user-facing policy string onto a StreamPolicy;
// the empty string selects skip-next.
func ParseStreamPolicy(s string) (StreamPolicy, error) {
	return stream.ParsePolicy(s)
}

// StreamOptions configure a streaming run: a registered kernel driven as a
// long-lived periodic task (see package stream for the scheduler model).
// The embedded Options configure the kernel itself (size, seed, variant,
// workers, best-effort); the stream fields configure the periodic schedule.
// Options.Deadline/StepLatency and Options.Fault do not compose with
// streaming — the scheduler owns per-tick timing, and chaos injection would
// displace the step hook the driver runs on — so Normalize clears the
// former and rejects the latter.
type StreamOptions struct {
	Options

	// Kernel names the registered kernel to stream (required).
	Kernel string
	// Period is the tick release interval (required, > 0).
	Period time.Duration
	// Deadline is the relative per-tick deadline; 0 means the period.
	Deadline time.Duration
	// Duration bounds the stream in wall time: no tick starts at or after
	// start+Duration, so only the tick running at the bound runs past it.
	// A stream must be bounded: Duration or MaxTicks must be set.
	Duration time.Duration
	// MaxTicks bounds the stream in executed ticks (0 = unbounded here;
	// then Duration must be set).
	MaxTicks int64
	// Policy is the overload policy; empty means stream.PolicySkipNext.
	// stream.PolicyAnytimeCutoff implies Options.BestEffort: a cut-off
	// kernel run returns its best partial result.
	Policy stream.Policy
	// Live, when non-nil, receives running rtrbench_stream_* metrics.
	Live *obs.Registry
}

// Normalize validates o and fills defaults. Like SuiteOptions.Normalize it
// is the single admission point shared by the CLI and the daemon.
func (o StreamOptions) Normalize() (StreamOptions, error) {
	if o.Kernel == "" {
		return o, fmt.Errorf("stream: Kernel is required")
	}
	if o.Period <= 0 {
		return o, fmt.Errorf("stream: Period must be > 0 (got %v)", o.Period)
	}
	if o.Deadline < 0 {
		return o, fmt.Errorf("stream: Deadline must be >= 0 (got %v)", o.Deadline)
	}
	if o.Deadline == 0 {
		o.Deadline = o.Period
	}
	if o.Duration < 0 || o.MaxTicks < 0 {
		return o, fmt.Errorf("stream: Duration and MaxTicks must be >= 0")
	}
	if o.Duration == 0 && o.MaxTicks == 0 {
		return o, fmt.Errorf("stream: unbounded stream (set Duration or MaxTicks)")
	}
	if o.Workers < 0 {
		return o, fmt.Errorf("stream: Workers must be >= 0 (got %d)", o.Workers)
	}
	if o.Fault != nil {
		return o, fmt.Errorf("stream: chaos injection is not supported in stream mode")
	}
	p, err := stream.ParsePolicy(string(o.Policy))
	if err != nil {
		return o, err
	}
	o.Policy = p
	if p == stream.PolicyAnytimeCutoff {
		o.BestEffort = true
	}
	// The scheduler owns all per-tick timing; the kernel-side step
	// instrumentation would only double-measure.
	o.Options.Deadline = 0
	o.Options.StepLatency = false
	o.Seed = o.Options.seed()
	return o, nil
}

// StreamResult is the outcome of one streaming run.
type StreamResult struct {
	Kernel string
	// Stream is the scheduler's accounting: ticks, misses, sheds, cutoffs,
	// latency and jitter distributions.
	Stream stream.Result
	// Runs counts kernel workload executions the stream drove: when a
	// workload completes, the driver restarts the kernel with seed
	// base+run, so a long stream cycles through fresh workloads.
	Runs int64
	// Degraded counts runs that ended with a best-effort partial result
	// (expected under anytime-cutoff).
	Degraded int64
}

// Streamer runs streaming jobs with injectable dependencies, mirroring
// Engine for batch sweeps. The zero value streams registered kernels on the
// wall clock.
type Streamer struct {
	// Resolve locates a kernel by name; nil uses the package registry.
	Resolve func(name string) (Info, bool)
	// Clock injects the scheduler time source; nil uses the wall clock.
	// A virtual clock composes with synthetic kernels for deterministic
	// driver tests; the anytime-cutoff watchdog remains wall-clock and is
	// effectively inert under a virtual clock.
	Clock stream.Clock
}

// Stream runs the named kernel as a periodic task with default wiring.
func Stream(ctx context.Context, opts StreamOptions) (StreamResult, error) {
	var s Streamer
	return s.Run(ctx, opts)
}

// Run executes one streaming job: it starts the kernel driver goroutine and
// hands its per-tick step to the periodic scheduler. On a clean bound
// (Duration/MaxTicks reached) the error is nil; on cancellation the partial
// result is returned with ctx.Err(); a kernel failure aborts the stream.
func (s *Streamer) Run(ctx context.Context, opts StreamOptions) (StreamResult, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return StreamResult{}, err
	}
	lookup := s.Resolve
	if lookup == nil {
		lookup = Lookup
	}
	info, ok := lookup(opts.Kernel)
	if !ok {
		return StreamResult{}, fmt.Errorf("rtrbench: unknown kernel %q", opts.Kernel)
	}
	if info.validate != nil {
		if err := info.validate(opts.Options); err != nil {
			return StreamResult{}, err
		}
	}
	clk := s.Clock
	if clk == nil {
		clk = stream.WallClock{}
	}

	d := newStreamDriver(info, opts, clk)
	driverCtx, stopDriver := context.WithCancel(ctx)
	defer stopDriver()
	go d.run(driverCtx)

	res, err := stream.Run(ctx, stream.Options{
		Period:   opts.Period,
		Deadline: opts.Deadline,
		Duration: opts.Duration,
		MaxTicks: opts.MaxTicks,
		Policy:   opts.Policy,
		Clock:    clk,
		Live:     opts.Live,
	}, d.step)

	stopDriver()
	<-d.done
	out := StreamResult{Kernel: info.Name, Stream: res, Runs: d.runs, Degraded: d.degraded}
	return out, err
}

// streamDriver adapts a registered kernel onto the scheduler's Step
// contract. The kernel runs in its own goroutine and is gated one step at a
// time through the profile's StepDone hook:
//
//	scheduler ──release──▶ kernel executes one step ──evStep──▶ scheduler
//
// release is a cap-1 channel the scheduler sends on once per tick; the
// kernel consumes it either at run start (first step of a fresh workload)
// or inside the step hook (subsequent steps), executes exactly one step,
// and reports back on events. When a workload completes, the driver
// restarts the kernel with seed base+run; a release consumed by a run that
// ended before paying it off with a step (a cancelled run, or a hook that
// observed its workload's final step) is carried into the next run so the
// scheduler's release/step ledger always balances.
type streamDriver struct {
	info Info
	opts StreamOptions
	clk  stream.Clock

	release chan struct{}
	events  chan driverEvent
	done    chan struct{}

	mu        sync.Mutex
	cancelRun context.CancelFunc
	runs      int64
	degraded  int64
}

type driverEvent struct {
	step      bool // one kernel step completed (pays off one release)
	runEnd    bool // a kernel workload run returned
	cancelled bool // ... because its run context was cancelled
	err       error
}

func newStreamDriver(info Info, opts StreamOptions, clk stream.Clock) *streamDriver {
	return &streamDriver{
		info:    info,
		opts:    opts,
		clk:     clk,
		release: make(chan struct{}, 1),
		events:  make(chan driverEvent),
		done:    make(chan struct{}),
	}
}

// run is the kernel goroutine: an endless loop of kernel workloads, each
// gated step-by-step by the scheduler. ctx spans the whole stream; each
// workload additionally gets its own cancellable run context so the
// anytime-cutoff watchdog can abort one run without ending the stream.
func (d *streamDriver) run(ctx context.Context) {
	defer close(d.done)
	base := d.opts.Options.seed()
	carry := false
	for runIdx := int64(0); ; runIdx++ {
		if !carry {
			select {
			case <-d.release:
			case <-ctx.Done():
				return
			}
		}
		carry = false

		runCtx, cancel := context.WithCancel(ctx)
		d.setCancel(cancel)
		// pending: a release has been consumed whose step has not completed
		// yet. steps: evStep events sent by this run.
		pending := true
		steps := 0
		prof := profile.New()
		prof.SetStepHook(func() {
			select {
			case d.events <- driverEvent{step: true}:
				steps++
			case <-runCtx.Done():
				return
			}
			pending = false
			select {
			case <-d.release:
				pending = true
			case <-runCtx.Done():
			}
		})

		o := d.opts.Options
		o.Seed = base + runIdx
		res, err := d.info.runWith(runCtx, o, prof)
		// Read the cancellation state BEFORE cancel(): afterwards
		// runCtx.Err() is always non-nil and a genuine kernel failure would
		// be misclassified as a cancelled run (and silently swallowed).
		cancelled := runCtx.Err() != nil
		cancel()
		d.setCancel(nil)

		d.mu.Lock()
		d.runs++
		if res.Degraded {
			d.degraded++
		}
		d.mu.Unlock()

		if ctx.Err() != nil {
			return
		}
		ev := driverEvent{runEnd: true, cancelled: cancelled}
		switch {
		case err != nil && !cancelled:
			// A genuine kernel failure (config error, panic surfaced as
			// *KernelError): fatal for the stream.
			ev.err = err
		case !cancelled && steps == 0 && pending:
			// A workload that completed without a single StepDone would
			// spin the restart loop at full speed; no registered kernel
			// does this, so treat it as a contract violation.
			ev.err = fmt.Errorf("kernel %s: workload completed without any StepDone", d.info.Name)
		}
		select {
		case d.events <- ev:
		case <-ctx.Done():
			return
		}
		if ev.err != nil {
			return
		}
		carry = pending
	}
}

func (d *streamDriver) setCancel(fn context.CancelFunc) {
	d.mu.Lock()
	d.cancelRun = fn
	d.mu.Unlock()
}

// cutoff aborts the kernel run currently executing (anytime-cutoff
// watchdog). Between runs it is a no-op.
func (d *streamDriver) cutoff() {
	d.mu.Lock()
	fn := d.cancelRun
	d.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// step is the scheduler-facing Step: release one kernel step, then wait for
// it to complete. Run-end events that arrive while waiting are workload
// boundaries — the replacement run's first step still pays off this tick —
// unless the tick's own cutoff watchdog fired, in which case the aborted
// run IS the cut-off step.
//
// The release send and the event wait share one select rather than running
// sequentially: when the cutoff watchdog cancels a run mid-step, that
// tick's release can be left unconsumed in the buffer (the run died before
// its hook could take it) while the tick is paid by the cancellation. The
// next tick then finds the buffer full — its payment arrives as the
// carried-over replacement run's first step event, and blocking on the
// send first would deadlock against the driver's own event send. A tick
// paid without its send having happened is fine: it settles the earlier
// tick that sent without being paid by a step.
func (d *streamDriver) step(ctx context.Context, t stream.Tick) error {
	var cut atomic.Bool
	if t.Cutoff {
		wait := t.Deadline.Sub(d.clk.Now())
		timer := time.AfterFunc(wait, func() {
			cut.Store(true)
			d.cutoff()
		})
		defer timer.Stop()
	}
	sent := false
	for {
		if !sent {
			select {
			case d.release <- struct{}{}:
				sent = true
			case ev := <-d.events:
				if done, err := d.settleEvent(ev, &cut); done {
					return err
				}
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		select {
		case ev := <-d.events:
			if done, err := d.settleEvent(ev, &cut); done {
				return err
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// settleEvent classifies one driver event against the current tick: done
// reports whether the event completes the tick (with the tick's outcome in
// err — nil, ErrCutoff, or a fatal kernel error). A run-end without the
// tick's cutoff is a workload boundary: not done, keep waiting for the
// replacement run's first step.
func (d *streamDriver) settleEvent(ev driverEvent, cut *atomic.Bool) (done bool, err error) {
	switch {
	case ev.err != nil:
		return true, ev.err
	case ev.step:
		if cut.Load() {
			return true, stream.ErrCutoff
		}
		return true, nil
	case ev.runEnd && ev.cancelled && cut.Load():
		return true, stream.ErrCutoff
	}
	return false, nil
}
