// Package stream is the periodic real-time scheduler behind `rtrbench
// stream`: it models a kernel as a long-lived periodic task the way
// RT-Bench frames benchmarks — each tick arms a release time and an
// absolute deadline, runs one unit of work, and accounts latency
// (release→completion), jitter (release→start), and deadline hits/misses
// into obs histograms. When the task falls behind, a configurable overload
// policy decides what happens to the backlog:
//
//   - PolicySkipNext (load shedding): releases that would start in the past
//     are skipped — the task re-synchronizes to the period grid and each
//     skipped release counts as a shed.
//   - PolicyQueue: every release stays scheduled; a late task works through
//     the backlog with cascading lateness (jitter grows, misses cascade).
//   - PolicyAnytimeCutoff: the work itself is cut off at the deadline
//     (Tick.Cutoff asks the step to stop and return ErrCutoff), trading
//     result quality for schedulability — the streaming analogue of
//     Options.BestEffort.
//
// The scheduler is clock-agnostic (see Clock): production runs use the wall
// clock, tests drive a VirtualClock for deterministic miss/shed/cutoff
// counts. It knows nothing about kernels; rtrbench/stream.go adapts
// registered kernels onto the Step contract via the profile StepDone
// boundary.
package stream

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
)

// Policy selects the scheduler's overload behavior when a step overruns its
// period.
type Policy string

// The three overload policies.
const (
	PolicySkipNext      Policy = "skip-next"
	PolicyQueue         Policy = "queue"
	PolicyAnytimeCutoff Policy = "anytime-cutoff"
)

// ParsePolicy maps a user-facing policy string onto a Policy. The empty
// string selects PolicySkipNext, the default.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case "":
		return PolicySkipNext, nil
	case PolicySkipNext, PolicyQueue, PolicyAnytimeCutoff:
		return Policy(s), nil
	default:
		return "", fmt.Errorf("stream: unknown policy %q (want %s, %s, or %s)",
			s, PolicySkipNext, PolicyQueue, PolicyAnytimeCutoff)
	}
}

// ErrCutoff is the sentinel a Step returns when it stopped at the deadline
// under PolicyAnytimeCutoff. The scheduler counts the tick as a cutoff (and
// a miss — the work did not complete in time) and keeps streaming; any
// other step error aborts the stream.
var ErrCutoff = errors.New("stream: step cut off at deadline")

// Tick describes one release of the periodic task.
type Tick struct {
	// Index is the 0-based tick number.
	Index int64
	// Release is the scheduled release time of this tick.
	Release time.Time
	// Start is when the step actually began (Start−Release is the jitter).
	Start time.Time
	// Deadline is the absolute deadline (Release + the relative deadline).
	Deadline time.Time
	// Cutoff is set under PolicyAnytimeCutoff: the step should stop at
	// Deadline and return ErrCutoff instead of running to completion.
	Cutoff bool
}

// Step executes one unit of periodic work. The scheduler calls it once per
// non-shed release; returning ErrCutoff marks an anytime cutoff, any other
// non-nil error aborts the stream.
type Step func(ctx context.Context, t Tick) error

// Options configure one streaming run.
type Options struct {
	// Period is the release interval (required, > 0).
	Period time.Duration
	// Deadline is the relative deadline armed at each release. Zero means
	// an implicit deadline equal to the period.
	Deadline time.Duration
	// Duration bounds the stream's wall time: no tick starts at or after
	// start+Duration, even one whose release came earlier and is still
	// queued, so only the tick running at the bound runs past it. Zero
	// means unbounded (the stream then ends on MaxTicks or context
	// cancellation).
	Duration time.Duration
	// MaxTicks, when > 0, stops the stream after that many executed ticks.
	MaxTicks int64
	// Policy is the overload policy; empty selects PolicySkipNext.
	Policy Policy
	// Clock injects a time source; nil uses the wall clock.
	Clock Clock
	// Live, when non-nil, receives running rtrbench_stream_* counters and
	// gauges (ticks, misses, sheds, cutoffs, last latency, miss rate) for
	// the /metrics endpoint while the stream runs.
	Live *obs.Registry
}

// normalize validates o and fills defaults.
func (o Options) normalize() (Options, error) {
	if o.Period <= 0 {
		return o, fmt.Errorf("stream: Period must be > 0 (got %v)", o.Period)
	}
	if o.Deadline < 0 {
		return o, fmt.Errorf("stream: Deadline must be >= 0 (got %v)", o.Deadline)
	}
	if o.Deadline == 0 {
		o.Deadline = o.Period
	}
	if o.Duration < 0 {
		return o, fmt.Errorf("stream: Duration must be >= 0 (got %v)", o.Duration)
	}
	if o.MaxTicks < 0 {
		return o, fmt.Errorf("stream: MaxTicks must be >= 0 (got %d)", o.MaxTicks)
	}
	p, err := ParsePolicy(string(o.Policy))
	if err != nil {
		return o, err
	}
	o.Policy = p
	if o.Clock == nil {
		o.Clock = WallClock{}
	}
	return o, nil
}

// Result is the accounting of one finished (or cancelled) stream.
type Result struct {
	// Policy, Period, and Deadline echo the normalized configuration.
	Policy   Policy
	Period   time.Duration
	Deadline time.Duration
	// Ticks counts executed releases (sheds excluded).
	Ticks int64
	// Misses counts ticks that completed after their absolute deadline;
	// cutoffs are included (cut-off work did not complete in time).
	Misses int64
	// Sheds counts releases skipped by PolicySkipNext while behind.
	Sheds int64
	// Cutoffs counts ticks cut off at the deadline (PolicyAnytimeCutoff).
	Cutoffs int64
	// Overruns counts ticks that finished at or after the next scheduled
	// release — the "task is behind" events the overload policy acts on.
	Overruns int64
	// Elapsed is the stream's total wall (or virtual) time.
	Elapsed time.Duration
	// Latency summarizes release→completion time per tick; its Deadline and
	// Misses fields carry the deadline accounting.
	Latency obs.Summary
	// Jitter summarizes release→start delay per tick.
	Jitter obs.Summary
}

// MissRate is the fraction of executed ticks that missed their deadline.
func (r Result) MissRate() float64 {
	if r.Ticks == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.Ticks)
}

// Run drives step as a periodic task until the configured Duration or
// MaxTicks bound is reached (returning the accounting with a nil error) or
// ctx is cancelled (returning the partial accounting with ctx.Err()).
func Run(ctx context.Context, opts Options, step Step) (Result, error) {
	opts, err := opts.normalize()
	if err != nil {
		return Result{}, err
	}
	clk := opts.Clock
	latency := obs.NewHistogram()
	jitter := obs.NewHistogram()
	res := Result{Policy: opts.Policy, Period: opts.Period, Deadline: opts.Deadline}
	finish := func() Result {
		res.Latency = latency.Summary()
		res.Latency.Deadline = opts.Deadline
		res.Latency.Misses = res.Misses
		res.Jitter = jitter.Summary()
		return res
	}

	start := clk.Now()
	var end time.Time
	if opts.Duration > 0 {
		end = start.Add(opts.Duration)
	}
	release := start
	for index := int64(0); ; index++ {
		if opts.MaxTicks > 0 && res.Ticks >= opts.MaxTicks {
			break
		}
		if !end.IsZero() && !release.Before(end) {
			break
		}
		now := clk.Now()
		if now.Before(release) {
			if err := clk.Sleep(ctx, release.Sub(now)); err != nil {
				res.Elapsed = clk.Now().Sub(start)
				return finish(), err
			}
			now = clk.Now()
		}
		// A backlog (queue, anytime-cutoff) may reach the bound before its
		// releases do; no tick starts at or after it.
		if !end.IsZero() && !now.Before(end) {
			break
		}
		if err := ctx.Err(); err != nil {
			res.Elapsed = clk.Now().Sub(start)
			return finish(), err
		}
		tick := Tick{
			Index:    index,
			Release:  release,
			Start:    now,
			Deadline: release.Add(opts.Deadline),
			Cutoff:   opts.Policy == PolicyAnytimeCutoff,
		}
		stepErr := step(ctx, tick)
		done := clk.Now()
		if stepErr != nil && !errors.Is(stepErr, ErrCutoff) {
			res.Elapsed = done.Sub(start)
			if ctx.Err() != nil && errors.Is(stepErr, ctx.Err()) {
				return finish(), stepErr
			}
			return finish(), fmt.Errorf("stream: tick %d: %w", index, stepErr)
		}

		res.Ticks++
		latency.Record(done.Sub(tick.Release))
		jitter.Record(tick.Start.Sub(tick.Release))
		cut := errors.Is(stepErr, ErrCutoff)
		miss := cut || done.After(tick.Deadline)
		if miss {
			res.Misses++
		}
		if cut {
			res.Cutoffs++
		}

		// Overload handling: next is where the period grid says the next
		// release belongs. Finishing at or past it is an overrun; skip-next
		// sheds the releases already in the past, queue (and anytime-cutoff,
		// whose steps are bounded by deadline <= anything the caller set)
		// keeps them scheduled and works through the backlog.
		overrun, sheds := false, int64(0)
		next := release.Add(opts.Period)
		if !done.Before(next) {
			overrun = true
			res.Overruns++
			if opts.Policy == PolicySkipNext {
				for !done.Before(next) {
					next = next.Add(opts.Period)
					sheds++
				}
				res.Sheds += sheds
			}
		}
		release = next

		if opts.Live != nil {
			publishLive(opts.Live, &res, tickStats{
				latency: done.Sub(tick.Release),
				miss:    miss,
				cut:     cut,
				overrun: overrun,
				sheds:   sheds,
			})
		}
	}
	res.Elapsed = clk.Now().Sub(start)
	return finish(), nil
}

// tickStats is the per-tick delta handed to the live exporter.
type tickStats struct {
	latency time.Duration
	miss    bool
	cut     bool
	overrun bool
	sheds   int64
}

// publishLive mirrors per-tick accounting into the live registry under the
// stream_* names (rtrbench_stream_* once the /metrics prefix is applied).
// Counters accumulate across streams sharing a registry (a daemon serving
// many streaming jobs); the two gauges carry the latest stream's state.
func publishLive(reg *obs.Registry, res *Result, t tickStats) {
	reg.Add("stream_ticks", 1)
	if t.miss {
		reg.Add("stream_deadline_misses", 1)
	}
	if t.cut {
		reg.Add("stream_cutoffs", 1)
	}
	if t.overrun {
		reg.Add("stream_overruns", 1)
	}
	if t.sheds > 0 {
		reg.Add("stream_sheds", t.sheds)
	}
	reg.SetGauge("stream_last_latency_ns", int64(t.latency))
	reg.SetGauge("stream_miss_rate_ppm", int64(res.MissRate()*1e6))
}
