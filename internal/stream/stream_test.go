package stream

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
)

var epoch = time.Unix(1700000000, 0)

// syntheticStep models per-tick execution time on a virtual clock: tick i
// advances the clock by exec[i] (or def beyond the list). Under a cutoff
// tick it honors the deadline: it advances only to Tick.Deadline and
// returns ErrCutoff when the modeled work would run past it.
func syntheticStep(clk *VirtualClock, exec []time.Duration, def time.Duration) Step {
	call := 0
	return func(_ context.Context, t Tick) error {
		d := def
		if call < len(exec) {
			d = exec[call]
		}
		call++
		if t.Cutoff {
			if budget := t.Deadline.Sub(clk.Now()); d > budget {
				clk.Advance(budget)
				return ErrCutoff
			}
		}
		clk.Advance(d)
		return nil
	}
}

// The three policy tests share one overload scenario — a 10ms period with
// one 25ms step in an otherwise 4ms workload — and must each produce an
// exact, hand-derived tick/miss/shed/cutoff count. That determinism is the
// point of the virtual clock: no wall-clock noise, same counts every run.

func TestPolicySkipNextDeterministic(t *testing.T) {
	clk := NewVirtualClock(epoch)
	step := syntheticStep(clk, []time.Duration{4 * time.Millisecond, 25 * time.Millisecond}, 4*time.Millisecond)
	res, err := Run(context.Background(), Options{
		Period:   10 * time.Millisecond,
		Duration: 100 * time.Millisecond,
		Policy:   PolicySkipNext,
		Clock:    clk,
	}, step)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Releases 0,10 run; the 25ms step at release 10 finishes at 35, so
	// releases 20 and 30 are shed and the task re-syncs at 40..90.
	if res.Ticks != 8 {
		t.Errorf("Ticks = %d, want 8", res.Ticks)
	}
	if res.Misses != 1 {
		t.Errorf("Misses = %d, want 1", res.Misses)
	}
	if res.Sheds != 2 {
		t.Errorf("Sheds = %d, want 2", res.Sheds)
	}
	if res.Overruns != 1 {
		t.Errorf("Overruns = %d, want 1", res.Overruns)
	}
	if res.Cutoffs != 0 {
		t.Errorf("Cutoffs = %d, want 0", res.Cutoffs)
	}
	if res.Deadline != 10*time.Millisecond {
		t.Errorf("Deadline = %v, want the implicit period", res.Deadline)
	}
	if res.Latency.Misses != 1 || res.Latency.Count != 8 {
		t.Errorf("Latency summary = count %d misses %d, want 8/1", res.Latency.Count, res.Latency.Misses)
	}
	if got, want := res.MissRate(), 1.0/8; got != want {
		t.Errorf("MissRate = %v, want %v", got, want)
	}
	if res.Elapsed != 94*time.Millisecond {
		t.Errorf("Elapsed = %v, want 94ms", res.Elapsed)
	}
}

func TestPolicyQueueDeterministic(t *testing.T) {
	clk := NewVirtualClock(epoch)
	step := syntheticStep(clk, []time.Duration{4 * time.Millisecond, 25 * time.Millisecond}, 4*time.Millisecond)
	res, err := Run(context.Background(), Options{
		Period:   10 * time.Millisecond,
		Duration: 100 * time.Millisecond,
		Policy:   PolicyQueue,
		Clock:    clk,
	}, step)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Every release 0..90 stays scheduled; the backlog after the 25ms step
	// causes cascading lateness: releases 10, 20, and 30 all miss before
	// the task catches back up at release 40.
	if res.Ticks != 10 {
		t.Errorf("Ticks = %d, want 10", res.Ticks)
	}
	if res.Misses != 3 {
		t.Errorf("Misses = %d, want 3", res.Misses)
	}
	if res.Sheds != 0 {
		t.Errorf("Sheds = %d, want 0", res.Sheds)
	}
	if res.Overruns != 3 {
		t.Errorf("Overruns = %d, want 3", res.Overruns)
	}
	// Release 20 starts at 35: the max queueing jitter is exactly 15ms.
	if res.Jitter.Max != 15*time.Millisecond {
		t.Errorf("Jitter.Max = %v, want 15ms", res.Jitter.Max)
	}
}

// TestDurationBoundsQueueBacklog: under queue, a step longer than the
// period builds a backlog of releases that were all due before the
// Duration bound. The bound still ends the stream: no tick starts at or
// after it, so only the tick running at the bound overruns it.
func TestDurationBoundsQueueBacklog(t *testing.T) {
	clk := NewVirtualClock(epoch)
	step := syntheticStep(clk, nil, 15*time.Millisecond)
	res, err := Run(context.Background(), Options{
		Period:   10 * time.Millisecond,
		Duration: 100 * time.Millisecond,
		Policy:   PolicyQueue,
		Clock:    clk,
	}, step)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Tick i starts at 15i ms: ticks 0..6 start before 100ms, tick 6 ends
	// at 105ms, and release 70 (due since 70ms) never starts.
	if res.Ticks != 7 {
		t.Errorf("Ticks = %d, want 7", res.Ticks)
	}
	if res.Elapsed != 105*time.Millisecond {
		t.Errorf("Elapsed = %v, want 105ms", res.Elapsed)
	}
}

func TestPolicyAnytimeCutoffDeterministic(t *testing.T) {
	clk := NewVirtualClock(epoch)
	step := syntheticStep(clk, []time.Duration{4 * time.Millisecond, 25 * time.Millisecond}, 4*time.Millisecond)
	res, err := Run(context.Background(), Options{
		Period:   10 * time.Millisecond,
		Duration: 100 * time.Millisecond,
		Policy:   PolicyAnytimeCutoff,
		Clock:    clk,
	}, step)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The 25ms step is cut off at its 20ms absolute deadline, so the task
	// never falls more than one period behind: all 10 releases execute,
	// with exactly one cutoff (counted as a miss).
	if res.Ticks != 10 {
		t.Errorf("Ticks = %d, want 10", res.Ticks)
	}
	if res.Misses != 1 {
		t.Errorf("Misses = %d, want 1", res.Misses)
	}
	if res.Cutoffs != 1 {
		t.Errorf("Cutoffs = %d, want 1", res.Cutoffs)
	}
	if res.Sheds != 0 {
		t.Errorf("Sheds = %d, want 0", res.Sheds)
	}
	if res.Overruns != 1 {
		t.Errorf("Overruns = %d, want 1", res.Overruns)
	}
}

func TestExplicitDeadlineTighterThanPeriod(t *testing.T) {
	clk := NewVirtualClock(epoch)
	// 4ms of work against a 3ms deadline in a 10ms period: every tick
	// misses but the task never falls behind the period grid.
	step := syntheticStep(clk, nil, 4*time.Millisecond)
	res, err := Run(context.Background(), Options{
		Period:   10 * time.Millisecond,
		Deadline: 3 * time.Millisecond,
		MaxTicks: 5,
		Clock:    clk,
	}, step)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Ticks != 5 || res.Misses != 5 || res.Sheds != 0 || res.Overruns != 0 {
		t.Errorf("got ticks=%d misses=%d sheds=%d overruns=%d, want 5/5/0/0",
			res.Ticks, res.Misses, res.Sheds, res.Overruns)
	}
	if got := res.MissRate(); got != 1.0 {
		t.Errorf("MissRate = %v, want 1", got)
	}
}

func TestMaxTicksBound(t *testing.T) {
	clk := NewVirtualClock(epoch)
	res, err := Run(context.Background(), Options{
		Period:   time.Millisecond,
		MaxTicks: 7,
		Clock:    clk,
	}, syntheticStep(clk, nil, 100*time.Microsecond))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Ticks != 7 {
		t.Errorf("Ticks = %d, want 7", res.Ticks)
	}
}

func TestCancellationReturnsPartialResult(t *testing.T) {
	clk := NewVirtualClock(epoch)
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	step := func(context.Context, Tick) error {
		calls++
		clk.Advance(time.Millisecond)
		if calls == 3 {
			cancel()
		}
		return nil
	}
	res, err := Run(ctx, Options{Period: 2 * time.Millisecond, Clock: clk}, step)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Ticks != 3 {
		t.Errorf("Ticks = %d, want 3 before cancellation", res.Ticks)
	}
}

func TestStepErrorAbortsStream(t *testing.T) {
	clk := NewVirtualClock(epoch)
	boom := errors.New("boom")
	step := func(_ context.Context, t Tick) error {
		if t.Index == 2 {
			return boom
		}
		clk.Advance(time.Millisecond)
		return nil
	}
	res, err := Run(context.Background(), Options{Period: 2 * time.Millisecond, MaxTicks: 10, Clock: clk}, step)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if res.Ticks != 2 {
		t.Errorf("Ticks = %d, want 2 completed before the failure", res.Ticks)
	}
}

func TestUnboundedStreamRejectedOnlyByContext(t *testing.T) {
	// An Options with neither Duration nor MaxTicks is legal (the CLI
	// bounds it; a library caller bounds it with ctx): prove it ends
	// cleanly on cancellation rather than validating it away.
	clk := NewVirtualClock(epoch)
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	step := func(context.Context, Tick) error {
		n++
		if n >= 50 {
			cancel()
		}
		clk.Advance(time.Millisecond)
		return nil
	}
	res, err := Run(ctx, Options{Period: time.Millisecond, Clock: clk}, step)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Ticks != 50 {
		t.Errorf("Ticks = %d, want 50", res.Ticks)
	}
}

func TestOptionValidation(t *testing.T) {
	cases := []Options{
		{},                          // no period
		{Period: -time.Millisecond}, // negative period
		{Period: time.Millisecond, Deadline: -1},
		{Period: time.Millisecond, Duration: -1},
		{Period: time.Millisecond, MaxTicks: -1},
		{Period: time.Millisecond, Policy: "drop-oldest"},
	}
	for i, o := range cases {
		if _, err := Run(context.Background(), o, func(context.Context, Tick) error { return nil }); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	if p, err := ParsePolicy(""); err != nil || p != PolicySkipNext {
		t.Errorf("ParsePolicy(\"\") = %v, %v; want skip-next default", p, err)
	}
	for _, s := range []string{"skip-next", "queue", "anytime-cutoff"} {
		if p, err := ParsePolicy(s); err != nil || string(p) != s {
			t.Errorf("ParsePolicy(%q) = %v, %v", s, p, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("ParsePolicy accepted an unknown policy")
	}
}

func TestLiveRegistryExport(t *testing.T) {
	clk := NewVirtualClock(epoch)
	reg := &obs.Registry{}
	step := syntheticStep(clk, []time.Duration{4 * time.Millisecond, 25 * time.Millisecond}, 4*time.Millisecond)
	res, err := Run(context.Background(), Options{
		Period:   10 * time.Millisecond,
		Duration: 100 * time.Millisecond,
		Policy:   PolicySkipNext,
		Clock:    clk,
		Live:     reg,
	}, step)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	counters := reg.Snapshot()
	if counters["stream_ticks"] != res.Ticks {
		t.Errorf("live stream_ticks = %d, want %d", counters["stream_ticks"], res.Ticks)
	}
	if counters["stream_deadline_misses"] != res.Misses {
		t.Errorf("live stream_deadline_misses = %d, want %d", counters["stream_deadline_misses"], res.Misses)
	}
	if counters["stream_sheds"] != res.Sheds {
		t.Errorf("live stream_sheds = %d, want %d", counters["stream_sheds"], res.Sheds)
	}
	gauges := reg.Gauges()
	if want := int64(res.MissRate() * 1e6); gauges["stream_miss_rate_ppm"] != want {
		t.Errorf("live stream_miss_rate_ppm = %d, want %d", gauges["stream_miss_rate_ppm"], want)
	}
	if gauges["stream_last_latency_ns"] != int64(4*time.Millisecond) {
		t.Errorf("live stream_last_latency_ns = %d, want the final 4ms tick", gauges["stream_last_latency_ns"])
	}
}

func TestWallClockSleepHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := (WallClock{}).Sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep on a cancelled ctx = %v, want context.Canceled", err)
	}
	if err := (WallClock{}).Sleep(context.Background(), -time.Second); err != nil {
		t.Fatalf("negative Sleep = %v, want nil", err)
	}
}

// TestWallClockSleepCancelledMidSleep cancels a sleep that is under way: ctx
// must end it long before its own end, in the runtime-timer phase.
func TestWallClockSleepCancelledMidSleep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	timer := time.AfterFunc(5*time.Millisecond, cancel)
	defer timer.Stop()
	start := time.Now()
	err := (WallClock{}).Sleep(ctx, time.Second)
	if took := time.Since(start); !errors.Is(err, context.Canceled) || took > 100*time.Millisecond {
		t.Fatalf("Sleep(1s) cancelled after 5ms returned %v after %v, want context.Canceled within 100ms", err, took)
	}
}
