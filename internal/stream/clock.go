package stream

import (
	"context"
	"sync"
	"time"
)

// Clock abstracts time for the periodic scheduler so the overload-policy
// arithmetic (release times, deadlines, misses, sheds) is testable without
// wall-clock flakiness. The scheduler only ever reads Now and waits with
// Sleep; it never owns timers directly.
type Clock interface {
	Now() time.Time
	// Sleep blocks until d has elapsed or ctx is done, in which case it
	// returns ctx.Err(). A non-positive d returns immediately (after a ctx
	// check).
	Sleep(ctx context.Context, d time.Duration) error
}

// WallClock is the real time.Now/time.Timer clock used outside tests.
type WallClock struct{}

// Now returns time.Now().
func (WallClock) Now() time.Time { return time.Now() }

// Sleep waits for d or for ctx cancellation, whichever comes first. A
// runtime timer covers all but the last preciseWindow of the wait, and
// sleepUntil sleeps the rest (on Linux, in the kernel's high-resolution
// timer). ctx ends the timer phase at once; sleepUntil runs to the wake
// time, so a cancellation is seen at most preciseWindow late.
func (WallClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		return nil
	}
	wake := time.Now().Add(d)
	if d > preciseWindow {
		t := time.NewTimer(d - preciseWindow)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	sleepUntil(wake)
	return ctx.Err()
}

// VirtualClock is a deterministic manual clock: Sleep advances simulated
// time instantly, and synthetic workloads model execution time by calling
// Advance. With one scheduler goroutine and at most one worker goroutine
// that only touches the clock while the scheduler is blocked waiting on it
// (the streamDriver protocol guarantees this alternation), every run is
// bit-reproducible — the property the overload-policy tests rely on.
type VirtualClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewVirtualClock returns a virtual clock starting at start.
func NewVirtualClock(start time.Time) *VirtualClock {
	return &VirtualClock{now: start}
}

// Now returns the current simulated time.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep advances simulated time by d without blocking.
func (c *VirtualClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.Advance(d)
	return nil
}

// Advance moves simulated time forward by d (synthetic work). Negative
// deltas are ignored: simulated time never runs backwards.
func (c *VirtualClock) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}
