//go:build linux

package stream

import (
	"context"
	"slices"
	"testing"
	"time"
)

// TestWallClockSleepWakesOnTime pins the release accuracy behind stream
// jitter. A plain runtime timer on Linux wakes up to a millisecond late
// (epoll's timeout is whole milliseconds); WallClock.Sleep must never wake
// early and must overshoot by at most 400 µs at the median.
func TestWallClockSleepWakesOnTime(t *testing.T) {
	const d = 1300 * time.Microsecond
	over := make([]time.Duration, 40)
	for i := range over {
		start := time.Now()
		if err := (WallClock{}).Sleep(context.Background(), d); err != nil {
			t.Fatal(err)
		}
		over[i] = time.Since(start) - d
		if over[i] < 0 {
			t.Fatalf("sleep %d of %v woke %v early", i, d, -over[i])
		}
	}
	slices.Sort(over)
	if med := over[len(over)/2]; med > 400*time.Microsecond {
		t.Fatalf("median overshoot %v over %d sleeps of %v, want <= 400µs (max %v)",
			med, len(over), d, over[len(over)-1])
	}
}
