//go:build !linux

package stream

import "time"

// preciseWindow is zero off Linux: the other platforms' pollers take
// nanosecond timeouts, so the runtime timer alone wakes on time.
const preciseWindow time.Duration = 0

// sleepUntil has nothing left to wait for: the runtime timer covered the
// whole sleep.
func sleepUntil(time.Time) {}
