//go:build linux

package stream

import (
	"syscall"
	"time"
)

// preciseWindow is the tail of a WallClock.Sleep that sleepUntil waits out
// in nanosleep(2). On Linux the runtime waits for timers in epoll_wait,
// whose timeout is whole milliseconds (runtime/netpoll_epoll.go rounds a
// delay down, and one under 1 ms up to 1 ms), so a runtime timer fires up
// to a millisecond after its time. A timer aimed 2 ms early wakes before
// the release even when it is a full millisecond late.
const preciseWindow = 2 * time.Millisecond

// sleepUntil sleeps until wake has passed. The kernel wakes the thread
// within its timer slack (50 µs by default) of the requested time; a signal
// (the runtime preempts goroutines with one) ends a nanosleep early with
// EINTR, and the loop sleeps what is left.
func sleepUntil(wake time.Time) {
	for d := time.Until(wake); d > 0; d = time.Until(wake) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop re-reads the clock
	}
}
