package main

import (
	"syscall"
	"time"
)

// sleepFor blocks the calling thread in nanosleep(2). The runtime timer
// behind time.Sleep wakes about half a millisecond late on Linux, which
// at 2,000 requests/s per connection would be most of the budget; the
// kernel's high-resolution timer wakes within tens of microseconds.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
