package cputime

import (
	"runtime"
	"runtime/debug"
	"time"
)

// Collected returns the process CPU time f takes with the garbage
// collector off: it collects first, so f starts on a clean heap, and no
// collection runs until f returns. How much marking a run pays for depends
// on the heap it starts on and on when the collector's workers, which run
// on other threads, get a CPU, not on the code under test, so collecting
// inside the timed call skews a ratio between two timings, the more so
// under load. f's garbage is held until it returns.
func Collected(f func()) time.Duration {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	start := Process()
	f()
	return Process() - start
}
