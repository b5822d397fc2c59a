//go:build linux || darwin

// Package cputime reads the CPU time the process has used, the clock the
// ratio tests time with: work in other processes and blocked goroutines do
// not advance it, so parallel load does not skew one side of a ratio.
package cputime

import (
	"syscall"
	"time"
)

// Process returns the CPU time the process has used so far.
func Process() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
