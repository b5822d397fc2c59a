//go:build !linux && !darwin

package cputime

import "time"

var processStart = time.Now()

// Process stands in for the process's CPU time with wall time where the
// platform reports no CPU time.
func Process() time.Duration { return time.Since(processStart) }
