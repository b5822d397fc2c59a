//go:build !linux && !darwin

package javaparser

import "time"

var processStart = time.Now()

// cpuTime stands in for the process's CPU time with wall time where the
// platform reports no CPU time.
func cpuTime() time.Duration { return time.Since(processStart) }
