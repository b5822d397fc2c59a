//go:build race

package javaparser

// parseCapMB bounds TestParseErrorCap's allocations under the race
// detector, whose instrumentation adds to TotalAlloc: the same parse reads
// 19.6 MB plain and 33.4 MB with -race (x1.70), so the plain 32 MB bound
// scales to 56 MB, still under half the 117 MB an uncapped error list
// allocated.
const parseCapMB = 56
