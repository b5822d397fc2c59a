//go:build !race

package javaparser

// parseCapMB bounds TestParseErrorCap's allocations in a plain build, where
// the parse reads 19.6 MB.
const parseCapMB = 32
