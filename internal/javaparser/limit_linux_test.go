package javaparser

import (
	"syscall"
	"testing"
	"unsafe"
)

// TestParseSourceLimit parses a 2 GiB source. Positions are 32-bit, so
// Parse must return one structured error without reading the text: the
// source is an inaccessible mapping, so any read faults and fails the
// test, and the mapping reserves no memory.
func TestParseSourceLimit(t *testing.T) {
	const size = 1 << 31
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_NONE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		t.Skipf("cannot map %d bytes: %v", size, err)
	}
	defer syscall.Munmap(mem)
	res := Parse(unsafe.String(&mem[0], size))
	want := "source of 2147483648 bytes exceeds the 2 GiB limit"
	if res.Unit == nil || len(res.Errors) != 1 || res.Errors[0].Msg != want {
		t.Errorf("Parse(2 GiB) = %+v, want an empty unit and one error %q", res, want)
	}
}
