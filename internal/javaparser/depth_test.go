package javaparser

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cputime"
	"repro/internal/javatok"
)

// nestedParens is a method whose one statement nests its initializer n
// parentheses deep: int x = ((…(1)…));
func nestedParens(n int) string {
	return "class A { void f() { int x = " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + "; } }"
}

// TestParseDepthScalesLinearly times parsing at nesting depth n and 2n,
// interleaving the two depths over several rounds and keeping each depth's
// fastest run. The times are the process's CPU time where the platform
// reports it, so test packages running alongside do not inflate either
// side. Each timed call follows a collection, so no call pays for the
// garbage of the one before, and then an untimed parse of the same input,
// so both depths run with a grown stack and a pooled parser: the
// collection shrinks the stack and may empty the pool, and regrowing a
// stack of tens of megabytes would otherwise weigh on the deeper side
// only. A lambda lookahead that rescans to the matching ')' at every '('
// makes parsing quadratic in the depth, a ratio near 4; linear parsing
// stays well under the bound of 3. The deeper input nests under maxDepth,
// and each timed call parses its input several times so that it lasts
// milliseconds.
func TestParseDepthScalesLinearly(t *testing.T) {
	const n, rounds, reps = 2000, 7, 8
	parse := func(src string) time.Duration {
		runtime.GC()
		Parse(src)
		start := cputime.Process()
		var res Result
		for range reps {
			res = Parse(src)
		}
		d := cputime.Process() - start
		if len(res.Errors) != 0 {
			t.Fatalf("depth %d: %v", strings.Count(src, "("), res.Errors[0])
		}
		return d
	}
	src1, src2 := nestedParens(n), nestedParens(2*n)
	t1, t2 := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < rounds; i++ {
		t1 = min(t1, parse(src1))
		t2 = min(t2, parse(src2))
	}
	t.Logf("depth %d: %v, depth %d: %v", n, t1, 2*n, t2)
	if ratio := float64(t2) / float64(t1); ratio >= 3 {
		t.Errorf("Parse: depth %d %v, depth %d %v (ratio %.1f, want < 3)", n, t1, 2*n, t2, ratio)
	}
}

// TestPairParens pins the pairing the lambda lookahead reads: a '(' pairs
// with its matching ')' unless a ';', '{' or EOF comes first.
func TestPairParens(t *testing.T) {
	for _, c := range []struct {
		src  string
		want map[int]int32 // token index of each '(' → its pair
	}{
		{"( ( ) ) ->", map[int]int32{0: 3, 1: 2}},
		{"( ; ( ) )", map[int]int32{0: -1, 2: 3}},
		{"( a { ) )", map[int]int32{0: -1}},
		{") ( ( )", map[int]int32{1: -1, 2: 3}},
		{"( a , b ) -> ( c )", map[int]int32{0: 4, 6: 8}},
	} {
		toks := javatok.Tokenize(c.src)
		got := pairParens(nil, toks)
		for open, want := range c.want {
			if got[open] != want {
				t.Errorf("%q: '(' at %d pairs with %d, want %d", c.src, open, got[open], want)
			}
		}
	}
}

// TestParseNestingCap feeds inputs nested far past maxDepth, one for each
// construct the parser recurses on. Each must come back in-process, with
// one error that reports the cap, instead of overflowing the goroutine
// stack; the parenthesized, block and unary inputs nest 800,000 levels,
// 1.6 MB of source or more. An input nested just under the cap parses
// cleanly.
func TestParseNestingCap(t *testing.T) {
	const deep, past = 800000, 2 * maxDepth
	for _, c := range []struct{ name, src string }{
		{"parens", nestedParens(deep)},
		{"blocks", "class A { void f() { " + strings.Repeat("{", deep) + strings.Repeat("}", deep) + " } }"},
		{"unclosed blocks", "class A { void f() { " + strings.Repeat("{", deep)},
		{"unary minus", "class A { int x = " + strings.Repeat("- ", deep) + "1; }"},
		{"ifs", "class A { void f() { " + strings.Repeat("if (x) ", past) + "; } }"},
		{"labels", "class A { void f() { " + strings.Repeat("l: ", past) + "; } }"},
		{"conditionals", "class A { int x = " + strings.Repeat("c ? a : ", past) + "1; }"},
		{"assignments", "class A { void f() { " + strings.Repeat("a = ", past) + "1; } }"},
		{"lambdas", "class A { Object x = " + strings.Repeat("x -> ", past) + "1; }"},
		{"casts", "class A { void f() { x = " + strings.Repeat("(a) ", past) + "1; } }"},
		{"calls", "class A { void f() { " + strings.Repeat("f(", past) + strings.Repeat(")", past) + "; } }"},
		{"array initializers", "class A { int[] x = " + strings.Repeat("{", past) + strings.Repeat("}", past) + "; }"},
		{"type arguments", "class A { void f() { A" + strings.Repeat("<A", past) + strings.Repeat(">", past) + " x; } }"},
		{"nested classes", strings.Repeat("class A { ", past) + strings.Repeat("}", past)},
		{"anonymous classes", "class A { Object x = " + strings.Repeat("new A() { Object x = ", past) + "; }"},
	} {
		res := Parse(c.src)
		want := fmt.Sprintf("nesting deeper than %d levels", maxDepth)
		if len(res.Errors) != 1 || res.Errors[0].Msg != want {
			t.Errorf("%s: errors %v, want one %q", c.name, res.Errors, want)
		}
	}
	if res := Parse(nestedParens(maxDepth - 8)); len(res.Errors) != 0 {
		t.Errorf("depth %d: %v", maxDepth-8, res.Errors)
	}
}

// TestParseErrorCap: a megabyte of broken members would record an error
// per member. The parse keeps maxErrors of them, halts with one more, and
// its allocations stay bounded.
func TestParseErrorCap(t *testing.T) {
	src := "class A { " + strings.Repeat("int; ", 200000) + "}"
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res := Parse(src)
	runtime.ReadMemStats(&after)
	if len(res.Errors) != maxErrors+1 {
		t.Fatalf("%d errors, want %d", len(res.Errors), maxErrors+1)
	}
	if last, want := res.Errors[maxErrors].Msg, fmt.Sprintf("more than %d syntax errors", maxErrors); last != want {
		t.Errorf("last error %q, want %q", last, want)
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= parseCapMB {
		t.Errorf("parse allocated %.1f MB, want under %d", mb, parseCapMB)
	}
	if res := Parse("class A { " + strings.Repeat("int; ", maxErrors-1) + "}"); len(res.Errors) != maxErrors-1 {
		t.Errorf("%d broken members: %d errors", maxErrors-1, len(res.Errors))
	}
}
