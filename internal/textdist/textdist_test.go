package textdist

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/usage"
)

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "abc", 0},
		{"abc", "abd", 1},
		{"abc", "ab", 1},
		{"kitten", "sitting", 3},
		{"AES", "AES/CBC", 4},
		{"", "xyz", 3},
		{"flaw", "lawn", 2},
	}
	for _, c := range cases {
		if got := Levenshtein([]rune(c.a), []rune(c.b)); got != c.want {
			t.Errorf("lev(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Property: Levenshtein is a metric (identity, symmetry, triangle).
func TestQuickLevenshteinMetric(t *testing.T) {
	trim := func(s string) []rune {
		r := []rune(s)
		if len(r) > 12 {
			r = r[:12]
		}
		return r
	}
	sym := func(a, b string) bool {
		x, y := trim(a), trim(b)
		return Levenshtein(x, y) == Levenshtein(y, x)
	}
	ident := func(a string) bool { return Levenshtein(trim(a), trim(a)) == 0 }
	tri := func(a, b, c string) bool {
		x, y, z := trim(a), trim(b), trim(c)
		return Levenshtein(x, z) <= Levenshtein(x, y)+Levenshtein(y, z)
	}
	bound := func(a, b string) bool {
		x, y := trim(a), trim(b)
		d := Levenshtein(x, y)
		max := len(x)
		if len(y) > max {
			max = len(y)
		}
		return d <= max
	}
	for name, f := range map[string]any{
		"symmetric": sym, "identity": ident, "triangle": tri, "bounded": bound,
	} {
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestLabelUnits(t *testing.T) {
	// Method names are single units: any substitution costs 1.
	if got := LabelDist("getInstance", "init"); got != 1 {
		t.Errorf("method substitution = %d, want 1", got)
	}
	// Identical labels cost 0.
	if got := LabelDist("init", "init"); got != 0 {
		t.Errorf("identical = %d", got)
	}
	// String payloads at the same argument position compare per character.
	if got := LabelDist(`arg1:"AES"`, `arg1:"AES/CBC"`); got != 4 {
		t.Errorf("string payload dist = %d, want 4", got)
	}
	// Different argument positions are whole-label substitutions.
	if got := LabelDist(`arg1:"AES"`, `arg2:"AES"`); got != 4 {
		t.Errorf("cross-position dist = %d, want 4 (len AES + prefix)", got)
	}
}

func TestLSRRange(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"init", "init", 1},
		{"getInstance", "init", 0},
		{`arg1:"AES"`, `arg1:"AES"`, 1},
	}
	for _, c := range cases {
		if got := LSR(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("LSR(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	// Similar strings score between 0 and 1.
	got := LSR(`arg1:"AES/ECB"`, `arg1:"AES/CBC"`)
	if got <= 0 || got >= 1 {
		t.Errorf("LSR of similar strings = %v, want in (0,1)", got)
	}
}

func TestCommonPrefix(t *testing.T) {
	cases := []struct {
		a, b usage.Path
		want int
	}{
		{usage.Path{"a", "b", "c"}, usage.Path{"a", "b", "d"}, 2},
		{usage.Path{"a"}, usage.Path{"b"}, 0},
		{usage.Path{"a", "b"}, usage.Path{"a", "b"}, 2},
		{usage.Path{"a", "b"}, usage.Path{"a", "b", "c"}, 2},
		{nil, usage.Path{"a"}, 0},
	}
	for _, c := range cases {
		if got := CommonPrefix(c.a, c.b); got != c.want {
			t.Errorf("CommonPrefix(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestPathDist(t *testing.T) {
	p1 := usage.Path{"Cipher", "getInstance", `arg1:"AES/ECB"`}
	p2 := usage.Path{"Cipher", "getInstance", `arg1:"AES/GCM"`}
	p3 := usage.Path{"Cipher", "init", "arg1:ENCRYPT_MODE"}
	if d := PathDist(p1, p1); d != 0 {
		t.Errorf("self distance = %v", d)
	}
	d12 := PathDist(p1, p2)
	d13 := PathDist(p1, p3)
	if d12 >= d13 {
		t.Errorf("mode tweak (%v) should be closer than different method (%v)", d12, d13)
	}
	if d12 <= 0 || d12 >= 1 || d13 <= 0 || d13 > 1 {
		t.Errorf("distances out of range: %v %v", d12, d13)
	}
	// Strict prefix: j = 2, no mismatch element on the short side.
	p4 := usage.Path{"Cipher", "getInstance"}
	want := 1 - 2.0/3.0
	if d := PathDist(p1, p4); math.Abs(d-want) > 1e-12 {
		t.Errorf("prefix distance = %v, want %v", d, want)
	}
}

// Property: PathDist is symmetric, in [0,1], and zero iff equal.
func TestQuickPathDistProperties(t *testing.T) {
	labels := []string{"Cipher", "getInstance", "init", `arg1:"AES"`,
		`arg1:"DES"`, "arg1:ENCRYPT_MODE", "arg2:Secret", "<init>"}
	gen := func(idx []uint8) usage.Path {
		var p usage.Path
		for _, i := range idx {
			p = append(p, labels[int(i)%len(labels)])
			if len(p) >= 5 {
				break
			}
		}
		return p
	}
	f := func(a, b []uint8) bool {
		p, q := gen(a), gen(b)
		if len(p) == 0 || len(q) == 0 {
			return true
		}
		d1, d2 := PathDist(p, q), PathDist(q, p)
		if math.Abs(d1-d2) > 1e-12 {
			return false
		}
		if d1 < 0 || d1 > 1 {
			return false
		}
		if p.Equal(q) != (d1 == 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPathsDist(t *testing.T) {
	a := []usage.Path{{"Cipher", "getInstance", `arg1:"AES"`}}
	b := []usage.Path{{"Cipher", "getInstance", `arg1:"AES"`}}
	if d := PathsDist(a, b); d != 0 {
		t.Errorf("identical sets: %v", d)
	}
	// One unmatched path costs 1.
	c := append(b, usage.Path{"Cipher", "init"})
	if d := PathsDist(a, c); math.Abs(d-1) > 1e-12 {
		t.Errorf("one extra path: %v, want 1", d)
	}
	if d := PathsDist(nil, nil); d != 0 {
		t.Errorf("empty sets: %v", d)
	}
	if d := PathsDist(nil, a); d != 1 {
		t.Errorf("one-sided: %v", d)
	}
}

func TestPathsDistPicksBestMatching(t *testing.T) {
	// Crossed sets: the greedy diagonal would cost more than the optimal
	// permutation.
	x1 := usage.Path{"Cipher", "getInstance", `arg1:"AES/ECB"`}
	x2 := usage.Path{"Cipher", "init", "arg1:ENCRYPT_MODE"}
	y1 := usage.Path{"Cipher", "init", "arg1:DECRYPT_MODE"}
	y2 := usage.Path{"Cipher", "getInstance", `arg1:"AES/CBC"`}
	got := PathsDist([]usage.Path{x1, x2}, []usage.Path{y1, y2})
	direct := PathDist(x1, y2) + PathDist(x2, y1)
	if math.Abs(got-direct) > 1e-12 {
		t.Errorf("matching not optimal: got %v, want %v", got, direct)
	}
}

func TestUsageDist(t *testing.T) {
	rem := []usage.Path{{"Cipher", "getInstance", `arg1:"AES"`}}
	add := []usage.Path{{"Cipher", "getInstance", `arg1:"AES/GCM/NoPadding"`}}
	if d := UsageDist(rem, add, rem, add); d != 0 {
		t.Errorf("identical changes: %v", d)
	}
	d := UsageDist(rem, add, rem, nil)
	// removed identical (0), added vs empty (1) → (0+1)/2.
	if math.Abs(d-0.5) > 1e-12 {
		t.Errorf("half-different changes: %v, want 0.5", d)
	}
}

func BenchmarkPathsDist(b *testing.B) {
	mk := func(s string) usage.Path {
		return usage.Path{"Cipher", "getInstance", `arg1:"` + s + `"`}
	}
	f1 := []usage.Path{mk("AES/ECB"), mk("DES"), mk("AES/CBC/PKCS5Padding")}
	f2 := []usage.Path{mk("AES/GCM/NoPadding"), mk("AES"), mk("RSA")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PathsDist(f1, f2)
	}
}

// ---------------------------------------------------------------------------
// Differential properties: the banded kernel vs the naive reference DP.
// ---------------------------------------------------------------------------

// TestDifferentialLevenshteinBandedVsNaive quick-checks that the doubling-
// band kernel returns exactly the naive full-DP distance on arbitrary rune
// slices (including non-ASCII input from quick's string generator).
func TestDifferentialLevenshteinBandedVsNaive(t *testing.T) {
	trim := func(s string) []rune {
		r := []rune(s)
		if len(r) > 24 {
			r = r[:24]
		}
		return r
	}
	f := func(a, b string) bool {
		x, y := trim(a), trim(b)
		return Levenshtein(x, y) == levenshteinNaive(x, y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// Adversarial shapes for the band: shared affixes, big length skews,
	// and strings that differ only in the middle.
	cases := [][2]string{
		{"", ""}, {"a", ""}, {"", "abcdef"},
		{"abcdef", "abcdef"},
		{"abcdef", "abXdef"},
		{"aaaaaaaaaa", "a"},
		{"prefixMIDDLEsuffix", "prefixMIDDLXsuffix"},
		{"prefix_suffix", "prefixsuffix"},
		{"xyxyxyxy", "yxyxyxyx"},
		{"AES/CBC/PKCS5Padding", "AES/GCM/NoPadding"},
		{"日本語テキスト", "日本語のテキスト"},
	}
	for _, c := range cases {
		x, y := []rune(c[0]), []rune(c[1])
		if got, want := Levenshtein(x, y), levenshteinNaive(x, y); got != want {
			t.Errorf("lev(%q, %q) = %d, want %d", c[0], c[1], got, want)
		}
	}
}

// TestDifferentialLabelDist quick-checks LabelDist (banded) against the
// naive reference over the label shapes the pipeline produces, plus raw
// random strings (malformed labels must agree too).
func TestDifferentialLabelDist(t *testing.T) {
	algs := []string{"", "AES", "DES", "AES/ECB", "AES/CBC/PKCS5Padding",
		"AES/GCM/NoPadding", "SHA1PRNG", "MD5", "日本語"}
	mk := func(pos uint8, alg uint8) string {
		return fmt.Sprintf("arg%d:%q", int(pos)%3+1, algs[int(alg)%len(algs)])
	}
	structured := func(p1, a1, p2, a2 uint8) bool {
		a, b := mk(p1, a1), mk(p2, a2)
		return LabelDist(a, b) == labelDistNaive(a, b)
	}
	raw := func(a, b string) bool {
		return LabelDist(a, b) == labelDistNaive(a, b)
	}
	for name, f := range map[string]any{"structured": structured, "raw": raw} {
		if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestLabelPayloadDegenerate pins the malformed-label guard: a label ending
// exactly at the opening `:"` has no payload and must be treated as a
// single-unit label, not sliced out of bounds.
func TestLabelPayloadDegenerate(t *testing.T) {
	for _, l := range []string{`x:"`, `:"`, `arg1:"`} {
		if got := LabelLen(l); got != 1 {
			t.Errorf("LabelLen(%q) = %d, want 1", l, got)
		}
		if got := LabelDist(l, "other"); got != 1 {
			t.Errorf("LabelDist(%q, other) = %d, want 1", l, got)
		}
	}
	// A well-formed empty payload still counts prefix + 0 characters.
	if got := LabelLen(`arg1:""`); got != 1 {
		t.Errorf("LabelLen(arg1:\"\") = %d, want 1", got)
	}
}

// BenchmarkLevenshteinKernels compares the banded kernel against the naive
// DP on a representative label-payload workload.
func BenchmarkLevenshteinKernels(b *testing.B) {
	pairs := [][2][]rune{
		{[]rune("AES/CBC/PKCS5Padding"), []rune("AES/GCM/NoPadding")},
		{[]rune("AES/CBC/PKCS5Padding"), []rune("AES/CBC/PKCS5Padding")},
		{[]rune("SHA1PRNG"), []rune("NativePRNG")},
		{[]rune("AES"), []rune("DESede/ECB/PKCS5Padding")},
	}
	b.Run("banded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range pairs {
				Levenshtein(p[0], p[1])
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range pairs {
				levenshteinNaive(p[0], p[1])
			}
		}
	})
}

// levenshteinNaive is the reference full-DP implementation the banded
// kernel is differentially tested against.
func levenshteinNaive(a, b []rune) int {
	n, m := len(a), len(b)
	if n == 0 {
		return m
	}
	if m == 0 {
		return n
	}
	prev := make([]int, m+1)
	cur := make([]int, m+1)
	for j := 0; j <= m; j++ {
		prev[j] = j
	}
	for i := 1; i <= n; i++ {
		cur[0] = i
		for j := 1; j <= m; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

// labelDistNaive is LabelDist over the naive Levenshtein kernel — the
// reference for the differential property tests.
func labelDistNaive(a, b string) int {
	if a == b {
		return 0
	}
	pa, sa, aok := labelPayload(a)
	pb, sb, bok := labelPayload(b)
	if aok && bok && pa == pb {
		return levenshteinNaive([]rune(sa), []rune(sb))
	}
	return max(LabelLen(a), LabelLen(b))
}
