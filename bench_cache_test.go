package diffcode

// Benchmarks for the memoized distance engine (DESIGN.md §9). The corpus
// here is synthesized with a controlled duplicate ratio — the acceptance
// scenario is a ≥30% duplicate corpus, which is what mined usage changes
// look like after abstraction (the same fix recurs across projects) — so
// the cached/uncached ratio measures all three memoization levels: label
// caching, path caching, and the matrix-level fingerprint fan-out. The
// uncached side is the reference kernel (cluster.DistMatrixPool).

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/distcache"
	"repro/internal/parallel"
	"repro/internal/textdist"
	"repro/internal/usage"
)

// cacheBenchChanges synthesizes n usage changes of which dupFrac (0..1) are
// exact duplicates of earlier ones. Labels carry long string payloads so the
// uncached kernels pay a real Levenshtein cost per pair.
func cacheBenchChanges(n int, dupFrac float64) []UsageChange {
	algs := []string{
		"AES/ECB/PKCS5Padding", "AES/CBC/PKCS5Padding", "AES/GCM/NoPadding",
		"DES/ECB/PKCS5Padding", "DESede/CBC/PKCS5Padding", "RC4",
		"Blowfish/CBC/PKCS5Padding", "AES/CTR/NoPadding",
	}
	extras := []string{"", "arg3:IvParameterSpec", "arg2:SecureRandom", `arg2:"SHA1PRNG"`}
	distinct := n - int(float64(n)*dupFrac)
	if distinct < 2 {
		distinct = 2
	}
	out := make([]UsageChange, n)
	for i := range out {
		k := i % distinct // indices >= distinct repeat earlier changes exactly
		from := algs[k%len(algs)]
		to := algs[(k+3)%len(algs)]
		c := UsageChange{Class: "Cipher"}
		c.Removed = []usage.Path{
			{"Cipher", "getInstance", `arg1:"` + from + `"`},
			{"Cipher", "init", fmt.Sprintf("arg%d:ENCRYPT_MODE", k%3+1)},
		}
		c.Added = []usage.Path{{"Cipher", "getInstance", `arg1:"` + to + `"`}}
		if e := extras[k%len(extras)]; e != "" {
			c.Added = append(c.Added, usage.Path{"Cipher", "init", e})
		}
		out[i] = c
	}
	return out
}

// benchDistMatrixCachedAt builds the distance matrix over the duplicate-rich
// corpus at a fixed worker count, through a memoized engine or the uncached
// reference kernel. A fresh engine per iteration measures the cold-cache
// cost (interning included), which is the honest comparison against the
// uncached path.
func benchDistMatrixCachedAt(workers int, cached bool) func(*testing.B) {
	return func(b *testing.B) {
		changes := cacheBenchChanges(120, 0.4)
		p := parallel.New(workers, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var d [][]float64
			if cached {
				d = cluster.DistMatrixEngine(changes, nil, p, distcache.New(nil))
			} else {
				d = cluster.DistMatrixPool(changes, nil, p)
			}
			if len(d) != len(changes) {
				b.Fatal("bad matrix")
			}
		}
	}
}

// BenchmarkDistMatrixCached sweeps the distance matrix over cache on/off and
// worker counts 1 and 8 on a 40%-duplicate corpus.
func BenchmarkDistMatrixCached(b *testing.B) {
	for _, w := range []int{1, 8} {
		for _, cached := range []bool{false, true} {
			name := fmt.Sprintf("cache=%t/workers%d", cached, w)
			b.Run(name, benchDistMatrixCachedAt(w, cached))
		}
	}
}

// levenshteinNaiveRef is a reference full-DP copy for the root-level kernel
// benchmark (the production reference lives unexported in textdist).
func levenshteinNaiveRef(a, b []rune) int {
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

// levenshteinPairs is the banded-kernel workload: near-identical pairs (the
// abstracted-corpus common case the band exploits) and dissimilar pairs.
var levenshteinPairs = [][2]string{
	{"AES/CBC/PKCS5Padding", "AES/CBC/PKCS7Padding"},
	{"AES/CBC/PKCS5Padding", "AES/GCM/NoPadding"},
	{"DESede/CBC/PKCS5Padding", "DESede/ECB/PKCS5Padding"},
	{"SHA1PRNG", "NativePRNG"},
	{"Blowfish/CBC/PKCS5Padding", "RC4"},
	{"AES", "AES/CBC/PKCS5Padding"},
}

// BenchmarkLevenshteinBanded compares the early-exit banded kernel against
// the naive full DP over the same label pairs.
func BenchmarkLevenshteinBanded(b *testing.B) {
	runes := make([][2][]rune, len(levenshteinPairs))
	for i, p := range levenshteinPairs {
		runes[i] = [2][]rune{[]rune(p[0]), []rune(p[1])}
	}
	b.Run("banded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range runes {
				textdist.Levenshtein(p[0], p[1])
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range runes {
				levenshteinNaiveRef(p[0], p[1])
			}
		}
	})
}

// BenchmarkPathDistUncached is the allocation regression guard for the
// LabelLen fix: the uncached PathDist used to convert payloads to []rune on
// every comparison; counting runes in place dropped those allocations
// (check with -benchmem; this is the reference kernel DistMatrixPool runs).
func BenchmarkPathDistUncached(b *testing.B) {
	changes := cacheBenchChanges(40, 0)
	var paths []usage.Path
	for _, c := range changes {
		paths = append(paths, c.Removed...)
		paths = append(paths, c.Added...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for x := range paths {
			for y := x + 1; y < len(paths); y++ {
				textdist.PathDist(paths[x], paths[y])
			}
		}
	}
}
