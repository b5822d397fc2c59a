// Package textdist implements the distance metrics of the paper's §4.3:
// Levenshtein distance over label units, the Levenshtein similarity ratio
// (LSR), the path distance built from the longest common prefix, and the
// set-matching pathsDist / usageDist metrics that drive clustering.
//
// Units follow the paper: characters for string payloads; integers, bytes,
// and method names count as single units (changing any method name into
// another is exactly one substitution).
//
// The Levenshtein kernel is the banded (Ukkonen) variant: common affixes
// are trimmed, the band is seeded with the length-difference lower bound,
// and the band doubles until the computed distance fits inside it — at
// which point it is provably exact, so every caller sees the same values
// the naive full DP produces (levenshteinNaive in the tests is the
// reference implementation for the differential property tests).
package textdist

import (
	"strings"
	"unicode/utf8"

	"repro/internal/match"
	"repro/internal/usage"
)

// Levenshtein computes the classic edit distance between two rune slices.
// The result is exactly the full-DP distance; the implementation trims
// common prefixes/suffixes and runs a doubling-band DP so near-identical
// labels (the common case in an abstracted corpus) exit early.
func Levenshtein(a, b []rune) int {
	// Trim the common prefix and suffix: edits never touch them.
	for len(a) > 0 && len(b) > 0 && a[0] == b[0] {
		a, b = a[1:], b[1:]
	}
	for len(a) > 0 && len(b) > 0 && a[len(a)-1] == b[len(b)-1] {
		a, b = a[:len(a)-1], b[:len(b)-1]
	}
	n, m := len(a), len(b)
	if n == 0 {
		return m
	}
	if m == 0 {
		return n
	}
	// Band doubling, seeded with the length-difference lower bound: the
	// distance is always >= |n-m|, and once the band covers the computed
	// distance the banded DP is exact (no optimal path leaves the band).
	limit := max(n-m, m-n, 1)
	for {
		if d := levenshteinBounded(a, b, limit); d <= limit {
			return d
		}
		// d <= max(n, m) always, so the loop terminates once the band
		// covers the longer string.
		limit = min(limit*2, max(n, m))
	}
}

// levenshteinBounded computes the edit distance if it is <= k, returning
// k+1 otherwise (the caller widens the band). Only cells within |i-j| <= k
// of the diagonal are evaluated; cells outside carry an infinity sentinel
// so band-edge minima never leak in from stale values.
func levenshteinBounded(a, b []rune, k int) int {
	n, m := len(a), len(b)
	if n > m {
		a, b = b, a
		n, m = m, n
	}
	if m-n > k {
		return k + 1
	}
	const inf = int(^uint(0) >> 2)
	prev := make([]int, m+1)
	cur := make([]int, m+1)
	for j := 0; j <= m; j++ {
		if j <= k {
			prev[j] = j
		} else {
			prev[j] = inf
		}
	}
	for i := 1; i <= n; i++ {
		lo := max(1, i-k)
		hi := min(m, i+k)
		if lo == 1 {
			cur[0] = i
		} else {
			cur[lo-1] = inf
		}
		rowMin := inf
		for j := lo; j <= hi; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			v := inf
			if prev[j] < inf {
				v = prev[j] + 1
			}
			if cur[j-1] < inf {
				v = min(v, cur[j-1]+1)
			}
			if prev[j-1] < inf {
				v = min(v, prev[j-1]+cost)
			}
			cur[j] = v
			rowMin = min(rowMin, v)
		}
		if hi < m {
			cur[hi+1] = inf
		}
		// Every band cell already exceeds k: the final distance can only
		// grow, so report the overflow without finishing the DP.
		if rowMin > k {
			return k + 1
		}
		prev, cur = cur, prev
	}
	if prev[m] > k {
		return k + 1
	}
	return prev[m]
}

// labelPayload extracts the string payload of an argument label like
// `arg1:"AES/CBC"`, returning the argument prefix, the payload, and whether
// the label carries a quoted string.
func labelPayload(l string) (prefix, payload string, isString bool) {
	i := strings.Index(l, `:"`)
	if i < 0 || i+2 > len(l)-1 || !strings.HasSuffix(l, `"`) {
		return "", "", false
	}
	return l[:i], l[i+2 : len(l)-1], true
}

// LabelLen returns the length of a label in paper units: the payload
// character count plus one for the prefix when the label carries a string
// constant; one unit otherwise. Counting runes in place keeps the hot
// uncached path allocation-free (no []rune conversion).
func LabelLen(l string) int {
	if _, payload, ok := labelPayload(l); ok {
		return utf8.RuneCountInString(payload) + 1
	}
	return 1
}

// LabelDist returns the Levenshtein distance between two node labels in
// paper units. Two string-constant labels with the same argument position
// compare character-wise on their payloads; all other label pairs compare
// as single units (0 if equal, max-substitution otherwise).
func LabelDist(a, b string) int {
	if a == b {
		return 0
	}
	pa, sa, aok := labelPayload(a)
	pb, sb, bok := labelPayload(b)
	if aok && bok && pa == pb {
		return Levenshtein([]rune(sa), []rune(sb))
	}
	// Substituting one whole label for another: the cost is bounded by the
	// larger unit length (delete extra units + substitute).
	return max(LabelLen(a), LabelLen(b))
}

// LSR is the Levenshtein similarity ratio:
// LSR(l, l') = 1 − lev(l, l') / max(|l|, |l'|).
//
// Only same-position string-constant labels need the edit-distance DP:
// every other unequal pair has lev = max(|l|, |l'|) by construction, so the
// ratio short-circuits to the normalized cap 0 without computing lengths or
// distances. The values are bit-identical to the textbook formula (for the
// capped case 1 − max/max ≡ 0 exactly in IEEE arithmetic).
func LSR(a, b string) float64 {
	if a == b {
		return 1
	}
	pa, sa, aok := labelPayload(a)
	pb, sb, bok := labelPayload(b)
	if aok && bok && pa == pb {
		la := utf8.RuneCountInString(sa) + 1
		lb := utf8.RuneCountInString(sb) + 1
		return 1 - float64(Levenshtein([]rune(sa), []rune(sb)))/float64(max(la, lb))
	}
	return 0
}

// CommonPrefix returns the length of the longest common prefix of two
// paths (number of equal leading elements).
func CommonPrefix(p1, p2 usage.Path) int {
	n := min(len(p1), len(p2))
	for i := 0; i < n; i++ {
		if p1[i] != p2[i] {
			return i
		}
	}
	return n
}

// PathDist is the paper's path distance: 0 for identical paths, otherwise
//
//	1 − (j + LSR(p1[j], p2[j])) / max(|p1|, |p2|)
//
// where j is the common-prefix length and the LSR term is taken over the
// first mismatching elements (0 when one path is a strict prefix of the
// other).
func PathDist(p1, p2 usage.Path) float64 {
	if p1.Equal(p2) {
		return 0
	}
	j := CommonPrefix(p1, p2)
	mx := max(len(p1), len(p2))
	if mx == 0 {
		return 0
	}
	lsr := 0.0
	if j < len(p1) && j < len(p2) {
		lsr = LSR(p1[j], p2[j])
	}
	return 1 - (float64(j)+lsr)/float64(mx)
}

// PathsDist matches the paths of two feature sets (minimum-cost assignment)
// and sums the pairwise path distances; unmatched paths cost 1 each
// (paper §4.3's "smallest distance obtained by first matching the paths in
// both sets").
func PathsDist(f1, f2 []usage.Path) float64 {
	return match.MinCostSum(len(f1), len(f2), func(i, j int) float64 {
		return PathDist(f1[i], f2[j])
	}, 1)
}

// UsageDist is the distance between two usage changes: the average of the
// removed-set and added-set path distances.
func UsageDist(rem1, add1, rem2, add2 []usage.Path) float64 {
	return (PathsDist(rem1, rem2) + PathsDist(add1, add2)) / 2
}
