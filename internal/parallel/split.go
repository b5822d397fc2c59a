package parallel

// Range is a half-open index interval [Lo, Hi).
type Range struct{ Lo, Hi int }

// Len returns the number of indices in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Chunks splits [0, n) into at most k contiguous ranges of near-equal
// length (the first n%k chunks are one longer). It returns nil for n <= 0
// and never returns empty ranges, so len(result) == min(k, n). The split
// depends only on (n, k): the same inputs always produce the same chunks.
func Chunks(n, k int) []Range {
	if n <= 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	out := make([]Range, 0, k)
	size, rem := n/k, n%k
	lo := 0
	for c := 0; c < k; c++ {
		hi := lo + size
		if c < rem {
			hi++
		}
		out = append(out, Range{Lo: lo, Hi: hi})
		lo = hi
	}
	return out
}

// TriangleChunks splits the rows of the strict upper triangle of an n×n
// symmetric matrix into at most k contiguous row ranges of near-equal pair
// count. Row i owns the pairs (i, i+1..n-1) — n-1-i of them — so equal row
// counts would concentrate almost all work in the first chunk; this
// splitter balances by pairs instead, which is what makes row-chunked
// distance-matrix construction scale. Deterministic in (n, k).
func TriangleChunks(n, k int) []Range {
	if n <= 1 {
		if n == 1 {
			return []Range{{Lo: 0, Hi: 1}}
		}
		return nil
	}
	if k < 1 {
		k = 1
	}
	total := n * (n - 1) / 2
	out := make([]Range, 0, k)
	lo, done := 0, 0
	for c := 0; c < k && lo < n; c++ {
		// Aim for an even split of the remaining pairs over the remaining
		// chunks, so rounding error doesn't pile onto the last chunk.
		target := (total - done + (k - c - 1)) / (k - c)
		hi, pairs := lo, 0
		for hi < n && (pairs < target || hi == lo) {
			pairs += n - 1 - hi
			hi++
		}
		// The final chunk sweeps up whatever rows remain.
		if c == k-1 {
			pairs += triPairs(n, hi)
			hi = n
		}
		out = append(out, Range{Lo: lo, Hi: hi})
		lo, done = hi, done+pairs
	}
	return out
}

// triPairs counts the upper-triangle pairs owned by rows [from, n).
func triPairs(n, from int) int {
	rows := n - from
	if rows <= 0 {
		return 0
	}
	// Row i owns n-1-i pairs; summed over i in [from, n).
	return rows*(n-1-from) - rows*(rows-1)/2
}
