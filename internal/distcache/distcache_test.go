package distcache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/obs"
	"repro/internal/textdist"
	"repro/internal/usage"
)

// labelVocab is a corpus-shaped vocabulary: root types, methods, constant
// args, string-payload args (similar and dissimilar), and degenerate forms.
var labelVocab = []string{
	"Cipher", "MessageDigest", "SecureRandom",
	"getInstance", "init", "doFinal", "setSeed", "<init>",
	"arg1:ENCRYPT_MODE", "arg2:Secret", "arg3:IvParameterSpec",
	`arg1:"AES"`, `arg1:"DES"`, `arg1:"AES/ECB"`, `arg1:"AES/CBC"`,
	`arg1:"AES/CBC/PKCS5Padding"`, `arg1:"AES/GCM/NoPadding"`,
	`arg2:"AES/CBC"`, `arg1:"SHA1PRNG"`, `arg1:"MD5"`, `arg1:""`,
	`arg1:"日本語"`, `x:"`, "",
}

// randPath builds a bounded random path over the vocabulary.
func randPath(r *rand.Rand) usage.Path {
	n := 1 + r.Intn(5)
	p := make(usage.Path, n)
	for i := range p {
		p[i] = labelVocab[r.Intn(len(labelVocab))]
	}
	return p
}

func randPaths(r *rand.Rand) []usage.Path {
	n := r.Intn(4)
	out := make([]usage.Path, n)
	for i := range out {
		out[i] = randPath(r)
	}
	return out
}

func TestInternMemoizesLabel(t *testing.T) {
	e := New(nil)
	a := e.Intern(`arg1:"AES/CBC"`)
	b := e.Intern(`arg1:"AES/CBC"`)
	if a != b {
		t.Fatal("same string interned twice")
	}
	if a.ID != 0 || a.Str != `arg1:"AES/CBC"` {
		t.Fatalf("bad record: %+v", a)
	}
	if want := textdist.LabelLen(a.Str); a.Len != want {
		t.Fatalf("memoized Len = %d, want %d", a.Len, want)
	}
	if !a.isStr || a.prefix != "arg1" || string(a.payload) != "AES/CBC" {
		t.Fatalf("payload not decoded: %+v", a)
	}
	if c := e.Intern("init"); c.ID != 1 || c.Len != 1 || c.isStr {
		t.Fatalf("plain label record wrong: %+v", c)
	}
}

// TestInternLenMatchesLabelLen sweeps the vocabulary (degenerate labels
// included): the memoized Len must equal textdist.LabelLen exactly.
func TestInternLenMatchesLabelLen(t *testing.T) {
	e := New(nil)
	for _, l := range labelVocab {
		if got, want := e.Intern(l).Len, textdist.LabelLen(l); got != want {
			t.Errorf("Intern(%q).Len = %d, want %d", l, got, want)
		}
	}
}

// TestDifferentialKernels quick-checks every engine kernel against its
// uncached textdist reference. Equality is exact (==, not tolerance): the
// cached path must be bit-identical, which is what lets the dendrogram
// stay byte-identical with the cache on.
func TestDifferentialKernels(t *testing.T) {
	e := New(nil)
	pick := func(i uint16) string { return labelVocab[int(i)%len(labelVocab)] }
	labelDist := func(i, j uint16) bool {
		a, b := pick(i), pick(j)
		return e.LabelDist(a, b) == textdist.LabelDist(a, b)
	}
	lsr := func(i, j uint16) bool {
		a, b := pick(i), pick(j)
		return e.LSR(a, b) == textdist.LSR(a, b)
	}
	if err := quick.Check(labelDist, &quick.Config{MaxCount: 2000}); err != nil {
		t.Errorf("LabelDist: %v", err)
	}
	if err := quick.Check(lsr, &quick.Config{MaxCount: 2000}); err != nil {
		t.Errorf("LSR: %v", err)
	}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 3000; i++ {
		p1, p2 := randPath(r), randPath(r)
		if got, want := e.PathDist(p1, p2), textdist.PathDist(p1, p2); got != want {
			t.Fatalf("PathDist(%v, %v) = %v, want %v", p1, p2, got, want)
		}
	}
	for i := 0; i < 500; i++ {
		f1, f2 := randPaths(r), randPaths(r)
		if got, want := e.PathsDist(f1, f2), textdist.PathsDist(f1, f2); got != want {
			t.Fatalf("PathsDist(%v, %v) = %v, want %v", f1, f2, got, want)
		}
		rem1, add1 := randPaths(r), randPaths(r)
		rem2, add2 := randPaths(r), randPaths(r)
		got := e.UsageDist(rem1, add1, rem2, add2)
		want := textdist.UsageDist(rem1, add1, rem2, add2)
		if got != want {
			t.Fatalf("UsageDist = %v, want %v", got, want)
		}
	}
}

// TestCacheTelemetry checks the hit/miss/intern counters land in the
// registry — and only once real traffic happens (lazy registration keeps
// cache.* out of snapshots of runs that never cluster).
func TestCacheTelemetry(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(reg)
	if s := obs.TakeSnapshot(reg, false); len(s.Counters) != 0 {
		t.Fatalf("engine construction registered counters: %v", s.Counters)
	}
	a, b := `arg1:"AES/CBC"`, `arg1:"AES/GCM"`
	e.LabelDist(a, b) // miss
	e.LabelDist(a, b) // hit
	e.LabelDist(b, a) // hit (symmetric key)
	s := obs.TakeSnapshot(reg, false)
	if s.Counters["cache.label_dist.misses"] != 1 {
		t.Errorf("misses = %d, want 1", s.Counters["cache.label_dist.misses"])
	}
	if s.Counters["cache.label_dist.hits"] != 2 {
		t.Errorf("hits = %d, want 2", s.Counters["cache.label_dist.hits"])
	}
	if s.Counters["cache.labels.interned"] != 2 {
		t.Errorf("labels interned = %d, want 2", s.Counters["cache.labels.interned"])
	}
	p1 := usage.Path{"Cipher", "getInstance", a}
	p2 := usage.Path{"Cipher", "getInstance", b}
	e.PathDist(p1, p2)
	e.PathDist(p1, p2)
	s = obs.TakeSnapshot(reg, false)
	if s.Counters["cache.path_dist.misses"] != 1 || s.Counters["cache.path_dist.hits"] != 1 {
		t.Errorf("path counters wrong: %v", s.Counters)
	}
	if s.Counters["cache.paths.interned"] != 2 {
		t.Errorf("paths interned = %d, want 2", s.Counters["cache.paths.interned"])
	}
}

// TestEviction fills a tiny cache past its shard cap: results stay exact
// and evictions are counted.
func TestEviction(t *testing.T) {
	reg := obs.NewRegistry()
	e := newWithCap(reg, 2)
	labels := make([]string, 40)
	for i := range labels {
		labels[i] = fmt.Sprintf("arg1:%q", string(rune('a'+i%26))+fmt.Sprint(i))
	}
	for i := range labels {
		for j := range labels {
			if got, want := e.LabelDist(labels[i], labels[j]), textdist.LabelDist(labels[i], labels[j]); got != want {
				t.Fatalf("post-eviction LabelDist(%q, %q) = %d, want %d", labels[i], labels[j], got, want)
			}
		}
	}
	s := obs.TakeSnapshot(reg, false)
	if s.Counters["cache.evictions"] == 0 {
		t.Fatalf("no evictions at cap 2 over %d pairs: %v", len(labels)*len(labels), s.Counters)
	}
	// Every cap-triggered wipe bumps cache.eviction.resets exactly once, and
	// each reset drops at least cap entries — so the two counters bound each
	// other: 0 < resets and cap*resets <= evictions.
	resets := s.Counters["cache.eviction.resets"]
	if resets == 0 {
		t.Fatalf("evictions counted but no eviction resets: %v", s.Counters)
	}
	if ev := s.Counters["cache.evictions"]; ev < 2*resets {
		t.Errorf("cache.evictions = %d < cap(2) * resets(%d) — a reset dropped fewer entries than the cap", ev, resets)
	}
}

// TestConcurrentEngine hammers one engine from many goroutines (run under
// -race in CI): all results must agree with the serial reference.
func TestConcurrentEngine(t *testing.T) {
	e := New(obs.NewRegistry())
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				p1, p2 := randPath(r), randPath(r)
				if got, want := e.PathDist(p1, p2), textdist.PathDist(p1, p2); got != want {
					errs <- fmt.Sprintf("PathDist(%v, %v) = %v, want %v", p1, p2, got, want)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// TestInternPathsSharesRecords: identical paths intern to the same record,
// which is what makes the matrix-level fingerprint fan-out and the a == b
// early exit exact.
func TestInternPathsSharesRecords(t *testing.T) {
	e := New(nil)
	p := usage.Path{"Cipher", "getInstance", `arg1:"AES"`}
	q := usage.Path{"Cipher", "getInstance", `arg1:"AES"`}
	refs := e.InternPaths([]usage.Path{p, q})
	if refs[0] != refs[1] {
		t.Fatal("identical paths interned to distinct records")
	}
	if d := e.UsageDistRefs(refs[:1], nil, refs[1:], nil); d != 0 {
		t.Fatalf("identical interned changes at distance %v", d)
	}
}
