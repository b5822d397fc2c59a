package artifact

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

func counters(reg *obs.Registry) map[string]int64 {
	return obs.TakeSnapshot(reg, false).Counters
}

// TestKeyDerivation pins the properties the content addressing relies on:
// determinism, kind/part sensitivity, and length-prefix non-collision.
func TestKeyDerivation(t *testing.T) {
	if NewKey(KindParse, "a", "b") != NewKey(KindParse, "a", "b") {
		t.Fatal("same inputs, different keys")
	}
	if NewKey(KindParse, "a") == NewKey(KindAnalysis, "a") {
		t.Fatal("kind does not separate key domains")
	}
	if NewKey(KindParse, "ab", "c") == NewKey(KindParse, "a", "bc") {
		t.Fatal("length prefixing failed: part boundaries collide")
	}
	if NewKey(KindParse, "a") == NewKey(KindParse, "b") {
		t.Fatal("content does not change the key")
	}
	if got := len(NewKey(KindParse).String()); got != 64 {
		t.Fatalf("key hex length = %d, want 64", got)
	}
}

// TestNewKeyVectors pins key bytes: every artifact in a -cache-dir is
// addressed by NewKey, so a warm cache stays valid across builds only if
// the same parts keep hashing to the same key. The parts cover no part,
// empty parts, part boundaries, multi-byte text, and parts longer than any
// internal hashing buffer.
func TestNewKeyVectors(t *testing.T) {
	big := strings.Repeat("0123456789abcdef", 300) + "tail"
	for _, c := range []struct {
		kind  Kind
		parts []string
		want  string
	}{
		{KindParse, nil, "bd15e60b882731d969ea39e04aa879642d5b59eda8665c6cf9151f51a7295238"},
		{KindParse, []string{""}, "e388ef6af486aa2c20a3390e4696eb48dfc1f5f5333420f2de59fe041b937fa1"},
		{KindParse, []string{"class A {}"}, "a10c3efcea5b56e91f37dd294550a45ec387eb7e4691240169bf844e68b3745a"},
		{KindSummary, []string{"ab", "c"}, "0c1381f5a6697b79fdda765b37f1c66aa333f742576e3c4a11b516a676a73314"},
		{KindSummary, []string{"a", "bc"}, "6a9be4810644ebe03e5e9b058a0623c8156f9692dc2856b774bf1db3378a9803"},
		{KindCheck, []string{big, "", "x"}, "e99dae91b25914185c3dada58db99542e2d68ff2954c760788744e9f191935ef"},
		{KindAnalysis, []string{strings.Repeat("é", 700), big[:511], big[:512], big[:513]}, "8639ace337a5b156b381d26a09f26d0961757eb160719130ff224e68cbbe4452"},
	} {
		if got := NewKey(c.kind, c.parts...).String(); got != c.want {
			t.Errorf("NewKey(%s, %d parts) = %s, want %s", c.kind, len(c.parts), got, c.want)
		}
	}
}

// TestMemoryRoundTrip exercises the object and byte tiers of a memory-only
// store, asserting the exact hit/miss accounting the invalidation oracle
// depends on, and that Put never encodes without a disk tier.
func TestMemoryRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Metrics: reg})
	k := NewKey(KindAnalysis, "content")

	if _, ok := s.Get(KindAnalysis, k, nil); ok {
		t.Fatal("hit on empty store")
	}
	s.Put(KindAnalysis, k, "decoded", func() ([]byte, error) {
		t.Error("Put encoded on a memory-only store")
		return []byte("payload"), nil
	})
	v, ok := s.Get(KindAnalysis, k, nil)
	if !ok || v.(string) != "decoded" {
		t.Fatalf("object tier: got %v, %v", v, ok)
	}
	if _, ok := s.GetBytes(KindAnalysis, k); ok {
		t.Fatal("Put left a byte-tier copy on a memory-only store")
	}
	s.PutBytes(KindAnalysis, k, []byte("payload"))
	b, ok := s.GetBytes(KindAnalysis, k)
	if !ok || string(b) != "payload" {
		t.Fatalf("byte tier: got %q, %v", b, ok)
	}
	c := counters(reg)
	if c["artifact.hits"] != 2 || c["artifact.misses"] != 2 {
		t.Fatalf("hit/miss accounting: %v", c)
	}
	if c["artifact.analysis.hits"] != 2 || c["artifact.analysis.misses"] != 2 {
		t.Fatalf("per-kind accounting: %v", c)
	}
}

// TestGetDecodesByteTier covers the promote path: an entry present only as
// bytes decodes into the object tier on first Get and serves from the
// object tier afterwards.
func TestGetDecodesByteTier(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Metrics: reg})
	k := NewKey(KindAnalysis, "x")
	s.PutBytes(KindAnalysis, k, []byte("7"))
	decodes := 0
	decode := func(b []byte) (any, error) { decodes++; return string(b) + "!", nil }
	for i := 0; i < 3; i++ {
		v, ok := s.Get(KindAnalysis, k, decode)
		if !ok || v.(string) != "7!" {
			t.Fatalf("round %d: got %v, %v", i, v, ok)
		}
	}
	if decodes != 1 {
		t.Fatalf("decode ran %d times, want 1 (promotion failed)", decodes)
	}
	// A decode error must read as a miss, not an error.
	k2 := NewKey(KindAnalysis, "y")
	s.PutBytes(KindAnalysis, k2, []byte("bad"))
	if _, ok := s.Get(KindAnalysis, k2, func([]byte) (any, error) { return nil, errors.New("no") }); ok {
		t.Fatal("decode error surfaced as a hit")
	}
	if counters(reg)["artifact.corrupt"] == 0 {
		t.Fatal("decode error not counted as corrupt")
	}
}

// segments lists the segment files under a store directory.
func segments(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, segDir, "*"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// onlySegment returns the path of the one segment under dir.
func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	segs := segments(t, dir)
	if len(segs) != 1 {
		t.Fatalf("segments = %v, want exactly one", segs)
	}
	return segs[0]
}

// TestDiskRoundTrip writes through one store and reads through a fresh one
// rooted at the same directory — the warm-run scenario.
func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	k := NewKey(KindParse, "class A {}")
	cold := New(Config{Dir: dir})
	cold.PutBytes(KindParse, k, []byte("ast-bytes"))
	cold.Put(KindParse, NewKey(KindParse, "class B {}"), "B", func() ([]byte, error) { return []byte("b-bytes"), nil })

	reg := obs.NewRegistry()
	warm := New(Config{Dir: dir, Metrics: reg})
	b, ok := warm.GetBytes(KindParse, k)
	if !ok || string(b) != "ast-bytes" {
		t.Fatalf("warm read: got %q, %v", b, ok)
	}
	c := counters(reg)
	if c["artifact.disk_hits"] != 1 || c["artifact.bytes_read"] == 0 {
		t.Fatalf("disk telemetry: %v", c)
	}
	// Promotion: the second read serves from memory.
	if _, ok := warm.GetBytes(KindParse, k); !ok {
		t.Fatal("promoted read missed")
	}
	if counters(reg)["artifact.mem_hits"] != 1 {
		t.Fatalf("promotion telemetry: %v", counters(reg))
	}
	if b, ok := warm.GetBytes(KindParse, NewKey(KindParse, "class B {}")); !ok || string(b) != "b-bytes" {
		t.Fatalf("encoded Put: got %q, %v", b, ok)
	}
	// Layout: both records in one segment, and nothing else on disk.
	seg := onlySegment(t, dir)
	var files []string
	filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			files = append(files, path)
		}
		return err
	})
	if len(files) != 1 || files[0] != seg {
		t.Fatalf("files under the store = %v, want only the segment %s", files, seg)
	}
}

// recordDefects are the ways the record format defends against damage; each
// takes the segment bytes and the record's offset and length.
var recordDefects = []struct {
	name   string
	mangle func(b []byte, off, n int) []byte
}{
	{"flipped payload byte", func(b []byte, off, n int) []byte { b[off+n-sha256.Size-1] ^= 0x01; return b }},
	{"truncated", func(b []byte, off, n int) []byte { return append(b[:off+n-1], b[off+n:]...) }},
	{"stale magic", func(b []byte, off, n int) []byte { b[off] = 'X'; return b }},
	{"flipped key byte", func(b []byte, off, n int) []byte {
		b[off+len(recMagic)+len(KindAnalysis)+1+3] ^= 0x01
		return b
	}},
	{"cut inside the header", func(b []byte, off, n int) []byte { return append(b[:off+20], b[off+n:]...) }},
}

// mangleSegment rewrites the segment at path through a defect applied to
// the record at [off, off+n).
func mangleSegment(t *testing.T, path string, off, n int, mangle func([]byte, int, int) []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mangle(raw, off, n), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDiskSelfValidation damages the one record of a segment every way the
// format defends against; each defect must read as a counted miss, never
// an error or a wrong payload.
func TestDiskSelfValidation(t *testing.T) {
	for _, tc := range recordDefects {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			k := NewKey(KindAnalysis, "v")
			New(Config{Dir: dir}).PutBytes(KindAnalysis, k, []byte("payload"))
			n := len(encodeRecord(mkey{KindAnalysis, k}, []byte("payload")))
			mangleSegment(t, onlySegment(t, dir), 0, n, tc.mangle)
			reg := obs.NewRegistry()
			s := New(Config{Dir: dir, Metrics: reg})
			if _, ok := s.GetBytes(KindAnalysis, k); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			c := counters(reg)
			if c["artifact.corrupt"] != 1 || c["artifact.misses"] != 1 || c["artifact.disk_errors"] != 0 {
				t.Fatalf("corrupt entry accounting: %v", c)
			}
		})
	}
}

// TestDiskEmptySegment: a segment with no records is a plain miss that
// counts nothing.
func TestDiskEmptySegment(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, segDir), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segDir, "empty"+segSuffix), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	if _, ok := New(Config{Dir: dir, Metrics: reg}).GetBytes(KindAnalysis, NewKey(KindAnalysis, "v")); ok {
		t.Fatal("empty segment served a hit")
	}
	c := counters(reg)
	if c["artifact.misses"] != 1 || c["artifact.corrupt"] != 0 || c["artifact.disk_errors"] != 0 {
		t.Fatalf("empty segment accounting: %v", c)
	}
}

// TestDiskDefectMidSegment damages the middle record of three: the record
// before it always hits, the damaged one never does, and no key is ever
// answered with another record's payload.
func TestDiskDefectMidSegment(t *testing.T) {
	for _, tc := range recordDefects {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w := New(Config{Dir: dir})
			var keys []Key
			var offs []int
			off := 0
			for i := 0; i < 3; i++ {
				k := NewKey(KindAnalysis, fmt.Sprint(i))
				payload := []byte(fmt.Sprintf("payload-%d", i))
				w.PutBytes(KindAnalysis, k, payload)
				keys, offs = append(keys, k), append(offs, off)
				off += len(encodeRecord(mkey{KindAnalysis, k}, payload))
			}
			mangleSegment(t, onlySegment(t, dir), offs[1], offs[2]-offs[1], tc.mangle)
			reg := obs.NewRegistry()
			s := New(Config{Dir: dir, Metrics: reg})
			for i, k := range keys {
				b, ok := s.GetBytes(KindAnalysis, k)
				if ok && string(b) != fmt.Sprintf("payload-%d", i) {
					t.Fatalf("record %d served payload %q", i, b)
				}
				if ok != (i == 0) && i != 2 {
					t.Fatalf("record %d: hit = %v", i, ok)
				}
			}
			if c := counters(reg); c["artifact.corrupt"] == 0 {
				t.Fatalf("damaged record not counted: %v", c)
			}
		})
	}
}

// TestKindCrossLink ensures a record cannot answer for a different kind or
// key even if its header is rewritten to claim them: the checksum binds the
// kind and key to the payload.
func TestKindCrossLink(t *testing.T) {
	dir := t.TempDir()
	kp := NewKey(KindParse, "src")
	ka := NewKey(KindAnalysis, "src")
	New(Config{Dir: dir}).PutBytes(KindParse, kp, []byte("parse-payload"))
	path := onlySegment(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Relabel the parse record as the analysis record of the same source.
	body := raw[len(recMagic)+len(KindParse)+1+len(kp):]
	forged := append([]byte(string(recMagic)+string(KindAnalysis)+"\n"), ka[:]...)
	forged = append(forged, body...)
	if err := os.WriteFile(path, forged, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	fresh := New(Config{Dir: dir, Metrics: reg})
	if _, ok := fresh.GetBytes(KindAnalysis, ka); ok {
		t.Fatal("cross-linked entry served under the wrong kind/key")
	}
	if _, ok := fresh.GetBytes(KindParse, kp); ok {
		t.Fatal("relabelled record still served under its old key")
	}
	if c := counters(reg); c["artifact.corrupt"] != 1 {
		t.Fatalf("relabelled record not counted as corrupt: %v", c)
	}
}

// TestDiskConcurrentStores runs two stores appending concurrently to one
// directory; a third store then hits every key either wrote.
func TestDiskConcurrentStores(t *testing.T) {
	dir := t.TempDir()
	const perStore = 200
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := New(Config{Dir: dir})
			var inner sync.WaitGroup
			for g := 0; g < 4; g++ {
				inner.Add(1)
				go func(g int) {
					defer inner.Done()
					for i := g; i < perStore; i += 4 {
						k := NewKey(KindSummary, fmt.Sprint(w), fmt.Sprint(i))
						if _, ok := s.GetBytes(KindSummary, k); !ok {
							s.PutBytes(KindSummary, k, []byte(fmt.Sprintf("%d/%d", w, i)))
						}
					}
				}(g)
			}
			inner.Wait()
		}(w)
	}
	wg.Wait()
	if n := len(segments(t, dir)); n != 2 {
		t.Fatalf("segments = %d, want one per writing store", n)
	}
	reg := obs.NewRegistry()
	s := New(Config{Dir: dir, Metrics: reg})
	for w := 0; w < 2; w++ {
		for i := 0; i < perStore; i++ {
			b, ok := s.GetBytes(KindSummary, NewKey(KindSummary, fmt.Sprint(w), fmt.Sprint(i)))
			if !ok || string(b) != fmt.Sprintf("%d/%d", w, i) {
				t.Fatalf("store %d key %d: got %q, %v", w, i, b, ok)
			}
		}
	}
	if c := counters(reg); c["artifact.disk_hits"] != 2*perStore || c["artifact.corrupt"] != 0 {
		t.Fatalf("third store accounting: %v", c)
	}
}

// TestDiskSegmentBound writes one record from each of 40 stores: no store
// ever reads more than maxSegments segments, so the directory never holds
// more than maxSegments+1, and a fresh store still hits all 40 keys.
func TestDiskSegmentBound(t *testing.T) {
	dir := t.TempDir()
	const stores = 40
	key := func(i int) Key { return NewKey(KindCheck, fmt.Sprint(i)) }
	for i := 0; i < stores; i++ {
		New(Config{Dir: dir}).PutBytes(KindCheck, key(i), []byte(fmt.Sprint(i)))
		if n := len(segments(t, dir)); n > maxSegments+1 {
			t.Fatalf("after store %d: %d segments, bound %d", i, n, maxSegments+1)
		}
	}
	reg := obs.NewRegistry()
	s := New(Config{Dir: dir, Metrics: reg})
	for i := 0; i < stores; i++ {
		if b, ok := s.GetBytes(KindCheck, key(i)); !ok || string(b) != fmt.Sprint(i) {
			t.Fatalf("key %d: got %q, %v", i, b, ok)
		}
	}
	if n := len(segments(t, dir)); n > maxSegments {
		t.Fatalf("fresh store left %d segments, bound %d", n, maxSegments)
	}
	if c := counters(reg); c["artifact.corrupt"] != 0 || c["artifact.disk_errors"] != 0 {
		t.Fatalf("merge accounting: %v", c)
	}
}

// TestEviction fills tiny tiers past their caps: lookups stay correct
// (recompute-on-miss is the contract) and evictions are counted.
func TestEviction(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Metrics: reg, MemEntries: 4, ObjEntries: 4})
	for i := 0; i < 20; i++ {
		k := NewKey(KindParse, fmt.Sprint(i))
		s.PutBytes(KindParse, k, []byte{byte(i)})
		s.Put(KindParse, k, i, nil)
	}
	c := counters(reg)
	if c["artifact.evictions"] == 0 || c["artifact.eviction.resets"] == 0 {
		t.Fatalf("no evictions counted at cap 4 over 20 entries: %v", c)
	}
	// The most recent entry survives the last reset.
	k := NewKey(KindParse, "19")
	if b, ok := s.GetBytes(KindParse, k); !ok || b[0] != 19 {
		t.Fatalf("latest entry lost: %v, %v", b, ok)
	}
}

// TestSingleFlight hammers Do with concurrent callers on a small key space:
// per key, at most one compute may be in flight, and once a key is cached
// (fn consults the store), no further computes run for it.
func TestSingleFlight(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Metrics: reg})
	const keys, callers = 4, 32
	var computes atomic.Int64
	inflight := make([]atomic.Int64, keys)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ki := c % keys
			k := NewKey(KindAnalysis, fmt.Sprint(ki))
			v, err := s.Do(KindAnalysis, k, func() (any, error) {
				if v, ok := s.Get(KindAnalysis, k, nil); ok {
					return v, nil
				}
				if inflight[ki].Add(1) > 1 {
					t.Errorf("two computes in flight for key %d", ki)
				}
				computes.Add(1)
				v := fmt.Sprintf("value-%d", ki)
				s.Put(KindAnalysis, k, v, nil)
				inflight[ki].Add(-1)
				return v, nil
			})
			if err != nil || v.(string) != fmt.Sprintf("value-%d", ki) {
				t.Errorf("caller %d: got %v, %v", c, v, err)
			}
		}(c)
	}
	wg.Wait()
	// Between 1 (all callers shared one flight) and `callers` computes per
	// key are possible without caching; with fn consulting the store, the
	// only duplicates are flights that raced the very first Put — the
	// in-flight assertion above is the real invariant. Sanity-bound anyway:
	if n := computes.Load(); n < keys || n > callers {
		t.Fatalf("computes = %d, want within [%d, %d]", n, keys, callers)
	}
}

// TestSingleFlightError asserts errors are shared with waiters but never
// cached: a later call retries.
func TestSingleFlightError(t *testing.T) {
	s := New(Config{})
	k := NewKey(KindAnalysis, "bad")
	calls := 0
	fn := func() (any, error) { calls++; return nil, errors.New("boom") }
	if _, err := s.Do(KindAnalysis, k, fn); err == nil {
		t.Fatal("error swallowed")
	}
	if _, err := s.Do(KindAnalysis, k, fn); err == nil {
		t.Fatal("error cached as success")
	}
	if calls != 2 {
		t.Fatalf("sequential failing calls = %d computes, want 2 (errors are not cached)", calls)
	}
}

// TestNilStore pins the nil-is-off convention for every entry point.
func TestNilStore(t *testing.T) {
	var s *Store
	k := NewKey(KindParse, "x")
	if _, ok := s.Get(KindParse, k, nil); ok {
		t.Fatal("nil store hit")
	}
	if _, ok := s.GetBytes(KindParse, k); ok {
		t.Fatal("nil store byte hit")
	}
	s.Put(KindParse, k, 1, nil)
	s.PutBytes(KindParse, k, []byte("x"))
	if s.Dir() != "" {
		t.Fatal("nil store has a dir")
	}
	v, err := s.Do(KindParse, k, func() (any, error) { return 42, nil })
	if err != nil || v.(int) != 42 {
		t.Fatalf("nil store Do: %v, %v", v, err)
	}
}

// TestUnwritableDir asserts a broken disk tier degrades to memory-only
// behavior: writes are counted as disk errors, reads still work in-process.
func TestUnwritableDir(t *testing.T) {
	dir := t.TempDir()
	blocked := filepath.Join(dir, "blocked")
	// A regular file where the cache root should be makes every MkdirAll fail.
	if err := os.WriteFile(blocked, []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := New(Config{Dir: blocked, Metrics: reg})
	k := NewKey(KindParse, "x")
	s.PutBytes(KindParse, k, []byte("payload"))
	if counters(reg)["artifact.disk_errors"] == 0 {
		t.Fatalf("disk failure not counted: %v", counters(reg))
	}
	if b, ok := s.GetBytes(KindParse, k); !ok || string(b) != "payload" {
		t.Fatalf("memory tier lost the entry behind a broken disk: %q, %v", b, ok)
	}
}
