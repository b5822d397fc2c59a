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

// put and get store and read a string artifact through identity codecs:
// the object is the payload.
func put(s *Store, kind Kind, k Key, payload string) {
	s.Put(kind, k, payload, func() ([]byte, error) { return []byte(payload), nil })
}

func decodeRaw(b []byte) (any, error) { return string(b), nil }

func get(s *Store, kind Kind, k Key) (string, bool) {
	v, ok := s.Get(kind, k, decodeRaw)
	if !ok {
		return "", false
	}
	return v.(string), true
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

// TestMemoryRoundTrip exercises the object tier of a memory-only store,
// asserting the exact hit/miss accounting the invalidation oracle depends
// on, and that Put never encodes without a disk tier.
func TestMemoryRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Metrics: reg})
	k := NewKey(KindAnalysis, "content")

	if _, ok := get(s, KindAnalysis, k); ok {
		t.Fatal("hit on empty store")
	}
	s.Put(KindAnalysis, k, "decoded", func() ([]byte, error) {
		t.Error("Put encoded on a memory-only store")
		return []byte("payload"), nil
	})
	v, ok := s.Get(KindAnalysis, k, func([]byte) (any, error) {
		t.Error("Get decoded on a memory-only store")
		return nil, nil
	})
	if !ok || v.(string) != "decoded" {
		t.Fatalf("object tier: got %v, %v", v, ok)
	}
	c := counters(reg)
	if c["artifact.hits"] != 1 || c["artifact.misses"] != 1 || c["artifact.mem_hits"] != 1 {
		t.Fatalf("hit/miss accounting: %v", c)
	}
	if c["artifact.analysis.hits"] != 1 || c["artifact.analysis.misses"] != 1 {
		t.Fatalf("per-kind accounting: %v", c)
	}
}

// TestGetPromotesDiskHit covers the promote path: an entry present only on
// disk decodes into the object tier on its first Get and serves from the
// object tier afterwards.
func TestGetPromotesDiskHit(t *testing.T) {
	dir := t.TempDir()
	k, k2 := NewKey(KindAnalysis, "x"), NewKey(KindAnalysis, "y")
	cold := New(Config{Dir: dir})
	put(cold, KindAnalysis, k, "7")
	put(cold, KindAnalysis, k2, "bad")

	reg := obs.NewRegistry()
	s := New(Config{Dir: dir, Metrics: reg})
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
	if c := counters(reg); c["artifact.disk_hits"] != 1 || c["artifact.mem_hits"] != 2 {
		t.Fatalf("promotion telemetry: %v", c)
	}
	// A decode error must read as a miss, not an error.
	if _, ok := s.Get(KindAnalysis, k2, func([]byte) (any, error) { return nil, errors.New("no") }); ok {
		t.Fatal("decode error surfaced as a hit")
	}
	if counters(reg)["artifact.corrupt"] == 0 {
		t.Fatal("decode error not counted as corrupt")
	}
}

// TestGetUnmeteredAllocs: a lookup on a store without a registry builds no
// counter names, so an object-tier hit allocates nothing.
func TestGetUnmeteredAllocs(t *testing.T) {
	s := New(Config{})
	k := NewKey(KindSummary, "x")
	put(s, KindSummary, k, "v")
	if n := testing.AllocsPerRun(100, func() { s.Get(KindSummary, k, decodeRaw) }); n != 0 {
		t.Fatalf("object-tier hit on an unmetered store: %v allocs, want 0", n)
	}
}

// TestPutUnless pins the keep rule: a kept prior stays and nothing is
// written, a rejected one is replaced and the replacement is written, and
// the check is no lookup.
func TestPutUnless(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Dir: t.TempDir(), Metrics: reg})
	k := NewKey(KindSummary, "x")
	enc := func(p string) func() ([]byte, error) { return func() ([]byte, error) { return []byte(p), nil } }
	keepFirst := func(prior any) bool { return prior.(string) == "first" }
	s.PutUnless(KindSummary, k, "first", keepFirst, enc("first"))
	s.PutUnless(KindSummary, k, "second", keepFirst, enc("second"))
	if v, _ := get(s, KindSummary, k); v != "first" {
		t.Fatalf("kept prior replaced: got %q", v)
	}
	if n := counters(reg)["artifact.bytes_written"]; n != int64(len("first")) {
		t.Fatalf("bytes written = %d, want only the first record's %d", n, len("first"))
	}
	s.PutUnless(KindSummary, k, "third", keepFirst, enc("third"))
	if v, _ := get(s, KindSummary, k); v != "first" {
		t.Fatalf("kept prior replaced: got %q", v)
	}
	s.PutUnless(KindSummary, k, "fourth", func(any) bool { return false }, enc("fourth"))
	if v, _ := get(s, KindSummary, k); v != "fourth" {
		t.Fatalf("rejected prior kept: got %q", v)
	}
	c := counters(reg)
	if c["artifact.bytes_written"] != int64(len("first")+len("fourth")) {
		t.Fatalf("replacement not written through: %v", c)
	}
	if c["artifact.hits"] != 3 || c["artifact.misses"] != 0 {
		t.Fatalf("PutUnless counted a lookup: %v", c)
	}
}

// TestDiskLastCopyWins writes a key, then a PutUnless replacement of it,
// into one segment: a fresh store over the directory reads the replacement,
// and so does one that merges the segments after they pass maxSegments.
func TestDiskLastCopyWins(t *testing.T) {
	dir := t.TempDir()
	k := NewKey(KindSummary, "x")
	enc := func(p string) func() ([]byte, error) { return func() ([]byte, error) { return []byte(p), nil } }
	s := New(Config{Dir: dir})
	s.PutUnless(KindSummary, k, "guarded", nil, enc("guarded"))
	s.PutUnless(KindSummary, k, "guard-free", func(any) bool { return false }, enc("guard-free"))
	if v, ok := get(New(Config{Dir: dir}), KindSummary, k); !ok || v != "guard-free" {
		t.Fatalf("fresh store read %q, %v; want the replacement", v, ok)
	}
	for i := 0; len(segments(t, dir)) <= maxSegments; i++ {
		put(New(Config{Dir: dir}), KindCheck, NewKey(KindCheck, fmt.Sprint(i)), fmt.Sprint(i))
	}
	reg := obs.NewRegistry()
	if v, ok := get(New(Config{Dir: dir, Metrics: reg}), KindSummary, k); !ok || v != "guard-free" {
		t.Fatalf("store after a merge read %q, %v; want the replacement", v, ok)
	}
	if n := len(segments(t, dir)); n != 1 {
		t.Fatalf("%d segments after the merge, want 1", n)
	}
	if v, ok := get(New(Config{Dir: dir}), KindSummary, k); !ok || v != "guard-free" {
		t.Fatalf("fresh store over the merged segment read %q, %v; want the replacement", v, ok)
	}
	if c := counters(reg); c["artifact.corrupt"] != 0 || c["artifact.disk_errors"] != 0 {
		t.Fatalf("merge accounting: %v", c)
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
	put(cold, KindParse, k, "ast-bytes")
	cold.Put(KindParse, NewKey(KindParse, "class B {}"), "B", func() ([]byte, error) { return []byte("b-bytes"), nil })

	reg := obs.NewRegistry()
	warm := New(Config{Dir: dir, Metrics: reg})
	b, ok := get(warm, KindParse, k)
	if !ok || b != "ast-bytes" {
		t.Fatalf("warm read: got %q, %v", b, ok)
	}
	c := counters(reg)
	if c["artifact.disk_hits"] != 1 || c["artifact.bytes_read"] == 0 {
		t.Fatalf("disk telemetry: %v", c)
	}
	// Promotion: the second read serves from memory.
	if _, ok := get(warm, KindParse, k); !ok {
		t.Fatal("promoted read missed")
	}
	if counters(reg)["artifact.mem_hits"] != 1 {
		t.Fatalf("promotion telemetry: %v", counters(reg))
	}
	if b, ok := get(warm, KindParse, NewKey(KindParse, "class B {}")); !ok || b != "b-bytes" {
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
			put(New(Config{Dir: dir}), KindAnalysis, k, "payload")
			n := len(encodeRecord(mkey{KindAnalysis, k}, []byte("payload")))
			mangleSegment(t, onlySegment(t, dir), 0, n, tc.mangle)
			reg := obs.NewRegistry()
			s := New(Config{Dir: dir, Metrics: reg})
			if _, ok := get(s, KindAnalysis, k); ok {
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
	if _, ok := get(New(Config{Dir: dir, Metrics: reg}), KindAnalysis, NewKey(KindAnalysis, "v")); ok {
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
				payload := fmt.Sprintf("payload-%d", i)
				put(w, KindAnalysis, k, payload)
				keys, offs = append(keys, k), append(offs, off)
				off += len(encodeRecord(mkey{KindAnalysis, k}, []byte(payload)))
			}
			mangleSegment(t, onlySegment(t, dir), offs[1], offs[2]-offs[1], tc.mangle)
			reg := obs.NewRegistry()
			s := New(Config{Dir: dir, Metrics: reg})
			for i, k := range keys {
				b, ok := get(s, KindAnalysis, k)
				if ok && b != fmt.Sprintf("payload-%d", i) {
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
	put(New(Config{Dir: dir}), KindParse, kp, "parse-payload")
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
	if _, ok := get(fresh, KindAnalysis, ka); ok {
		t.Fatal("cross-linked entry served under the wrong kind/key")
	}
	if _, ok := get(fresh, KindParse, kp); ok {
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
						if _, ok := get(s, KindSummary, k); !ok {
							put(s, KindSummary, k, fmt.Sprintf("%d/%d", w, i))
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
			b, ok := get(s, KindSummary, NewKey(KindSummary, fmt.Sprint(w), fmt.Sprint(i)))
			if !ok || b != fmt.Sprintf("%d/%d", w, i) {
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
		put(New(Config{Dir: dir}), KindCheck, key(i), fmt.Sprint(i))
		if n := len(segments(t, dir)); n > maxSegments+1 {
			t.Fatalf("after store %d: %d segments, bound %d", i, n, maxSegments+1)
		}
	}
	reg := obs.NewRegistry()
	s := New(Config{Dir: dir, Metrics: reg})
	for i := 0; i < stores; i++ {
		if b, ok := get(s, KindCheck, key(i)); !ok || b != fmt.Sprint(i) {
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

// TestEviction fills a tiny object tier past its cap: lookups stay correct
// (recompute-on-miss is the contract), evictions are counted, and the
// artifact.objects gauge never exceeds the cap.
func TestEviction(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Metrics: reg, ObjEntries: 4})
	for i := 0; i < 20; i++ {
		put(s, KindParse, NewKey(KindParse, fmt.Sprint(i)), fmt.Sprint(i))
		if n := reg.Gauge("artifact.objects").Value(); n < 1 || n > 4 {
			t.Fatalf("after put %d: artifact.objects = %d, want within [1, 4]", i, n)
		}
	}
	c := counters(reg)
	if c["artifact.evictions"] == 0 || c["artifact.eviction.resets"] == 0 {
		t.Fatalf("no evictions counted at cap 4 over 20 entries: %v", c)
	}
	// The most recent entry survives the last reset.
	if b, ok := get(s, KindParse, NewKey(KindParse, "19")); !ok || b != "19" {
		t.Fatalf("latest entry lost: %q, %v", b, ok)
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
				if v, ok := s.Get(KindAnalysis, k, decodeRaw); ok {
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
	if _, ok := s.Get(KindParse, k, decodeRaw); ok {
		t.Fatal("nil store hit")
	}
	s.Put(KindParse, k, 1, nil)
	s.PutUnless(KindParse, k, 1, nil, nil)
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
	put(s, KindParse, k, "payload")
	if counters(reg)["artifact.disk_errors"] == 0 {
		t.Fatalf("disk failure not counted: %v", counters(reg))
	}
	if b, ok := get(s, KindParse, k); !ok || b != "payload" {
		t.Fatalf("memory tier lost the entry behind a broken disk: %q, %v", b, ok)
	}
}
