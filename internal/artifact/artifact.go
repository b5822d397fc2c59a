// Package artifact is the content-addressed artifact store behind the
// incremental pipeline (-cache-dir): parsed ASTs, per-change analysis
// results, method summaries, and check outcomes are stored under keys
// derived from their *inputs* — source content, rule-set identity, and an
// options fingerprint — so a warm run re-derives only what actually changed
// and a second request for the same snippet is a lookup, not an analysis.
//
// The store has two tiers, and it alone decides where an in-memory artifact
// lives and how that memory is bounded:
//
//   - an object tier: decoded artifacts (shared read-only — *javaast
//     CompilationUnits, analysis results, method summaries) kept in memory,
//     capped at Config.ObjEntries with reset-on-cap eviction like the
//     distcache shards;
//   - an optional disk tier (Config.Dir): self-validating records appended
//     to one segment file per store, found through an index the store
//     builds from the segments present on its first disk access (disk.go).
//     Only a store with a disk tier encodes what it is given, and a disk
//     hit is decoded once and promoted to the object tier.
//
// The store can only ever miss, never fail: a corrupt, truncated, stale, or
// cross-linked disk entry is counted (artifact.corrupt) and treated as a
// miss; an unwritable directory is counted (artifact.disk_errors) and the
// store degrades to memory-only. A nil *Store disables caching entirely —
// the same nil-is-off convention as obs.Registry and distcache.Engine.
//
// Do gives per-key single-flight: concurrent requests for the same key run
// the compute once and share the result, so a duplicate-heavy batch never
// analyzes the same content hash twice at any worker count.
package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"path/filepath"
	"sync"

	"repro/internal/obs"
)

// Kind names one artifact class. The kind participates in key derivation
// (domain separation) and is echoed in every disk record.
type Kind string

// The artifact classes of the pipeline.
const (
	// KindParse: per-file parse results (gob-encoded javaast units), keyed
	// by source content alone — parse artifacts survive option changes.
	KindParse Kind = "parse"
	// KindAnalysis: per-change analysis artifacts (the per-class usage-
	// change extractions of both versions), keyed by both sources plus the
	// pipeline options fingerprint.
	KindAnalysis Kind = "analysis"
	// KindCheck: whole check outcomes (violations + witness traces), keyed
	// by sources, rule-set identity, rule context, and options.
	KindCheck Kind = "check"
	// KindSummary: memoized per-method summaries of the abstract
	// interpreter, keyed by the whole-program source fingerprint plus the
	// callee's identity, abstract arguments, heap/field context, and the
	// analysis options that shape execution. A warm hit replays the callee's
	// recorded effect instead of re-interpreting its body.
	KindSummary Kind = "summary"
)

// FormatVersion versions key derivation. Bumping it orphans all previously
// written artifacts — they become stale entries that read as misses, never
// as wrong answers.
const FormatVersion = 1

// Key is a content address: sha256 over the kind, the format version, and
// the caller's length-prefixed parts.
type Key [sha256.Size]byte

// NewKey derives the content address for an artifact from its inputs. Parts
// are length-prefixed before hashing, so ("ab","c") and ("a","bc") cannot
// collide, and the kind and format version are mixed in first.
func NewKey(kind Kind, parts ...string) Key {
	h := NewKeyHasher(kind)
	for _, p := range parts {
		h.String(p)
	}
	return h.Key()
}

// Hasher is SHA-256 over length-prefixed parts, the framing behind every
// Key: each part is hashed as its length (8 bytes, little-endian), then its
// bytes. Parts stream through a fixed buffer, so a part is never copied to
// the heap whatever its size (the SHA-256 digest has no WriteString), and
// hashers are pooled, so a key costs no digest allocation either. A Hasher
// is single-use: Finish and Key release it.
type Hasher struct {
	d   hash.Hash
	n   int // bytes pending in buf
	buf [512]byte
}

var hashers = sync.Pool{New: func() any { return &Hasher{d: sha256.New()} }}

// NewHasher returns an empty hasher.
func NewHasher() *Hasher {
	h := hashers.Get().(*Hasher)
	h.d.Reset()
	h.n = 0
	return h
}

// NewKeyHasher returns a hasher primed as NewKey primes one: with the kind
// and the format version. Adding NewKey's parts and calling Key yields the
// same key.
func NewKeyHasher(kind Kind) *Hasher {
	h := NewHasher()
	h.String(string(kind))
	h.uint64(FormatVersion)
	return h
}

// String adds a part.
func (h *Hasher) String(s string) {
	h.uint64(uint64(len(s)))
	for len(s) > 0 {
		if h.n == len(h.buf) {
			h.flush()
		}
		c := copy(h.buf[h.n:], s)
		h.n += c
		s = s[c:]
	}
}

// Bytes adds a part held as bytes; it hashes exactly as String(string(b)).
func (h *Hasher) Bytes(b []byte) {
	h.uint64(uint64(len(b)))
	if h.n+len(b) > len(h.buf) {
		h.flush()
		h.d.Write(b)
		return
	}
	h.n += copy(h.buf[h.n:], b)
}

func (h *Hasher) uint64(u uint64) {
	if len(h.buf)-h.n < 8 {
		h.flush()
	}
	binary.LittleEndian.PutUint64(h.buf[h.n:], u)
	h.n += 8
}

func (h *Hasher) flush() {
	h.d.Write(h.buf[:h.n])
	h.n = 0
}

// Finish appends the digest to dst and releases the hasher.
func (h *Hasher) Finish(dst []byte) []byte {
	h.flush()
	dst = append(dst, h.d.Sum(h.buf[:0])...)
	hashers.Put(h)
	return dst
}

// Key returns the digest as a Key and releases the hasher.
func (h *Hasher) Key() Key {
	var k Key
	h.Finish(k[:0])
	return k
}

// String renders the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Config configures a store.
type Config struct {
	// Dir is the disk tier's root directory; empty keeps the store
	// memory-only (the -cache-dir default).
	Dir string
	// Metrics receives artifact.* telemetry; nil disables instrumentation.
	Metrics *obs.Registry
	// ObjEntries caps the object tier (entries, not bytes); at the cap the
	// tier resets and the dropped entries count as evictions. Default 1<<13.
	ObjEntries int
}

// Store is one artifact store instance. All methods are safe for concurrent
// use and safe on a nil receiver (nil = caching off).
type Store struct {
	cfg Config
	reg *obs.Registry

	mu   sync.RWMutex
	objs map[mkey]any

	flightMu sync.Mutex
	flight   map[mkey]*flightCall

	disk disk
}

type mkey struct {
	kind Kind
	key  Key
}

// New builds a store. A non-empty cfg.Dir enables the disk tier lazily: the
// index is built on the first disk access and the store's segment is
// created on its first write. Any I/O failure downgrades the store to
// memory-only behavior (counted, never fatal).
func New(cfg Config) *Store {
	if cfg.ObjEntries <= 0 {
		cfg.ObjEntries = 1 << 13
	}
	s := &Store{
		cfg:    cfg,
		reg:    cfg.Metrics,
		objs:   map[mkey]any{},
		flight: map[mkey]*flightCall{},
	}
	if cfg.Dir != "" {
		s.disk.dir = filepath.Join(cfg.Dir, segDir)
	}
	return s
}

// hit/miss book one *logical* lookup: Get and Do's cache consult each count
// exactly once, which is what makes the counters usable as an invalidation
// oracle (mutate one input, expect exactly one recompute). Without a
// registry they return before building any counter name.
func (s *Store) hit(kind Kind, tier string) {
	if s.reg == nil {
		return
	}
	s.reg.Counter("artifact.hits").Inc()
	s.reg.Counter("artifact." + string(kind) + ".hits").Inc()
	s.reg.Counter("artifact." + tier + "_hits").Inc()
}

func (s *Store) miss(kind Kind) {
	if s.reg == nil {
		return
	}
	s.reg.Counter("artifact.misses").Inc()
	s.reg.Counter("artifact." + string(kind) + ".misses").Inc()
}

// Get returns the artifact for key: the object tier first, then the disk
// tier through decode, which runs once per disk hit; the decoded value is
// promoted to the object tier. Exactly one hit or one miss is counted per
// call.
func (s *Store) Get(kind Kind, k Key, decode func([]byte) (any, error)) (any, bool) {
	if s == nil {
		return nil, false
	}
	mk := mkey{kind, k}
	s.mu.RLock()
	v, ok := s.objs[mk]
	s.mu.RUnlock()
	if ok {
		s.hit(kind, "mem")
		return v, true
	}
	var payload []byte
	if s.cfg.Dir != "" {
		payload, ok = s.diskRead(mk)
	}
	if !ok {
		s.miss(kind)
		return nil, false
	}
	s.reg.Counter("artifact.bytes_read").Add(int64(len(payload)))
	v, err := decode(payload)
	if err != nil {
		// A record that fails to decode is as good as corrupt: count it and
		// miss.
		s.reg.Counter("artifact.corrupt").Inc()
		s.miss(kind)
		return nil, false
	}
	v, _ = s.capPut(mk, v, keepPrior)
	s.hit(kind, "disk")
	return v, true
}

// Put stores the artifact in the object tier and, when the store has a disk
// tier, appends its encoded record there. A memory-only store never
// encodes: after an object-tier reset a lookup misses and the caller
// recomputes the same artifact. An encode error skips the disk tier (the
// object tier still serves this process).
func (s *Store) Put(kind Kind, k Key, v any, encode func() ([]byte, error)) {
	s.PutUnless(kind, k, v, nil, encode)
}

// PutUnless is Put, except that an object already in the object tier under
// key stays when keep(prior) reports true; then nothing is stored or
// written. The check and the store are one atomic step, and the check counts
// no lookup. A nil keep always stores.
func (s *Store) PutUnless(kind Kind, k Key, v any, keep func(prior any) bool, encode func() ([]byte, error)) {
	if s == nil {
		return
	}
	mk := mkey{kind, k}
	if _, stored := s.capPut(mk, v, keep); !stored || s.cfg.Dir == "" {
		return
	}
	payload, err := encode()
	if err != nil {
		s.reg.Counter("artifact.encode_errors").Inc()
		return
	}
	if s.diskWrite(mk, payload) {
		s.reg.Counter("artifact.bytes_written").Add(int64(len(payload)))
	}
}

func keepPrior(any) bool { return true }

// capPut stores v in the object tier unless keep(prior) keeps the object
// already there. It returns the object the tier holds under mk and whether
// that is v. At the cap
// the tier resets first (the distcache eviction discipline: O(1)
// bookkeeping, dropped entries are recomputed or re-read on demand).
func (s *Store) capPut(mk mkey, v any, keep func(prior any) bool) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if prior, ok := s.objs[mk]; ok && keep != nil && keep(prior) {
		return prior, false
	}
	if len(s.objs) >= s.cfg.ObjEntries {
		s.reg.Counter("artifact.evictions").Add(int64(len(s.objs)))
		s.reg.Counter("artifact.eviction.resets").Inc()
		s.objs = map[mkey]any{}
	}
	s.objs[mk] = v
	s.reg.Gauge("artifact.objects").Set(int64(len(s.objs)))
	return v, true
}

// ---------------------------------------------------------------------------
// Per-key single-flight
// ---------------------------------------------------------------------------

type flightCall struct {
	done chan struct{}
	v    any
	err  error
	// finished distinguishes a normal completion from a leader that
	// panicked out of fn: waiters of an aborted call rerun fn themselves
	// rather than inheriting a zero result.
	finished bool
}

// Do runs fn under per-key single-flight: if another goroutine is already
// computing the same (kind, key), the call waits and shares that result
// instead of computing again. Sequential calls each run fn — fn is expected
// to consult the store first, so a second sequential call is a cache hit
// inside fn, not a duplicate compute. On a nil store Do is exactly fn().
//
// If the leader panics, the panic propagates from the leader's Do and
// waiters rerun fn themselves (correctness over dedup in the rare case).
func (s *Store) Do(kind Kind, k Key, fn func() (any, error)) (any, error) {
	if s == nil {
		return fn()
	}
	mk := mkey{kind, k}
	s.flightMu.Lock()
	if c, ok := s.flight[mk]; ok {
		s.flightMu.Unlock()
		s.reg.Counter("artifact.singleflight.shared").Inc()
		<-c.done
		if !c.finished {
			return fn()
		}
		return c.v, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	s.flight[mk] = c
	s.flightMu.Unlock()
	defer func() {
		s.flightMu.Lock()
		delete(s.flight, mk)
		s.flightMu.Unlock()
		close(c.done)
	}()
	v, err := fn()
	c.v, c.err, c.finished = v, err, true
	return v, err
}
