// Package artifact is the content-addressed artifact store behind the
// incremental pipeline (-cache-dir): parsed ASTs, per-change analysis
// results, compiled rule sets, and check outcomes are stored under keys
// derived from their *inputs* — source content, rule-set identity, and an
// options fingerprint — so a warm run re-derives only what actually changed
// and a second request for the same snippet is a lookup, not an analysis.
//
// The store has three tiers:
//
//   - an object tier: decoded artifacts (shared read-only — *javaast
//     CompilationUnits, compiled rules) kept in memory, capped with
//     reset-on-cap eviction like the distcache shards;
//   - a byte tier: encoded payloads in memory, same cap discipline;
//   - an optional disk tier (Config.Dir): versioned, self-validating
//     entries in a 256-way sharded layout, written atomically.
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
	"io"
	"sync"

	"repro/internal/obs"
)

// Kind names one artifact class. The kind participates in key derivation
// (domain separation) and names the on-disk subdirectory.
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
	// KindRules: compiled rule sets (memory tiers only — compiled rules
	// hold closures, which no byte encoding can round-trip).
	KindRules Kind = "rules"
	// KindCheck: whole check outcomes (violations + witness traces), keyed
	// by sources, rule-set identity, rule context, and options.
	KindCheck Kind = "check"
	// KindManifest: per-project corpus manifests recorded at load time; a
	// warm hit means the project's content is byte-identical to a prior run.
	KindManifest Kind = "manifest"
	// KindSummary: memoized per-method summaries of the abstract
	// interpreter, keyed by the whole-program source fingerprint plus the
	// callee's identity, abstract arguments, heap/field context, and the
	// analysis options that shape execution. A warm hit replays the callee's
	// recorded effect instead of re-interpreting its body.
	KindSummary Kind = "summary"
)

// FormatVersion versions every entry (key derivation and disk format).
// Bumping it orphans all previously written artifacts — they become stale
// entries that read as misses, never as wrong answers.
const FormatVersion = 1

// Key is a content address: sha256 over the kind, the format version, and
// the caller's length-prefixed parts.
type Key [sha256.Size]byte

// NewKey derives the content address for an artifact from its inputs. Parts
// are length-prefixed before hashing, so ("ab","c") and ("a","bc") cannot
// collide, and the kind and format version are mixed in first.
func NewKey(kind Kind, parts ...string) Key {
	h := sha256.New()
	var lenBuf [8]byte
	write := func(s string) {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(s)))
		h.Write(lenBuf[:])
		io.WriteString(h, s)
	}
	write(string(kind))
	binary.LittleEndian.PutUint64(lenBuf[:], FormatVersion)
	h.Write(lenBuf[:])
	for _, p := range parts {
		write(p)
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// String renders the key as lowercase hex (the on-disk file name).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Config configures a store.
type Config struct {
	// Dir is the disk tier's root directory; empty keeps the store
	// memory-only (the -cache-dir default).
	Dir string
	// Metrics receives artifact.* telemetry; nil disables instrumentation.
	Metrics *obs.Registry
	// MemEntries caps the in-memory byte tier (entries, not bytes); at the
	// cap the tier resets and the dropped entries count as evictions.
	// Default 1<<14.
	MemEntries int
	// ObjEntries caps the decoded-object tier the same way. Default 1<<13.
	ObjEntries int
}

// Store is one artifact store instance. All methods are safe for concurrent
// use and safe on a nil receiver (nil = caching off).
type Store struct {
	cfg Config
	reg *obs.Registry

	mu    sync.RWMutex
	bytes map[mkey][]byte
	objs  map[mkey]any

	flightMu sync.Mutex
	flight   map[mkey]*flightCall
}

type mkey struct {
	kind Kind
	key  Key
}

// New builds a store. A non-empty cfg.Dir enables the disk tier lazily: the
// directory tree is created on first write, and any I/O failure downgrades
// the store to memory-only behavior for that entry (counted, never fatal).
func New(cfg Config) *Store {
	if cfg.MemEntries <= 0 {
		cfg.MemEntries = 1 << 14
	}
	if cfg.ObjEntries <= 0 {
		cfg.ObjEntries = 1 << 13
	}
	return &Store{
		cfg:    cfg,
		reg:    cfg.Metrics,
		bytes:  map[mkey][]byte{},
		objs:   map[mkey]any{},
		flight: map[mkey]*flightCall{},
	}
}

// Dir returns the disk tier's root ("" for a memory-only store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.cfg.Dir
}

// hit/miss book one *logical* lookup: Get, GetBytes, and Do's cache consult
// each count exactly once, which is what makes the counters usable as an
// invalidation oracle (mutate one input, expect exactly one recompute).
func (s *Store) hit(kind Kind, tier string) {
	s.reg.Counter("artifact.hits").Inc()
	s.reg.Counter("artifact." + string(kind) + ".hits").Inc()
	s.reg.Counter("artifact." + tier + "_hits").Inc()
}

func (s *Store) miss(kind Kind) {
	s.reg.Counter("artifact.misses").Inc()
	s.reg.Counter("artifact." + string(kind) + ".misses").Inc()
}

// Get returns the decoded artifact for key: object tier first, then the
// byte/disk tiers through decode (promoting the decoded value to the object
// tier on the way up). A nil decode restricts the lookup to the object tier
// (artifacts that cannot be serialized, like compiled rules). Exactly one
// hit or one miss is counted per call.
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
	if decode == nil {
		s.miss(kind)
		return nil, false
	}
	payload, tier, ok := s.getBytesUncounted(mk)
	if !ok {
		s.miss(kind)
		return nil, false
	}
	v, err := decode(payload)
	if err != nil {
		// A payload that fails to decode is as good as corrupt, whatever
		// tier it came from: count it and miss.
		s.reg.Counter("artifact.corrupt").Inc()
		s.miss(kind)
		return nil, false
	}
	capPut(s, &s.objs, s.cfg.ObjEntries, mk, v)
	s.hit(kind, tier)
	return v, true
}

// Put stores the decoded artifact, and — when encode is non-nil — its
// serialized payload in the byte and disk tiers. An encode error skips the
// byte tiers silently (the object tier still serves this process).
func (s *Store) Put(kind Kind, k Key, v any, encode func() ([]byte, error)) {
	if s == nil {
		return
	}
	mk := mkey{kind, k}
	capPut(s, &s.objs, s.cfg.ObjEntries, mk, v)
	if encode == nil {
		return
	}
	payload, err := encode()
	if err != nil {
		s.reg.Counter("artifact.encode_errors").Inc()
		return
	}
	s.putBytes(mk, payload)
}

// GetBytes returns the raw payload for key from the byte or disk tier,
// counting one hit or miss.
func (s *Store) GetBytes(kind Kind, k Key) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	payload, tier, ok := s.getBytesUncounted(mkey{kind, k})
	if !ok {
		s.miss(kind)
		return nil, false
	}
	s.hit(kind, tier)
	return payload, true
}

// PutBytes stores a raw payload in the byte and disk tiers.
func (s *Store) PutBytes(kind Kind, k Key, payload []byte) {
	if s == nil {
		return
	}
	s.putBytes(mkey{kind, k}, payload)
}

// getBytesUncounted consults the in-memory byte tier, then the disk tier
// (promoting a disk hit into memory). It reports which tier answered and
// performs no hit/miss accounting — callers count the logical lookup.
func (s *Store) getBytesUncounted(mk mkey) (payload []byte, tier string, ok bool) {
	s.mu.RLock()
	payload, ok = s.bytes[mk]
	s.mu.RUnlock()
	if ok {
		return payload, "mem", true
	}
	if s.cfg.Dir == "" {
		return nil, "", false
	}
	payload, ok = s.diskRead(mk)
	if !ok {
		return nil, "", false
	}
	s.reg.Counter("artifact.bytes_read").Add(int64(len(payload)))
	capPut(s, &s.bytes, s.cfg.MemEntries, mk, payload)
	return payload, "disk", true
}

func (s *Store) putBytes(mk mkey, payload []byte) {
	capPut(s, &s.bytes, s.cfg.MemEntries, mk, payload)
	if s.cfg.Dir != "" {
		if s.diskWrite(mk, payload) {
			s.reg.Counter("artifact.bytes_written").Add(int64(len(payload)))
		}
	}
}

// capPut inserts into one in-memory tier, resetting it at the cap (the
// distcache eviction discipline: O(1) bookkeeping, dropped entries are
// recomputed or re-read on demand).
func capPut[V any](s *Store, tier *map[mkey]V, limit int, mk mkey, v V) {
	s.mu.Lock()
	if len(*tier) >= limit {
		s.reg.Counter("artifact.evictions").Add(int64(len(*tier)))
		s.reg.Counter("artifact.eviction.resets").Inc()
		*tier = map[mkey]V{}
	}
	(*tier)[mk] = v
	s.mu.Unlock()
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
