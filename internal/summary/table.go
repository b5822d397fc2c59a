package summary

import (
	"encoding/json"
	"sync"

	"repro/internal/artifact"
	"repro/internal/obs"
)

// Table is the shared summary store of one run: an in-memory map shared by
// every analyzer in the process (all changes of a mining run, all requests
// of a server), with optional write-through persistence into an artifact
// store (KindSummary) so warm corpus re-runs skip helper re-analysis
// entirely. In-memory entries are shared read-only across goroutines; the
// map itself is guarded.
//
// The summary.* telemetry lives here so every consumer reports uniformly:
// hits/misses count table consultations, instantiations count summaries
// rebound into a new analyzer's object table, cycles counts recursive calls
// widened to Top by the cycle guard, unportable counts recordings dropped
// because they could not be rendered portably (under provenance: a chain
// reaching a node outside the call's inputs, or one cut by the depth cap).
type Table struct {
	mu    sync.RWMutex
	mem   map[artifact.Key]*Entry
	store *artifact.Store

	hits           *obs.Counter
	misses         *obs.Counter
	instantiations *obs.Counter
	cycles         *obs.Counter
	unportable     *obs.Counter
}

// NewTable builds a summary table backed by store (nil keeps summaries
// memory-only) and registers the summary.* counters eagerly on reg, so a
// metrics snapshot or Prometheus scrape carries the series even before the
// first lookup. A nil registry is valid (counters become no-ops).
func NewTable(store *artifact.Store, reg *obs.Registry) *Table {
	return &Table{
		mem:            map[artifact.Key]*Entry{},
		store:          store,
		hits:           reg.Counter("summary.hits"),
		misses:         reg.Counter("summary.misses"),
		instantiations: reg.Counter("summary.instantiations"),
		cycles:         reg.Counter("summary.cycles"),
		unportable:     reg.Counter("summary.unportable"),
	}
}

func decodeEntry(b []byte) (any, error) {
	var e Entry
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, err
	}
	return &e, nil
}

// Lookup returns the entry for key, consulting the in-memory map first and
// the artifact store second (a disk hit is promoted into the map). The
// returned entry is shared and must be treated as read-only.
func (t *Table) Lookup(key artifact.Key) *Entry {
	if t == nil {
		return nil
	}
	t.mu.RLock()
	e := t.mem[key]
	t.mu.RUnlock()
	if e != nil {
		return e
	}
	if t.store == nil {
		return nil
	}
	v, ok := t.store.Get(artifact.KindSummary, key, decodeEntry)
	if !ok {
		return nil
	}
	e = v.(*Entry)
	t.mu.Lock()
	if prior := t.mem[key]; prior != nil {
		e = prior
	} else {
		t.mem[key] = e
	}
	t.mu.Unlock()
	return e
}

// Insert records a freshly recorded entry under key and writes it through
// to the artifact store when one is attached. The key pins the whole
// program and abstract input but not the caller's inline stack, so entries
// with a non-empty OuterGuard are stack-context variants of the same key:
// concurrent inserts keep the first entry, except that a guard-free
// recording replaces a cycle-context one — the guard-free entry is valid
// under every caller, while the guarded one would leave the common
// no-cycle context a permanent miss.
func (t *Table) Insert(key artifact.Key, e *Entry) {
	if t == nil || e == nil {
		return
	}
	t.mu.Lock()
	if prior, ok := t.mem[key]; ok {
		if len(prior.OuterGuard) == 0 || len(e.OuterGuard) > 0 {
			t.mu.Unlock()
			return
		}
	}
	t.mem[key] = e
	t.mu.Unlock()
	if t.store != nil {
		t.store.Put(artifact.KindSummary, key, e, func() ([]byte, error) { return json.Marshal(e) })
	}
}

// Len reports the number of in-memory entries (tests and telemetry).
func (t *Table) Len() int {
	if t == nil {
		return 0
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.mem)
}

// Hit/Miss/Instantiation/Cycle/Unportable bump the summary.* telemetry;
// all are valid on a nil table (live execution without a table never
// reports).

func (t *Table) Hit() {
	if t != nil {
		t.hits.Inc()
	}
}

func (t *Table) Miss() {
	if t != nil {
		t.misses.Inc()
	}
}

func (t *Table) Instantiation() {
	if t != nil {
		t.instantiations.Inc()
	}
}

func (t *Table) Cycle() {
	if t != nil {
		t.cycles.Inc()
	}
}

func (t *Table) Unportable() {
	if t != nil {
		t.unportable.Inc()
	}
}
