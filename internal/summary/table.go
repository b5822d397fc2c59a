package summary

import (
	"encoding/json"

	"repro/internal/artifact"
	"repro/internal/obs"
)

// Table is the shared summary table of one run, shared by every analyzer in
// the process (all changes of a mining run, all requests of a server). Its
// entries live in the object tier of an artifact store as KindSummary, so
// the store's ObjEntries cap bounds them like every other artifact, and a
// disk-backed store persists them so warm corpus re-runs skip helper
// re-analysis entirely. Entries are shared read-only across goroutines.
//
// The summary.* telemetry lives here so every consumer reports uniformly:
// hits/misses count table consultations, instantiations count summaries
// rebound into a new analyzer's object table, cycles counts recursive calls
// widened to Top by the cycle guard, unportable counts recordings dropped
// because they could not be rendered portably (under provenance: a chain
// reaching a node outside the call's inputs, or one cut by the depth cap).
type Table struct {
	store *artifact.Store

	hits           *obs.Counter
	misses         *obs.Counter
	instantiations *obs.Counter
	cycles         *obs.Counter
	unportable     *obs.Counter
}

// NewTable builds a summary table on store; a nil store gets a memory-only
// store of the table's own, without telemetry. It registers the summary.*
// counters eagerly on reg, so a metrics snapshot or Prometheus scrape
// carries the series even before the first lookup. A nil registry is valid
// (counters become no-ops).
func NewTable(store *artifact.Store, reg *obs.Registry) *Table {
	if store == nil {
		store = artifact.New(artifact.Config{})
	}
	return &Table{
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

// Lookup returns the entry for key from the store (a disk hit is promoted
// into the object tier). The returned entry is shared and must be treated
// as read-only.
func (t *Table) Lookup(key artifact.Key) *Entry {
	if t == nil {
		return nil
	}
	v, ok := t.store.Get(artifact.KindSummary, key, decodeEntry)
	if !ok {
		return nil
	}
	return v.(*Entry)
}

// Insert records a freshly recorded entry under key. The key pins the whole
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
	keep := func(prior any) bool { return len(prior.(*Entry).OuterGuard) == 0 || len(e.OuterGuard) > 0 }
	t.store.PutUnless(artifact.KindSummary, key, e, keep, func() ([]byte, error) { return json.Marshal(e) })
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
