package summary

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/artifact"
	"repro/internal/obs"
)

func testKey(parts ...string) artifact.Key {
	return artifact.NewKey(artifact.KindSummary, parts...)
}

func TestTableInsertLookup(t *testing.T) {
	tbl := NewTable(nil, nil)
	k := testKey("prog", "C", "0")
	if tbl.Lookup(k) != nil {
		t.Fatal("lookup on empty table returned an entry")
	}
	e := &Entry{Steps: 7, Ret: &PValue{Kind: 1, Payload: "AES"}}
	tbl.Insert(k, e)
	got := tbl.Lookup(k)
	if got != e {
		t.Fatalf("lookup = %v, want the inserted entry", got)
	}
}

func TestTableFirstInsertWins(t *testing.T) {
	tbl := NewTable(nil, nil)
	k := testKey("prog", "C", "0")
	first := &Entry{Steps: 1}
	second := &Entry{Steps: 2}
	tbl.Insert(k, first)
	tbl.Insert(k, second)
	if got := tbl.Lookup(k); got != first {
		t.Fatalf("lookup = %+v, want the first insert (steps=1)", got)
	}
}

// TestTableGuardFreeReplacesGuarded: the key excludes the caller's inline
// stack, so a cycle-context entry (non-empty OuterGuard) and a guard-free
// one can share a key. The guard-free entry must win regardless of insert
// order — otherwise the common no-cycle context re-records forever.
func TestTableGuardFreeReplacesGuarded(t *testing.T) {
	guarded := func(steps int64) *Entry {
		return &Entry{Steps: steps, OuterGuard: []PMethod{{Class: "C", Index: 0}}}
	}
	free := func(steps int64) *Entry { return &Entry{Steps: steps} }

	t.Run("guardFreeReplaces", func(t *testing.T) {
		tbl := NewTable(nil, nil)
		k := testKey("prog", "C", "0")
		g, f := guarded(1), free(2)
		tbl.Insert(k, g)
		tbl.Insert(k, f)
		if got := tbl.Lookup(k); got != f {
			t.Fatalf("lookup = %+v, want the guard-free replacement", got)
		}
	})
	t.Run("guardedNeverReplaces", func(t *testing.T) {
		tbl := NewTable(nil, nil)
		k := testKey("prog", "C", "0")
		f, g := free(1), guarded(2)
		tbl.Insert(k, f)
		tbl.Insert(k, g)
		if got := tbl.Lookup(k); got != f {
			t.Fatalf("lookup = %+v, want the original guard-free entry", got)
		}
	})
	t.Run("guardedKeepsFirst", func(t *testing.T) {
		tbl := NewTable(nil, nil)
		k := testKey("prog", "C", "0")
		g1, g2 := guarded(1), guarded(2)
		tbl.Insert(k, g1)
		tbl.Insert(k, g2)
		if got := tbl.Lookup(k); got != g1 {
			t.Fatalf("lookup = %+v, want the first guarded entry", got)
		}
	})
	t.Run("replacementWritesThrough", func(t *testing.T) {
		reg := obs.NewRegistry()
		store := artifact.New(artifact.Config{Dir: t.TempDir(), Metrics: reg})
		written := func() int64 { return reg.Counter("artifact.bytes_written").Value() }
		k := testKey("prog", "C", "0")
		NewTable(store, nil).Insert(k, guarded(1))
		warm := NewTable(store, nil)
		if got := warm.Lookup(k); got == nil || len(got.OuterGuard) != 1 {
			t.Fatalf("warm lookup = %+v, want the persisted guarded entry", got)
		}
		before := written()
		warm.Insert(k, free(2))
		got := NewTable(store, nil).Lookup(k)
		if got == nil || got.Steps != 2 || len(got.OuterGuard) != 0 {
			t.Fatalf("persisted entry = %+v, want the guard-free replacement (steps=2)", got)
		}
		if written() == before {
			t.Fatal("the replacement was not written to disk")
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		// However the inserts interleave, the guard-free entry ends up in the
		// table: the check and the store are one step.
		for round := 0; round < 50; round++ {
			tbl := NewTable(nil, nil)
			k := testKey("prog", "C", "0")
			f := free(0)
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					if i == 3 {
						tbl.Insert(k, f)
					} else {
						tbl.Insert(k, guarded(int64(i)))
					}
				}(i)
			}
			wg.Wait()
			if got := tbl.Lookup(k); got != f {
				t.Fatalf("round %d: lookup = %+v, want the guard-free entry", round, got)
			}
		}
	})
}

func TestTableNilSafety(t *testing.T) {
	var tbl *Table
	k := testKey("prog")
	if tbl.Lookup(k) != nil {
		t.Error("nil table lookup returned an entry")
	}
	tbl.Insert(k, &Entry{})
	if tbl.Lookup(k) != nil {
		t.Error("nil table kept an insert")
	}
	// Telemetry on a nil table must be a no-op, not a panic.
	tbl.Hit()
	tbl.Miss()
	tbl.Instantiation()
	tbl.Cycle()
}

func TestTableWriteThroughStore(t *testing.T) {
	dir := t.TempDir()
	store := artifact.New(artifact.Config{Dir: dir})
	k := testKey("prog", "C", "1")
	e := &Entry{
		Sites:  []PSite{{File: 0, Type: "Cipher"}},
		NAlloc: 1,
		Events: []PEvent{{Obj: 1, File: "C.java"}},
		Fields: map[string]PValue{"f": {Kind: 1, Payload: "AES"}},
		Steps:  42,
	}
	NewTable(store, nil).Insert(k, e)

	// A fresh table over a fresh store on the same directory must decode the
	// persisted entry.
	warm := NewTable(artifact.New(artifact.Config{Dir: dir}), nil)
	got := warm.Lookup(k)
	if got == nil {
		t.Fatal("persisted entry not found by a fresh table")
	}
	if got.Steps != 42 || got.NAlloc != 1 || len(got.Sites) != 1 || got.Sites[0].Type != "Cipher" {
		t.Fatalf("decoded entry = %+v, want the persisted one", got)
	}
	if got.Fields["f"].Payload != "AES" {
		t.Fatalf("decoded fields = %+v", got.Fields)
	}
	// The disk hit is promoted: a second lookup returns the same pointer.
	if again := warm.Lookup(k); again != got {
		t.Error("disk hit was not promoted into the object tier")
	}
}

// TestTableOnStoreObjectTier: a table keeps its entries in the store's
// object tier, Insert's own check counts no store lookup, and every Lookup
// counts exactly one.
func TestTableOnStoreObjectTier(t *testing.T) {
	reg := obs.NewRegistry()
	store := artifact.New(artifact.Config{Metrics: reg})
	tbl := NewTable(store, nil)
	k := testKey("prog", "C", "2")
	e := &Entry{Steps: 3}
	tbl.Insert(k, e)
	tbl.Insert(k, &Entry{Steps: 4})
	c := obs.TakeSnapshot(reg, false).Counters
	if c["artifact.hits"] != 0 || c["artifact.misses"] != 0 {
		t.Fatalf("Insert counted a store lookup: %v", c)
	}
	if v, ok := store.Get(artifact.KindSummary, k, decodeEntry); !ok || v != e {
		t.Fatalf("object tier holds %v, %v; want the first insert", v, ok)
	}
	tbl.Lookup(k)
	tbl.Lookup(testKey("absent"))
	c = obs.TakeSnapshot(reg, false).Counters
	if c["artifact.summary.hits"] != 2 || c["artifact.summary.misses"] != 1 {
		t.Fatalf("lookup accounting: %v", c)
	}
}

func TestCountersRegisteredEagerly(t *testing.T) {
	reg := obs.NewRegistry()
	NewTable(nil, reg)
	// The series must exist (at zero) before any lookup, so scrapes and
	// snapshots carry them from process start.
	var sb strings.Builder
	if err := obs.WriteProm(&sb, reg); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, series := range []string{
		"summary_hits_total 0",
		"summary_misses_total 0",
		"summary_instantiations_total 0",
		"summary_cycles_total 0",
	} {
		if !strings.Contains(out, series) {
			t.Errorf("prom exposition missing %q:\n%s", series, out)
		}
	}
}

func TestCountersCount(t *testing.T) {
	reg := obs.NewRegistry()
	tbl := NewTable(nil, reg)
	tbl.Hit()
	tbl.Hit()
	tbl.Miss()
	tbl.Instantiation()
	tbl.Cycle()
	for name, want := range map[string]int64{
		"summary.hits":           2,
		"summary.misses":         1,
		"summary.instantiations": 1,
		"summary.cycles":         1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
