// Package summary implements memoized per-method summaries for the abstract
// interpreter (DESIGN.md §14) — the ROADMAP's "summary-based interprocedural
// analysis" item.
//
// The paper's §5.1 interpreter inlines every callee body at every call site,
// in every branch fork, for every change, and gives up past depth 4. A
// summary captures one such execution as a reusable, *portable* effect
// triple — the return abstraction, the field/heap post-state, and the
// ordered crypto-API events the callee attempted — keyed by everything the
// execution could have observed:
//
//	(program fingerprint, class, method index,
//	 abstract-argument fingerprint, field/heap-context fingerprint,
//	 analysis-options fingerprint)
//
// The program fingerprint covers every source file of the analyzed program,
// which is the load-bearing design decision: a looked-up entry is by
// construction a faithful log of a deterministic execution of byte-identical
// input, so replay is exact without any class-level dependency tracking.
// Keys exclude the caller's locals (forks that differ only in locals share
// one summary — the hot-loop win) and exclude the inlining depth (a summary
// is depth-independent: reach is bounded by cycle detection, not depth).
//
// Entries are portable: abstract objects are referenced by allocation site
// (file index + byte offset), methods by (class name, declaration index),
// and values by (kind, payload, type, site). Instantiation rebinds those
// references against the consuming analyzer's own object table, replaying
// allocations, event attempts, and step cost as if the callee had run.
// The same portable form serves three tiers — within-analyzer memoization,
// cross-change sharing inside a mining run (duplicate snapshots are common
// in the corpus), and disk persistence for warm re-runs. A Table keeps its
// entries in an internal/artifact store as the `summary` kind, so the
// store's object-tier cap bounds them and its disk tier persists them.
package summary

import (
	"repro/internal/cryptoapi"
	"repro/internal/javatok"
)

// PValue is a portable abstract value: Kind/Payload/Type mirror
// absdom.Value, and object references are by allocation-site index into the
// owning Entry's Sites table (1-based; 0 means no object). Prov is the
// value's provenance as a template reference (see PProv); it is 0 in every
// entry recorded with provenance off.
type PValue struct {
	Kind    int    `json:"k"`
	Payload string `json:"p,omitempty"`
	Type    string `json:"t,omitempty"`
	Obj     int    `json:"o,omitempty"`
	Prov    int    `json:"pv,omitempty"`
}

// PProv is one node of an entry's provenance template: an absdom.Prov with
// its file as a 1-based index into the program's sorted file list (0 for
// none) and its predecessors as template references. A reference r is nil
// when 0, the template node Entry.Prov[r-1] when positive (always an
// earlier node: the template is in topological order), and the caller's
// input slot -r-1 when negative. Input slots number the provenance of the
// call's inputs — the arguments, then the fields, then the heap fields, in
// summary-key order. Replay creates each node afresh on top of the
// caller's input provenance, so the depth cap applies as it would live.
type PProv struct {
	Kind int    `json:"k"`
	File int    `json:"f,omitempty"`
	Line int32  `json:"l,omitempty"`
	Col  int32  `json:"c,omitempty"`
	Pre  string `json:"pre,omitempty"`
	Mid  string `json:"mid,omitempty"`
	Suf  string `json:"suf,omitempty"`
	N1   string `json:"n1,omitempty"`
	N2   string `json:"n2,omitempty"`
	P0   int    `json:"p0,omitempty"`
	P1   int    `json:"p1,omitempty"`
}

// PSite is a portable allocation site: the file index within the program's
// sorted file list plus the site's source position, and the abstract
// object's type. Because the program fingerprint pins every file's content,
// (file, offset) names the same allocation across runs.
type PSite struct {
	File int         `json:"f"`
	Pos  javatok.Pos `json:"pos"`
	Type string      `json:"t"`
}

// PEvent is one recorded crypto-API event *attempt* in callee order. The
// log is pre-deduplication on purpose: an attempt that was a duplicate when
// recorded can be the first observation in a different replay context, so
// replay re-issues every attempt and lets the analyzer's own dedup decide.
type PEvent struct {
	Obj  int                 `json:"obj"` // receiver: 1-based Sites index
	Sig  cryptoapi.MethodSig `json:"sig"`
	Args []PValue            `json:"args,omitempty"`
	File string              `json:"file"`
	Pos  javatok.Pos         `json:"pos"`
}

// PMethod names a method declaration portably: the declaring class and the
// index of the declaration within that class's method list.
type PMethod struct {
	Class string `json:"c"`
	Index int    `json:"i"`
}

// PHeapObj is the recorded post-state of one abstract object's fields.
type PHeapObj struct {
	Obj    int               `json:"obj"`
	Fields map[string]PValue `json:"fields"`
}

// Entry is one memoized callee execution. Sites[:NAlloc] are the abstract
// objects the callee allocated, in first-touch order (replay re-allocates
// them); Sites[NAlloc:] are pre-existing objects the entry references (replay
// resolves them and falls back to live execution if any is missing).
type Entry struct {
	Sites  []PSite `json:"sites,omitempty"`
	NAlloc int     `json:"nalloc,omitempty"`
	// Events is the ordered pre-dedup crypto-API attempt log.
	Events []PEvent `json:"events,omitempty"`
	// Executed lists every method the callee (transitively) executed. A
	// replay marks them executed; validity requires none is currently on the
	// caller's inline stack (the recording saw them as fresh frames).
	Executed []PMethod `json:"exec,omitempty"`
	// OuterGuard lists methods whose presence on the inline stack *outside*
	// the recorded frame shaped the execution (a recursive call hit the
	// cycle guard against them). The entry is valid only under callers that
	// still have every one of them on the stack.
	OuterGuard []PMethod `json:"outer,omitempty"`
	// Fields/Heap are the callee's full field and heap post-state; replay
	// installs them wholesale (the context fingerprint covers the full
	// pre-state, so the post-state is a function of the key).
	Fields map[string]PValue `json:"fields,omitempty"`
	Heap   []PHeapObj        `json:"heap,omitempty"`
	// Ret is the portable return abstraction (nil for an invalid value).
	Ret *PValue `json:"ret,omitempty"`
	// Steps is the interpreter step cost of the recorded execution; replay
	// bulk-charges it against the run's budget.
	Steps int64 `json:"steps"`
	// Prov is the provenance template the values above reference, and NIn
	// the number of input slots the key's call has. Both are empty in
	// entries recorded with provenance off.
	Prov []PProv `json:"prov,omitempty"`
	NIn  int     `json:"nin,omitempty"`
}
