package analysis

// Summary-based interprocedural analysis (DESIGN.md §14). With a summary
// table attached (Options.Summaries), inlineCall consults memoized
// per-method summaries before executing a callee. A summary captures one
// callee execution as a portable effect triple — return abstraction,
// field/heap post-state, ordered crypto-API event attempts — keyed by
// everything the execution could observe: the whole-program source
// fingerprint, the callee's identity, the abstract arguments, the
// field/heap context, and the execution-shaping options (MaxStates). The
// caller's locals are deliberately outside the key: branch forks that
// differ only in locals share one summary, which is where the re-inlining
// tax is paid today.
//
// Exactness argument: the key pins the program bytes and the full abstract
// input, and the interpreter is deterministic, so a recorded entry is a
// faithful log of exactly the execution a live call would perform. Replay
// re-runs the log through the same primitives the live interpreter uses
// (allocObjAt, record, markExecuted, stepN), so analyzer-global effects —
// allocation order, event attempt order, executed marks, step cost — land
// as if the callee had run, and nested recordings observe replays exactly
// as they observe live execution. Two divergences are accepted. First, step
// accounting around the static-field constant cache: a replay charges the
// recorded cost while a live re-call would hit the warm cache, which can
// shift budget-exhaustion boundaries (never results) under -budget. Second,
// the maxLiftedInline backstop: a replay does not consume inline-stack
// depth, so within maxLiftedInline frames of the backstop a warm hit can
// stand in for a call that a cold run would have widened to Top — reachable
// only on degenerate programs whose distinct-method call chains exceed 512
// frames (depth is deliberately outside the key; putting it in would
// fragment the table per call depth).
//
// Provenance (Options.Provenance) memoizes too. Its entries are keyed
// apart (",prov" in the options fingerprint, plus the shape of the inputs'
// provenance) and carry a provenance template: every chain an output value
// holds, as nodes the recording created on top of input slots. Replay
// creates the template's nodes afresh over the caller's inputs, so chain
// identity, depth cuts and witness text equal a live run's. A recording
// whose chains reach anything else — a cached cross-class constant, a chain
// the depth cap cut — is dropped as unportable and that call stays live.
//
// Cycle policy (shared with live execution): a recursive call (direct or
// through a SCC) widens to the callee's ⊤ return, which is a post-fixpoint
// of the recursive equation, so convergence is immediate. A recording whose execution hit
// the guard against a method *outside* its own frame records that method as
// an OuterGuard: the entry is replayed only under callers that still have
// it on the stack (and, dually, never while any method the recording
// executed as a fresh frame is on the stack).

import (
	"cmp"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/absdom"
	"repro/internal/artifact"
	"repro/internal/javaast"
	"repro/internal/summary"
)

// maxLiftedInline is the backstop inlining bound. Cycle detection already
// bounds the stack by the number of distinct methods;
// this only guards degenerate programs with thousands of distinct nested
// calls (the step budget remains the real safety valve).
const maxLiftedInline = 512

// recEvent is one teed pre-dedup event attempt.
type recEvent struct {
	obj *absdom.AObj
	ev  Event
}

// recActive is an in-flight summary recording. The analyzer's tee points
// (allocObjAt, record, markExecuted, noteCycle, the steps counter) feed
// every active recording, so nested recordings and nested replays compose
// without special cases.
type recActive struct {
	startIdx   int // inline stack depth when the recording began
	startSteps int64
	provSeq    uint32 // arena stamp when the recording began
	unportable bool   // read the static-field constant cache under provenance
	allocs     []*absdom.AObj
	events     []recEvent
	executed   []*javaast.MethodDecl
	executedIn map[*javaast.MethodDecl]bool
	outer      []*javaast.MethodDecl
	outerIn    map[*javaast.MethodDecl]bool
}

// resolvedSum is a summary entry rebound against this analyzer: methods and
// pre-existing objects resolved eagerly (side-effect free, so a validity
// miss costs nothing), values and events materialized on first apply.
type resolvedSum struct {
	entry   *summary.Entry
	execMs  []*javaast.MethodDecl
	outer   []*javaast.MethodDecl
	refObjs []*absdom.AObj       // Sites[NAlloc:], resolved
	shapes  []*absdom.LabelShape // label shape of each Prov template node

	// fields is the recorded this-field post-state by slot, resolved
	// eagerly; the values are materialized with the rest.
	fields []sumField

	materialized bool
	objs         []*absdom.AObj
	events       []recEvent
	heap         map[*absdom.AObj]map[string]absdom.Value
	ret          absdom.Value
}

// sumField is one recorded this-field: its slot here, its portable value,
// and that value materialized.
type sumField struct {
	slot int
	pv   summary.PValue
	v    absdom.Value
}

// markExecuted marks a method executed and tees the mark into in-flight
// recordings (replays must reproduce it — the run() sweep phase skips
// executed methods).
func (an *analyzer) markExecuted(m *javaast.MethodDecl) {
	if an.executed == nil {
		an.executed = map[*javaast.MethodDecl]bool{}
	}
	an.executed[m] = true
	for _, r := range an.recs {
		if !r.executedIn[m] {
			r.executedIn[m] = true
			r.executed = append(r.executed, m)
		}
	}
}

// noteCycle records that a call to m hit the recursion guard: summary.cycles
// telemetry, plus an OuterGuard mark on every recording that began after m
// was pushed (the widening depended on stack context outside that frame).
func (an *analyzer) noteCycle(stackIdx int, m *javaast.MethodDecl) {
	an.sums.Cycle()
	for _, r := range an.recs {
		if stackIdx < r.startIdx && !r.outerIn[m] {
			r.outerIn[m] = true
			r.outer = append(r.outer, m)
		}
	}
}

// inlineMemo is inlineCall's summaries path: consult the table, replay on a
// valid hit, otherwise execute live under a fresh recording and memoize the
// result.
func (an *analyzer) inlineMemo(ci *classInfo, m *javaast.MethodDecl, args []absdom.Value, st *absdom.State) absdom.Value {
	key, ins, ok := an.summaryKey(ci, m, args, st)
	if !ok {
		return an.inlineLive(ci, m, args, st)
	}
	if an.keyLog != nil {
		an.keyLog(key)
	}
	if rs := an.lookupSummary(key, len(ins)); rs != nil && an.summaryValid(rs) {
		an.sums.Hit()
		return an.applySummary(rs, ins, st)
	}
	an.sums.Miss()
	rec := &recActive{
		startIdx:   len(an.inlineStack),
		startSteps: an.steps,
		provSeq:    an.provArena.Seq(),
		executedIn: map[*javaast.MethodDecl]bool{},
		outerIn:    map[*javaast.MethodDecl]bool{},
	}
	an.recs = append(an.recs, rec)
	ret := an.inlineLive(ci, m, args, st)
	// On a budget panic the unwind abandons the partial recording with the
	// analyzer — entries are only ever inserted for completed executions.
	an.recs = an.recs[:len(an.recs)-1]
	an.finishRecording(rec, key, ins, ret, st)
	return ret
}

// summaryKey renders the memoization key for calling m with args under st's
// field/heap context. ok is false when the call cannot be keyed portably
// (a method not reachable through the class index) — such calls fall back
// to live execution. Fields render in key order (fieldsByKey).
// Under provenance, ins lists every input's provenance in key order (the
// slots templates reference), and the key ends with their shape: which are
// nil, which alias.
//
// The key hashes the parts (SourceFP, class, method index, args, context,
// options) of artifact.NewKey. The args and context parts are rendered into
// the analyzer's one key buffer, with reused sort scratch, and hashed from
// it without becoming strings.
func (an *analyzer) summaryKey(ci *classInfo, m *javaast.MethodDecl, args []absdom.Value, st *absdom.State) (key artifact.Key, ins []*absdom.Prov, ok bool) {
	pm, ok := an.methodPRef(m)
	if !ok {
		return artifact.Key{}, nil, false
	}
	ks := &an.keyMem
	b, fs, names, hs := ks.buf[:0], ks.fields, ks.names[:0], ks.heap[:0]
	defer func() { ks.buf, ks.fields, ks.names, ks.heap = b, fs, names, hs }()
	input := func(v absdom.Value) {
		if an.provOn {
			ins = append(ins, v.Prov)
		}
		b = renderValue(b, v)
	}
	for _, a := range args {
		input(a)
		b = append(b, 0x1e)
	}
	argsEnd := len(b)

	fs = an.fieldsByKey(fs[:0], st)
	for _, f := range fs {
		b = append(b, an.fieldKey(f.Slot)...)
		b = append(b, 0x1f)
		input(f.Value)
		b = append(b, 0x1e)
	}
	b = append(b, 0x1d)
	for o := range st.Heap {
		hs = append(hs, o)
	}
	slices.SortFunc(hs, bySite)
	for _, o := range hs {
		b = append(b, '@')
		b = strconv.AppendInt(b, int64(o.File), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(o.Site.Offset), 10)
		b = append(b, 0x1f)
		fields := st.Heap[o]
		names = names[:0]
		for k := range fields {
			names = append(names, k)
		}
		slices.Sort(names)
		for _, k := range names {
			b = append(b, k...)
			b = append(b, 0x1f)
			input(fields[k])
			b = append(b, 0x1e)
		}
		b = append(b, 0x1d)
	}
	if an.provOn {
		b = append(b, 0x1c)
		for _, p := range ins {
			if p == nil {
				b = append(b, '-')
			} else {
				b = strconv.AppendInt(b, int64(firstSlot(ins, p)), 10)
			}
			b = append(b, ',')
		}
	}
	h := artifact.NewKeyHasher(artifact.KindSummary)
	h.String(an.prog.SourceFP)
	h.String(pm.Class)
	h.String(strconv.Itoa(pm.Index))
	h.Bytes(b[:argsEnd])
	h.Bytes(b[argsEnd:])
	h.String(an.sumOptsFP)
	return h.Key(), ins, true
}

// keyScratch is summaryKey's reusable memory: the key buffer the args and
// context parts render into, and the sort buffers for this-fields, heap
// field names and heap objects.
type keyScratch struct {
	buf    []byte
	fields []*absdom.Field
	names  []string
	heap   []*absdom.AObj
}

// fieldsByKey appends st's bound this-fields to fs in "Class.field" key
// order, the order summary keys and entries list them in.
func (an *analyzer) fieldsByKey(fs []*absdom.Field, st *absdom.State) []*absdom.Field {
	for i := range st.Fields {
		fs = append(fs, &st.Fields[i])
	}
	slices.SortFunc(fs, func(x, y *absdom.Field) int { return strings.Compare(an.fieldKey(x.Slot), an.fieldKey(y.Slot)) })
	return fs
}

// bySite orders abstract objects by allocation site, as summary keys and
// entries list heap objects.
func bySite(x, y *absdom.AObj) int {
	if x.File != y.File {
		return cmp.Compare(x.File, y.File)
	}
	return cmp.Compare(x.Site.Offset, y.Site.Offset)
}

// firstSlot returns the index of p's first occurrence in ins (-1 if none):
// the input slot templates name p's alias class by.
func firstSlot(ins []*absdom.Prov, p *absdom.Prov) int {
	for i, q := range ins {
		if q == p {
			return i
		}
	}
	return -1
}

// renderValue appends a value's unambiguous fingerprint form (payloads are
// length-prefixed; objects render as their allocation site) to b.
// Provenance is excluded: its shape is keyed once per call by summaryKey.
func renderValue(b []byte, v absdom.Value) []byte {
	b = strconv.AppendInt(b, int64(v.Kind), 10)
	b = append(b, 0x1f)
	b = strconv.AppendInt(b, int64(len(v.Payload)), 10)
	b = append(b, ':')
	b = append(b, v.Payload...)
	b = append(b, 0x1f)
	b = append(b, v.Type...)
	if v.Kind == absdom.KObj {
		b = append(b, 0x1f, '@')
		b = strconv.AppendInt(b, int64(v.Obj.File), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(v.Obj.Site.Offset), 10)
	}
	return b
}

// methodPRef names a method portably: (declaring class name, index in its
// declaration list), built lazily from the class index.
func (an *analyzer) methodPRef(m *javaast.MethodDecl) (summary.PMethod, bool) {
	if an.methodRef == nil {
		an.methodRef = map[*javaast.MethodDecl]summary.PMethod{}
		for name, ci := range an.classes {
			for i, md := range ci.decl.Methods {
				an.methodRef[md] = summary.PMethod{Class: name, Index: i}
			}
		}
	}
	pm, ok := an.methodRef[m]
	return pm, ok
}

func (an *analyzer) resolveMethod(pm summary.PMethod) *javaast.MethodDecl {
	ci := an.classes[pm.Class]
	if ci == nil || pm.Index < 0 || pm.Index >= len(ci.decl.Methods) {
		return nil
	}
	return ci.decl.Methods[pm.Index]
}

// lookupSummary fetches and rebinds the entry for key, caching the resolved
// form per analyzer. The cache is keyed by the entry itself, not the lookup
// key: the table may replace a cycle-context entry with a guard-free
// recording under the same key, and the replacement must be picked up here
// rather than shadowed by a stale resolution. Resolution is side-effect
// free; an entry whose referenced sites or methods don't resolve here, or
// whose template does not fit the call's nIn input slots, reads as a miss.
func (an *analyzer) lookupSummary(key artifact.Key, nIn int) *resolvedSum {
	e := an.sums.Lookup(key)
	if e == nil {
		return nil
	}
	if rs, ok := an.localSums[e]; ok {
		return rs
	}
	rs := an.resolveSummary(e, nIn)
	if rs == nil {
		return nil
	}
	an.localSums[e] = rs
	an.sums.Instantiation()
	return rs
}

// resolveSummary rebinds an entry's method and pre-existing-object
// references against this analyzer and validates the entry's internal
// indices against itself and the call's nIn input slots (a malformed disk
// artifact reads as a miss, never a panic or a loop).
func (an *analyzer) resolveSummary(e *summary.Entry, nIn int) *resolvedSum {
	if e.Steps < 0 || e.NAlloc < 0 || e.NAlloc > len(e.Sites) || e.NIn != nIn ||
		(!an.provOn && len(e.Prov) > 0) {
		return nil
	}
	// A provenance reference must name an input slot or a template node
	// below limit — for a node's predecessors, a node before it.
	okRef := func(r, limit int) bool { return -r <= e.NIn && r <= limit }
	var shapes []*absdom.LabelShape
	for i, pp := range e.Prov {
		if !okRef(pp.P0, i) || !okRef(pp.P1, i) || pp.File < 0 || pp.File > len(an.prog.Files) {
			return nil
		}
		var sh *absdom.LabelShape
		if pp.Pre != "" || pp.Mid != "" || pp.Suf != "" {
			sh = &absdom.LabelShape{Pre: pp.Pre, Mid: pp.Mid, Suf: pp.Suf}
		}
		shapes = append(shapes, sh)
	}
	okIdx := func(i int) bool { return i >= 1 && i <= len(e.Sites) }
	okVal := func(pv summary.PValue) bool {
		return (pv.Obj == 0 || okIdx(pv.Obj)) && okRef(pv.Prov, len(e.Prov))
	}
	for _, pe := range e.Events {
		if !okIdx(pe.Obj) {
			return nil
		}
		for _, pa := range pe.Args {
			if !okVal(pa) {
				return nil
			}
		}
	}
	var fields []sumField
	for k, pv := range e.Fields {
		slot, ok := an.fieldSlot(k)
		if !ok || !okVal(pv) {
			return nil
		}
		fields = append(fields, sumField{slot: slot, pv: pv})
	}
	for _, h := range e.Heap {
		if !okIdx(h.Obj) {
			return nil
		}
		for _, pv := range h.Fields {
			if !okVal(pv) {
				return nil
			}
		}
	}
	if e.Ret != nil && !okVal(*e.Ret) {
		return nil
	}
	rs := &resolvedSum{entry: e, shapes: shapes, fields: fields}
	for _, pm := range e.Executed {
		m := an.resolveMethod(pm)
		if m == nil {
			return nil
		}
		rs.execMs = append(rs.execMs, m)
	}
	for _, pm := range e.OuterGuard {
		m := an.resolveMethod(pm)
		if m == nil {
			return nil
		}
		rs.outer = append(rs.outer, m)
	}
	for _, s := range e.Sites[e.NAlloc:] {
		o := an.sites[siteKey{file: s.File, offset: s.Pos.Offset}]
		if o == nil {
			return nil
		}
		rs.refObjs = append(rs.refObjs, o)
	}
	return rs
}

func (an *analyzer) onStack(m *javaast.MethodDecl) bool {
	for _, on := range an.inlineStack {
		if on == m {
			return true
		}
	}
	return false
}

// summaryValid checks the entry against the current inline stack: every
// OuterGuard method must still be on it (the recorded widening re-applies),
// and no method the recording executed as a fresh frame may be on it (live
// execution would widen where the recording recursed).
func (an *analyzer) summaryValid(rs *resolvedSum) bool {
	for _, m := range rs.outer {
		if !an.onStack(m) {
			return false
		}
	}
	for _, m := range rs.execMs {
		if an.onStack(m) {
			return false
		}
	}
	return true
}

// applySummary replays a resolved entry: bulk-charge the recorded step
// cost, re-run the allocation and event-attempt logs through the live
// primitives (which tee into any outer recording), mark executed methods,
// install the recorded field/heap post-state, and return the recorded
// return abstraction. Under provenance every value then takes its chain
// from the template, instantiated afresh on top of the caller's inputs ins.
func (an *analyzer) applySummary(rs *resolvedSum, ins []*absdom.Prov, st *absdom.State) absdom.Value {
	e := rs.entry
	an.stepN(e.Steps)
	// The entry's outer guards replay too: a live execution here would hit
	// the recursion guard against each of them, so every in-flight recording
	// that began after the guard method was pushed must inherit the mark —
	// otherwise an enclosing summary would be memoized guard-free and later
	// replay its embedded widening under callers without the cycle.
	// summaryValid guarantees each guard is on the stack.
	for _, m := range rs.outer {
		for i, on := range an.inlineStack {
			if on == m {
				an.noteCycle(i, m)
				break
			}
		}
	}
	if !rs.materialized {
		an.materializeSummary(rs)
	} else {
		for i := 0; i < e.NAlloc; i++ {
			s := e.Sites[i]
			an.allocObjAt(s.File, s.Pos, s.Type)
		}
	}
	var env provEnv
	if an.provOn {
		env = an.instantiateProv(rs, ins)
	}
	for i, re := range rs.events {
		if an.provOn && len(re.ev.Args) > 0 {
			args := make([]absdom.Value, len(re.ev.Args)) // the resolved log is shared
			for j, a := range re.ev.Args {
				args[j] = a.WithProv(env.at(e.Events[i].Args[j].Prov))
			}
			re.ev.Args = args
		}
		an.record(re.obj, re.ev)
	}
	for _, m := range rs.execMs {
		an.markExecuted(m)
	}
	// A state owns its fields and heap maps (Clone copies them), so the
	// recorded post-state is copied into them in place.
	st.Fields = st.Fields[:0]
	for _, f := range rs.fields {
		v := f.v
		if an.provOn && f.pv.Prov != 0 {
			v.Prov = env.at(f.pv.Prov)
		}
		st.SetField(f.slot, v)
	}
	clear(st.Heap)
	if len(rs.heap) > 0 && st.Heap == nil {
		st.Heap = make(map[*absdom.AObj]map[string]absdom.Value, len(rs.heap))
	}
	for o, fs := range rs.heap {
		st.Heap[o] = maps.Clone(fs)
	}
	ret := rs.ret
	if an.provOn {
		for _, h := range e.Heap {
			env.patch(st.Heap[rs.objs[h.Obj-1]], h.Fields)
		}
		if e.Ret != nil {
			ret.Prov = env.at(e.Ret.Prov)
		}
	}
	return ret
}

// provEnv resolves template references during one replay: nodes are the
// template's fresh instances, ins the caller's input provenance.
type provEnv struct{ nodes, ins []*absdom.Prov }

// instantiateProv creates the template's nodes afresh through the arena,
// where initProv cuts them at MaxProvDepth exactly as live execution would.
func (an *analyzer) instantiateProv(rs *resolvedSum, ins []*absdom.Prov) provEnv {
	env := provEnv{nodes: make([]*absdom.Prov, len(rs.entry.Prov)), ins: ins}
	for i, pp := range rs.entry.Prov {
		var file *string
		if pp.File > 0 {
			file = &an.prog.Files[pp.File-1].Name
		}
		env.nodes[i] = an.provArena.NewShape(absdom.ProvKind(pp.Kind), file, int(pp.Line), int(pp.Col),
			rs.shapes[i], pp.N1, pp.N2, env.at(pp.P0), env.at(pp.P1))
	}
	return env
}

func (env provEnv) at(r int) *absdom.Prov {
	switch {
	case r > 0:
		return env.nodes[r-1]
	case r < 0:
		return env.ins[-r-1]
	}
	return nil
}

// patch sets the provenance of every value in m that pvs references.
func (env provEnv) patch(m map[string]absdom.Value, pvs map[string]summary.PValue) {
	for k, pv := range pvs {
		if pv.Prov != 0 {
			m[k] = m[k].WithProv(env.at(pv.Prov))
		}
	}
}

// materializeSummary fills the resolved entry's value templates, allocating
// the recorded first-touch sites in order (idempotent on later applies).
func (an *analyzer) materializeSummary(rs *resolvedSum) {
	e := rs.entry
	rs.objs = make([]*absdom.AObj, len(e.Sites))
	for i := 0; i < e.NAlloc; i++ {
		s := e.Sites[i]
		rs.objs[i] = an.allocObjAt(s.File, s.Pos, s.Type)
	}
	copy(rs.objs[e.NAlloc:], rs.refObjs)
	for _, pe := range e.Events {
		ev := Event{Sig: pe.Sig, File: pe.File, Pos: pe.Pos}
		if len(pe.Args) > 0 {
			ev.Args = make([]absdom.Value, len(pe.Args))
			for i, pa := range pe.Args {
				ev.Args[i] = rs.value(pa)
			}
		}
		rs.events = append(rs.events, recEvent{obj: rs.objs[pe.Obj-1], ev: ev})
	}
	for i := range rs.fields {
		rs.fields[i].v = rs.value(rs.fields[i].pv)
	}
	if len(e.Heap) > 0 {
		rs.heap = make(map[*absdom.AObj]map[string]absdom.Value, len(e.Heap))
		for _, h := range e.Heap {
			fm := make(map[string]absdom.Value, len(h.Fields))
			for k, pv := range h.Fields {
				fm[k] = rs.value(pv)
			}
			rs.heap[rs.objs[h.Obj-1]] = fm
		}
	}
	if e.Ret != nil {
		rs.ret = rs.value(*e.Ret)
	}
	rs.materialized = true
}

func (rs *resolvedSum) value(pv summary.PValue) absdom.Value {
	v := absdom.Value{Kind: absdom.Kind(pv.Kind), Payload: pv.Payload, Type: pv.Type}
	if pv.Obj > 0 {
		v.Obj = rs.objs[pv.Obj-1]
	}
	return v
}

// entryBuilder renders a completed recording into a portable entry. ok
// drops to false if anything cannot be named portably (the entry is then
// simply not memoized).
type entryBuilder struct {
	an  *analyzer
	e   *summary.Entry
	idx map[*absdom.AObj]int // 1-based site indices
	ok  bool
	// Under provenance: the recording's arena stamp and the template
	// reference of every chain rendered so far, seeded with the input slots.
	provSeq uint32
	refs    map[*absdom.Prov]int
}

func (b *entryBuilder) siteIndex(o *absdom.AObj) int {
	if i, ok := b.idx[o]; ok {
		return i
	}
	b.e.Sites = append(b.e.Sites, summary.PSite{File: int(o.File), Pos: o.Site, Type: o.Type})
	i := len(b.e.Sites)
	b.idx[o] = i
	return i
}

func (b *entryBuilder) value(v absdom.Value) summary.PValue {
	pv := summary.PValue{Kind: int(v.Kind), Payload: v.Payload, Type: v.Type, Prov: b.provRef(v.Prov)}
	if v.Kind == absdom.KObj {
		pv.Obj = b.siteIndex(v.Obj)
	}
	return pv
}

// provRef renders p as a template reference, appending the recording's
// nodes predecessors first. Reaching any other non-input node, or a node
// the depth cap cut, makes the entry unportable (the recursion descends
// only through uncut nodes, so the cap bounds it).
func (b *entryBuilder) provRef(p *absdom.Prov) int {
	if p == nil {
		return 0
	}
	if r, ok := b.refs[p]; ok {
		return r
	}
	if p.Seq() <= b.provSeq || p.Truncated {
		b.ok = false
		return 0
	}
	shape, n1, n2 := p.Label()
	pp := summary.PProv{Kind: int(p.Kind), Line: p.Line, Col: p.Col, N1: n1, N2: n2}
	if f := p.File(); f != "" { // program files are sorted by name
		files := b.an.prog.Files
		i := sort.Search(len(files), func(i int) bool { return files[i].Name >= f })
		b.ok = b.ok && i < len(files) && files[i].Name == f
		pp.File = i + 1
	}
	if shape != nil {
		pp.Pre, pp.Mid, pp.Suf = shape.Pre, shape.Mid, shape.Suf
	}
	pp.P0, pp.P1 = b.provRef(p.Prev0), b.provRef(p.Prev1)
	b.e.Prov = append(b.e.Prov, pp)
	r := len(b.e.Prov)
	b.refs[p] = r
	return r
}

// finishRecording renders rec into a portable entry and inserts it into the
// shared table. The post-state is read from st (the caller's state after
// the live call returned); ret is the live return value and ins the input
// provenance summaryKey collected.
func (an *analyzer) finishRecording(rec *recActive, key artifact.Key, ins []*absdom.Prov, ret absdom.Value, st *absdom.State) {
	b := &entryBuilder{
		an:      an,
		e:       &summary.Entry{Steps: an.steps - rec.startSteps, NIn: len(ins)},
		idx:     map[*absdom.AObj]int{},
		ok:      !rec.unportable,
		provSeq: rec.provSeq,
	}
	if an.provOn {
		b.refs = make(map[*absdom.Prov]int, len(ins))
		for _, p := range ins {
			if p != nil {
				b.refs[p] = -firstSlot(ins, p) - 1
			}
		}
	}
	for _, o := range rec.allocs {
		b.siteIndex(o)
	}
	b.e.NAlloc = len(b.e.Sites)
	for _, re := range rec.events {
		pe := summary.PEvent{Obj: b.siteIndex(re.obj), Sig: re.ev.Sig, File: re.ev.File, Pos: re.ev.Pos}
		for _, a := range re.ev.Args {
			pe.Args = append(pe.Args, b.value(a))
		}
		b.e.Events = append(b.e.Events, pe)
	}
	for _, m := range rec.executed {
		pm, ok := an.methodPRef(m)
		b.ok = b.ok && ok
		b.e.Executed = append(b.e.Executed, pm)
	}
	for _, m := range rec.outer {
		pm, ok := an.methodPRef(m)
		b.ok = b.ok && ok
		b.e.OuterGuard = append(b.e.OuterGuard, pm)
	}
	// Fields render in key order and heap objects by site, for
	// deterministic entry bytes (the JSON payload is content-addressed on
	// disk).
	if len(st.Fields) > 0 {
		b.e.Fields = make(map[string]summary.PValue, len(st.Fields))
		fs := an.fieldsByKey(an.keyMem.fields[:0], st)
		for _, f := range fs {
			b.e.Fields[an.fieldKey(f.Slot)] = b.value(f.Value)
		}
		an.keyMem.fields = fs
	}
	if len(st.Heap) > 0 {
		objs := make([]*absdom.AObj, 0, len(st.Heap))
		for o := range st.Heap {
			objs = append(objs, o)
		}
		slices.SortFunc(objs, bySite)
		for _, o := range objs {
			fs := st.Heap[o]
			h := summary.PHeapObj{Obj: b.siteIndex(o), Fields: make(map[string]summary.PValue, len(fs))}
			for k, v := range fs {
				h.Fields[k] = b.value(v)
			}
			b.e.Heap = append(b.e.Heap, h)
		}
	}
	if ret.IsValid() {
		pv := b.value(ret)
		b.e.Ret = &pv
	}
	if !b.ok {
		an.sums.Unportable()
		return
	}
	an.sums.Insert(key, b.e)
}
