// Package analysis implements the lightweight AST-based abstract interpreter
// of the paper's §5.1. It discovers allocation sites of target API classes,
// determines entry methods via a reverse call graph, and performs a forward
// abstract execution from each entry — forking at branch points, inlining
// calls inter-procedurally up to recursion (optionally replaying memoized
// per-method summaries) — to compute the abstract
// usages AUses : AObjs → P(Methods × AStates).
//
// Like the paper's analyzer, it operates on partial programs (library code
// and snippets), and does not model deep inheritance hierarchies or virtual
// dispatch.
package analysis

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"slices"
	"strconv"
	"strings"

	"repro/internal/absdom"
	"repro/internal/artifact"
	"repro/internal/cryptoapi"
	"repro/internal/javaast"
	"repro/internal/javatok"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/resilience"
	"repro/internal/summary"
	"repro/internal/trace"
)

// Options configures the analyzer.
type Options struct {
	// MaxStates caps the number of simultaneously tracked execution forks
	// per entry method; overflow states are joined. Default 16.
	MaxStates int
	// Budget, when non-nil, bounds the abstract execution: one step is
	// consumed per statement and expression visited, and exhaustion abandons
	// the analysis with resilience.ErrBudgetExhausted. Budgets are single-use
	// and single-goroutine; callers create one per analyzed change.
	Budget *resilience.Budget
	// Metrics, when non-nil, receives interpreter telemetry (steps executed,
	// per-run step distribution, budget exhaustions).
	Metrics *obs.Registry
	// Provenance enables flow-provenance tracking: every abstract value
	// carries a capped def-site chain (literal → assignments → inlined
	// calls → joins) that the witness layer renders into violation traces.
	// Off by default; with tracking off the analysis allocates no
	// provenance and its result is bit-identical to a provenance-unaware
	// interpreter.
	Provenance bool
	// Summaries, when non-nil, enables memoized per-method summaries
	// (DESIGN.md §14): inlineCall consults the table before executing a
	// callee and replays a recorded effect triple on a hit. The table may be
	// shared across analyses — a mining run shares one table across all
	// changes, a server across all requests. Nil means live execution of
	// every call under the same cycle policy (recursive SCCs widen to Top).
	// With Provenance on, entries also carry a provenance template, so
	// replayed chains — and the witness text built from them — equal a
	// live run's.
	Summaries *summary.Table
}

func (o Options) withDefaults() Options {
	if o.MaxStates <= 0 {
		o.MaxStates = 16
	}
	return o
}

// File is one source file of the analyzed program version.
type File struct {
	Name string
	Unit *javaast.CompilationUnit
}

// Program is a (possibly partial) Java program: a set of parsed files.
type Program struct {
	Files []File
	// SourceFP fingerprints the program's full source text (sorted file
	// names and contents). It keys memoized method summaries: because the
	// whole program's identity is part of every summary key, a replayed
	// summary is by construction a log of a deterministic execution of
	// byte-identical input. Empty (a Program assembled by hand) disables
	// summary memoization for that program.
	SourceFP string
}

// sourceFingerprint hashes the sorted (name, content) pairs of a program's
// sources with length-prefixing (the same framing artifact keys use).
func sourceFingerprint(names []string, sources map[string]string) string {
	h := artifact.NewHasher()
	for _, n := range names {
		h.String(n)
		h.String(sources[n])
	}
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Finish(sum[:0]))
}

// ParseProgram parses named sources into a Program, ignoring recoverable
// syntax errors (partial programs are expected). Files with a non-.java
// extension (manifests, build scripts) are skipped; names without any
// extension are treated as Java snippets.
func ParseProgram(sources map[string]string) *Program {
	return ParseProgramPoolCtx(context.Background(), sources, nil, nil)
}

// ParseProgramPoolCtx is ParseProgram with parser telemetry (files, bytes,
// and recovered syntax errors counted into reg; nil is a no-op), a worker
// pool (nil or one worker is the exact serial path), and trace propagation.
// It is ParseProgramStoreCtx without an artifact store.
func ParseProgramPoolCtx(ctx context.Context, sources map[string]string, reg *obs.Registry, pool *parallel.Pool) *Program {
	return ParseProgramStoreCtx(ctx, sources, reg, pool, nil)
}

// Event is one element of AUses(o): a method invocation observed on an
// abstract object together with the abstract values of its arguments (the
// projection of the abstract state the DAG construction consumes). File and
// Pos locate the call site of the first observation of the event (the sink
// position of witness traces); they take no part in an event's identity
// (appendEventID), so deduplication — and therefore every downstream result —
// is unchanged by their presence.
type Event struct {
	Sig  cryptoapi.MethodSig
	Args []absdom.Value
	File string
	Pos  javatok.Pos
}

// Result holds the abstract usages of one program version. A result is
// read-only once Analyze returns: a mining batch hands one version's result
// to every change that carries the same source text, so neither Objs, Uses,
// nor the objects and events they hold may be modified by a consumer.
type Result struct {
	// Objs lists all abstract objects in allocation-discovery order.
	Objs []*absdom.AObj
	// Uses maps each abstract object to its deduplicated events in
	// first-observation order (the paper's AUses).
	Uses map[*absdom.AObj][]Event
}

// ObjsOfType returns the abstract objects of the given class, in order.
func (r *Result) ObjsOfType(typ string) []*absdom.AObj {
	var out []*absdom.AObj
	for _, o := range r.Objs {
		if o.Type == typ {
			out = append(out, o)
		}
	}
	return out
}

// Analyze runs the abstract interpretation over prog and returns AUses.
// When Options.Budget trips mid-run, the partial result is returned; use
// AnalyzeBudgetedCtx to observe the exhaustion.
func Analyze(prog *Program, opts Options) *Result {
	res, _, _ := analyzeBudgeted(prog, opts)
	return res
}

// AnalyzeBudgetedCtx is Analyze with budget enforcement surfaced and trace
// propagation. When Options.Budget is exhausted the abstract execution is
// abandoned and the partial result is returned together with an error
// wrapping resilience.ErrBudgetExhausted; without a budget (or within it)
// the error is nil and the result is identical to Analyze's. When ctx
// carries a span, the run gets an "interpret" child annotated with the step
// count and — on exhaustion — the ledger's "budget" category. The step
// count is a function of the program alone (the interpreter is
// single-goroutine), so the attribute keeps trace fingerprints
// deterministic.
func AnalyzeBudgetedCtx(ctx context.Context, prog *Program, opts Options) (*Result, error) {
	_, sp := trace.Start(ctx, "interpret")
	defer sp.End()
	res, err, steps := analyzeBudgeted(prog, opts)
	if sp != nil {
		sp.SetAttr("steps", strconv.FormatInt(steps, 10))
		if err != nil {
			sp.Annotate(string(resilience.Categorize(err)))
		}
	}
	return res, err
}

func analyzeBudgeted(prog *Program, opts Options) (res *Result, err error, steps int64) {
	an := newAnalyzer(prog, opts.withDefaults())
	defer func() {
		if r := recover(); r != nil {
			stop, ok := r.(budgetStop)
			if !ok {
				panic(r)
			}
			res = an.result()
			err = stop.err
		}
		steps = an.steps
		an.flushMetrics(err)
	}()
	an.run()
	return an.result(), nil, an.steps
}

// AnalyzeSource is a convenience wrapper for single-file programs.
func AnalyzeSource(src string, opts Options) *Result {
	return Analyze(ParseProgram(map[string]string{"Main.java": src}), opts)
}

// ---------------------------------------------------------------------------
// Analyzer internals
// ---------------------------------------------------------------------------

type classInfo struct {
	decl *javaast.TypeDecl
	file int
	// fieldBase is the field slot of decl.Fields[0]: field i of the class
	// has slot fieldBase+i.
	fieldBase int
	// methodIdx and fieldIdx index the class's methods and fields by name.
	// Each is made on the first lookup it serves (pickMethod, field), so a
	// run pays only for the classes it resolves names in.
	methodIdx map[string][]*javaast.MethodDecl
	fieldIdx  map[string]int
}

// classField is a field of a class and the slot of its "Class.field" key
// in State.Fields.
type classField struct {
	decl *javaast.FieldDecl
	slot int
}

// field returns the field name of ci. A redeclared name resolves to its
// last declaration.
func (ci *classInfo) field(name string) (classField, bool) {
	fs := ci.decl.Fields
	if ci.fieldIdx == nil {
		ci.fieldIdx = make(map[string]int, len(fs))
		for i, fd := range fs {
			ci.fieldIdx[fd.Name] = i
		}
	}
	i, ok := ci.fieldIdx[name]
	if !ok {
		return classField{}, false
	}
	return classField{decl: fs[i], slot: ci.fieldBase + i}, true
}

type analyzer struct {
	prog    *Program
	opts    Options
	classes map[string]*classInfo
	// classOrder: deterministic iteration.
	classOrder []string
	// nFields counts the field slots handed out to indexed classes. The
	// "Class.field" key of each slot is built only when a summary or
	// provenance label needs it (fieldKey).
	nFields    int
	fieldNames []string

	// sites indexes objs by allocation site.
	sites  map[siteKey]*absdom.AObj
	nextID int

	// events holds AUses by object; record deduplicates each object's
	// events by identity (appendEventID).
	events map[*absdom.AObj][]Event
	objs   []*absdom.AObj
	// called maps every declared method name to the distinct arities it is
	// called with — the coarse reverse call graph behind entry detection.
	// Keying on arity as well as name keeps an uncalled overload (a 2-arg
	// variant of a helper only ever called with 1 argument) an entry
	// method.
	called   map[string][]int
	executed map[*javaast.MethodDecl]bool
	// slots holds each executed method's local slot table (slotsOf), and
	// freeLocals the slots of finished calls, for reuse (takeLocals).
	slots      map[*javaast.MethodDecl]*absdom.Slots
	freeLocals [][]absdom.Local

	inlineStack []*javaast.MethodDecl
	constCache  map[*javaast.FieldDecl]absdom.Value
	constBusy   map[*javaast.FieldDecl]bool
	curFile     int
	budget      *resilience.Budget

	// Summary machinery (summary.go). sums is the shared table (nil = live
	// execution of every call); memoOK gates lookups (off for
	// fingerprint-less programs, which execute live). recs is the stack of
	// in-flight recordings that the allocObj/record/markExecuted tee points
	// feed; localSums caches summaries already rebound into this analyzer's
	// object table.
	sums      *summary.Table
	memoOK    bool
	sumOptsFP string
	recs      []*recActive
	localSums map[*summary.Entry]*resolvedSum
	methodRef map[*javaast.MethodDecl]summary.PMethod
	keyMem    keyScratch
	// keyLog, when set, observes every summary key in lookup order; the key
	// golden test uses it to pin key bytes across changes to the analyzer.
	keyLog func(artifact.Key)
	// provOn enables flow-provenance tracking (Options.Provenance). Every
	// attach site in the hot loop is gated on this one bool, so the
	// tracking-off interpreter pays a single predictable branch per site.
	provOn bool
	// provArena batch-allocates the Prov nodes of this analysis; with
	// tracking off it is never touched.
	provArena absdom.ProvArena
	// steps counts every statement and expression visited; unlike the
	// budget it is always on (one register increment in the hot loop).
	steps int64
}

// budgetStop is the panic payload that unwinds an over-budget execution
// back to analyzeBudgeted (the same recovery idiom the parser uses).
type budgetStop struct{ err error }

// step consumes one budget unit; it is called from the interpreter's hot
// loop (every statement and expression). Exhaustion aborts the whole
// analysis by unwinding to analyzeBudgeted.
func (an *analyzer) step() {
	an.steps++
	if an.budget == nil {
		return
	}
	if err := an.budget.Step(); err != nil {
		panic(budgetStop{err: err})
	}
}

// stepN bulk-charges n steps — a summary replay charging the recorded cost
// of the execution it stands in for.
func (an *analyzer) stepN(n int64) {
	an.steps += n
	if an.budget == nil {
		return
	}
	if err := an.budget.StepN(n); err != nil {
		panic(budgetStop{err: err})
	}
}

// flushMetrics records the run's interpreter telemetry once, at the end of
// analyzeBudgeted (normal or budget-exhausted exit).
func (an *analyzer) flushMetrics(err error) {
	reg := an.opts.Metrics
	if reg == nil {
		return
	}
	reg.Counter("analysis.runs").Inc()
	reg.Counter("analysis.steps").Add(an.steps)
	reg.Histogram("analysis.steps_per_run").Observe(an.steps)
	if errors.Is(err, resilience.ErrBudgetExhausted) {
		reg.Counter("analysis.budget_exhausted").Inc()
	}
}

func newAnalyzer(prog *Program, opts Options) *analyzer {
	an := &analyzer{
		prog:    prog,
		opts:    opts,
		classes: make(map[string]*classInfo, len(prog.Files)),
		budget:  opts.Budget,
		provOn:  opts.Provenance,
		sums:    opts.Summaries,
	}
	// Memoization needs a program fingerprint (the key's exactness anchor);
	// without one every call executes live under the same cycle policy.
	// Entries recorded under provenance carry a provenance template, so they
	// are keyed apart from provenance-off ones.
	an.memoOK = an.sums != nil && prog.SourceFP != ""
	if an.memoOK {
		an.localSums = map[*summary.Entry]*resolvedSum{}
		an.sumOptsFP = "ms=" + strconv.Itoa(opts.MaxStates)
		if an.provOn {
			an.sumOptsFP += ",prov"
		}
	}
	nMethods := 0
	for fi, f := range prog.Files {
		for _, t := range f.Unit.Types {
			nMethods += an.indexClass(t, fi)
		}
	}
	// Build the coarse reverse call graph: record the arity of every call
	// to a declared method name (entry detection asks about no other name).
	an.called = make(map[string][]int, nMethods)
	for _, ci := range an.classes {
		for _, m := range ci.decl.Methods {
			an.called[m.Name] = nil
		}
	}
	for _, f := range prog.Files {
		javaast.Walk(f.Unit, func(n javaast.Node) bool {
			if c, ok := n.(*javaast.Call); ok {
				if arities, declared := an.called[c.Name]; declared && !slices.Contains(arities, len(c.Args)) {
					an.called[c.Name] = append(arities, len(c.Args))
				}
			}
			return true
		})
	}
	return an
}

// indexClass indexes t and its nested classes, handing their fields the
// next slots, and returns how many methods they declare.
func (an *analyzer) indexClass(t *javaast.TypeDecl, file int) int {
	ci := &classInfo{decl: t, file: file, fieldBase: an.nFields}
	an.nFields += len(t.Fields)
	if _, exists := an.classes[t.Name]; !exists {
		an.classOrder = append(an.classOrder, t.Name)
	}
	an.classes[t.Name] = ci
	n := len(t.Methods)
	for _, nested := range t.Nested {
		n += an.indexClass(nested, file)
	}
	return n
}

// fieldKey returns the "Class.field" key of field slot i. The keys of all
// slots are built on first use. Slots no lookup resolves to — an earlier
// declaration of a redeclared name, the fields of a class a later
// same-named class replaced — are never bound, so their keys are unused.
func (an *analyzer) fieldKey(i int) string {
	if an.fieldNames == nil {
		an.fieldNames = make([]string, an.nFields)
		for _, name := range an.classOrder {
			ci := an.classes[name]
			for j, fd := range ci.decl.Fields {
				an.fieldNames[ci.fieldBase+j] = name + "." + fd.Name
			}
		}
	}
	return an.fieldNames[i]
}

// fieldSlot returns the slot of the "Class.field" key k.
func (an *analyzer) fieldSlot(k string) (int, bool) {
	dot := strings.LastIndexByte(k, '.')
	if dot < 0 {
		return 0, false
	}
	ci := an.classes[k[:dot]]
	if ci == nil {
		return 0, false
	}
	f, ok := ci.field(k[dot+1:])
	return f.slot, ok
}

// allocObj returns the abstract object for an allocation site, creating it
// on first use (per-allocation-site abstraction: one AObj per site across
// all executions and forks).
func (an *analyzer) allocObj(file int, pos javaast.Node, typ string) *absdom.AObj {
	return an.allocObjAt(file, pos.Pos(), typ)
}

// siteKey is an allocation site: a file index and an offset in it.
type siteKey struct {
	file   int
	offset int32
}

// allocObjAt is allocObj on a raw position — the form summary replays use.
// Object creation tees into in-flight recordings as a first-touch
// allocation, so a recorded summary replays its callee's allocations in the
// order a live execution would have made them.
func (an *analyzer) allocObjAt(file int, pos javatok.Pos, typ string) *absdom.AObj {
	site := siteKey{file: file, offset: pos.Offset}
	if o := an.sites[site]; o != nil {
		return o
	}
	an.nextID++
	o := &absdom.AObj{ID: an.nextID, Type: typ, Site: pos, File: int32(file)}
	an.objs = append(an.objs, o)
	if an.sites == nil {
		an.sites = map[siteKey]*absdom.AObj{}
	}
	an.sites[site] = o
	for _, r := range an.recs {
		r.allocs = append(r.allocs, o)
	}
	return o
}

// record appends an event to AUses(o) unless o already holds one with the
// same identity. The pre-dedup attempt tees into in-flight recordings: an
// attempt that is a duplicate here can be the first observation in a
// different replay context, so summaries log attempts, not outcomes.
func (an *analyzer) record(o *absdom.AObj, ev Event) {
	for _, r := range an.recs {
		r.events = append(r.events, recEvent{obj: o, ev: ev})
	}
	evs := an.events[o]
	if len(evs) > 0 {
		var keyBuf, seenBuf [128]byte
		key := appendEventID(keyBuf[:0], &ev)
		for i := range evs {
			if bytes.Equal(appendEventID(seenBuf[:0], &evs[i]), key) {
				return
			}
		}
	}
	if an.events == nil {
		an.events = map[*absdom.AObj][]Event{}
	}
	an.events[o] = append(evs, ev)
}

// appendEventID appends e's identity bytes to b: its signature, rendered
// "Class.name(P1,P2)", then for each argument "|" and its label, or for an
// object argument "|@Type@l<line>#<id>". Two events are the same exactly
// when these bytes are. Labels may coincide across kinds (IntConst("true")
// and BoolConst(true) both read "true"), and the concatenation may shift
// bytes between arguments, so only the rendered bytes decide.
func appendEventID(b []byte, e *Event) []byte {
	b = append(b, e.Sig.Class...)
	b = append(b, '.')
	b = append(b, e.Sig.Name...)
	b = append(b, '(')
	for i, p := range e.Sig.Params {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, p...)
	}
	b = append(b, ')')
	for _, a := range e.Args {
		if a.Kind == absdom.KObj {
			b = append(b, "|@"...)
			b = append(b, a.Obj.Type...)
			b = append(b, "@l"...)
			b = strconv.AppendInt(b, int64(a.Obj.Site.Line), 10)
			b = append(b, '#')
			b = strconv.AppendInt(b, int64(a.Obj.ID), 10)
		} else {
			b = append(b, '|')
			b = a.AppendLabel(b)
		}
	}
	return b
}

// run executes every entry method of every class, then sweeps up any methods
// never executed (e.g. mutually recursive groups with no external entry) so
// every allocation site is covered.
func (an *analyzer) run() {
	for _, name := range an.classOrder {
		ci := an.classes[name]
		for _, m := range an.entryMethods(ci) {
			an.runEntry(ci, m)
		}
	}
	for _, name := range an.classOrder {
		ci := an.classes[name]
		for _, ms := range orderedMethods(ci) {
			if !an.executed[ms] && ms.Body != nil {
				an.runEntry(ci, ms)
			}
		}
	}
}

func orderedMethods(ci *classInfo) []*javaast.MethodDecl {
	return ci.decl.Methods
}

// entryMethods returns the methods of ci that no call in the program
// resolves to, plus main. These approximate the paper's "entry methods that
// can lead to executions that call method m". A method counts as called
// only if some observed (name, arity) pair resolves to it under the
// analyzer's own overload resolution (exact arity, else first candidate) —
// name-only matching would silently demote an uncalled 2-arg overload of a
// called 1-arg helper.
func (an *analyzer) entryMethods(ci *classInfo) []*javaast.MethodDecl {
	var out []*javaast.MethodDecl
	for _, m := range ci.decl.Methods {
		if m.Body == nil {
			continue
		}
		if m.Name == "main" || m.IsConstructor || !an.isCalled(ci, m) {
			out = append(out, m)
		}
	}
	return out
}

// isCalled reports whether any observed call (by name and arity) would
// resolve to m within ci, mirroring pickMethod's resolution.
func (an *analyzer) isCalled(ci *classInfo, m *javaast.MethodDecl) bool {
	for _, arity := range an.called[m.Name] {
		if an.pickMethod(ci, m.Name, arity) == m {
			return true
		}
	}
	return false
}

// runEntry performs a forward abstract execution of one entry method over a
// fresh state with field initializers applied and parameters bound to ⊤
// values of their declared types (execMethod binds them, given no
// arguments). Initializer blocks run on the same state, so their locals
// share the entry method's namespace.
func (an *analyzer) runEntry(ci *classInfo, m *javaast.MethodDecl) {
	an.curFile = ci.file
	st := absdom.NewStateFor(an.slotsOf(m))
	fr := an.newFrame(ci, st)
	// Field initializers (and initializer blocks) run before the entry.
	an.initFields(ci, st, fr)
	an.execMethod(ci, m, nil, st)
}

// slotsOf returns the slot table of m's locals in this analysis: the
// method's local names, resolved once per MethodDecl, plus any name an
// initializer block binds in m's namespace when m runs as an entry.
func (an *analyzer) slotsOf(m *javaast.MethodDecl) *absdom.Slots {
	t := an.slots[m]
	if t == nil {
		l := m.Locals()
		t = absdom.NewSlots(l.Names, l.Index)
		if an.slots == nil {
			an.slots = map[*javaast.MethodDecl]*absdom.Slots{}
		}
		an.slots[m] = t
	}
	return t
}

// initFields evaluates field initializers and initializer blocks into st.
func (an *analyzer) initFields(ci *classInfo, st *absdom.State, fr *frame) {
	st.Fields = slices.Grow(st.Fields, len(ci.decl.Fields))
	for _, decl := range ci.decl.Fields {
		f, _ := ci.field(decl.Name)
		fd := f.decl
		if fd.Init != nil {
			v := an.eval(fd.Init, st, fr)
			v = refine(v, fd.Type)
			if an.provOn {
				v.Prov = an.prov1(absdom.ProvField, fd, shField, an.fieldKey(f.slot), v.Prov)
			}
			st.SetField(f.slot, v)
		} else {
			v := absdom.TopOfType(fd.Type.Base(), fd.Type.Dims)
			if an.provOn {
				v.Prov = an.prov0(absdom.ProvField, fd, shFieldNoInit, an.fieldKey(f.slot))
			}
			st.SetField(f.slot, v)
		}
	}
	for _, m := range ci.decl.Methods {
		if m.Name == "<static-init>" || m.Name == "<instance-init>" {
			an.execMethod(ci, m, nil, st)
		}
	}
}

// refine upgrades a fully unknown value (untyped ⊤obj) to the ⊤ element of
// the declared type, preserving anything more precise. It also corrects the
// array family of bare initializers: `int[] xs = {1, 2}` evaluates the
// initializer without type context (byte-ish by default), and the declared
// type settles which constant-array domain it belongs to.
func refine(v absdom.Value, typ *javaast.TypeRef) absdom.Value {
	if typ == nil {
		return v
	}
	if !v.IsValid() || (v.Kind == absdom.KTopObj && v.Type == "") {
		return absdom.TopOfType(typ.Base(), typ.Dims).WithProv(v.Prov)
	}
	if typ.Dims > 0 {
		switch typ.Base() {
		case "int", "long", "short":
			if v.Kind == absdom.KConstByteArr {
				return absdom.IntArrConst("const").WithProv(v.Prov)
			}
			if v.Kind == absdom.KTopByteArr {
				return absdom.TopIntArr().WithProv(v.Prov)
			}
		case "String":
			if v.Kind == absdom.KConstByteArr {
				return absdom.StrArrConst("const").WithProv(v.Prov)
			}
			if v.Kind == absdom.KTopByteArr {
				return absdom.TopStrArr().WithProv(v.Prov)
			}
		}
	}
	return v
}

// execMethod runs a method body with the given argument values, mutating st
// to the join of all exit states, and returns the joined return value.
func (an *analyzer) execMethod(ci *classInfo, m *javaast.MethodDecl, args []absdom.Value, st *absdom.State) absdom.Value {
	if m.Body == nil {
		return returnTop(m)
	}
	an.markExecuted(m)
	fr := an.newFrame(ci, st)
	for i, p := range m.Params {
		var v absdom.Value
		if i < len(args) && args[i].IsValid() {
			v = refine(args[i], p.Type)
			if an.provOn {
				// The argument's history continues through the callee under
				// the parameter's name.
				v.Prov = an.prov1x(absdom.ProvParam, p, shParamOf, p.Name, m.Name, v.Prov)
			}
		} else {
			v = absdom.TopOfType(p.Type.Base(), p.Type.Dims)
			if an.provOn {
				v.Prov = an.prov0x(absdom.ProvParam, p, shParamOf, p.Name, m.Name)
			}
		}
		st.SetVar(p.Name, v)
		fr.declare(p.Name, p.Type)
	}
	live := fr.execStmts(m.Body.Stmts, []*absdom.State{st})
	// Join every surviving state (live and returned) back into st so field
	// effects are visible to the caller.
	for _, s := range append(live, fr.finished...) {
		if s != st {
			st.JoinIn(s, &an.provArena)
		}
	}
	if len(fr.retVals) > 0 {
		ret := fr.retVals[0]
		for _, v := range fr.retVals[1:] {
			ret = absdom.JoinIn(&an.provArena, ret, v)
		}
		return ret
	}
	return returnTop(m)
}

func returnTop(m *javaast.MethodDecl) absdom.Value {
	if m.ReturnType == nil || m.ReturnType.Name == "void" {
		return absdom.Value{}
	}
	return absdom.TopOfType(m.ReturnType.Base(), m.ReturnType.Dims)
}

// result hands the analyzer's usage map over as the result.
func (an *analyzer) result() *Result {
	if an.events == nil {
		an.events = map[*absdom.AObj][]Event{}
	}
	return &Result{Objs: an.objs, Uses: an.events}
}
