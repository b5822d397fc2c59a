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
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"

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
// position of witness traces); they do not participate in Key, so
// deduplication — and therefore every downstream result — is unchanged by
// their presence.
type Event struct {
	Sig  cryptoapi.MethodSig
	Args []absdom.Value
	File string
	Pos  javatok.Pos
}

// Key returns a deduplication key for the event (signature plus argument
// labels; object arguments key by allocation site identity).
func (e Event) Key() string {
	k := e.Sig.Key()
	for _, a := range e.Args {
		if a.Kind == absdom.KObj {
			k += "|@" + a.Obj.SiteLabel() + fmt.Sprintf("#%d", a.Obj.ID)
		} else {
			k += "|" + a.Label()
		}
	}
	return k
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
	decl    *javaast.TypeDecl
	file    int
	methods map[string][]*javaast.MethodDecl
	fields  map[string]classField
	// fieldOrder preserves declaration order for initializer evaluation.
	fieldOrder []string
}

// classField is a field of a class with its "Class.field" key in
// State.Fields, built once per class.
type classField struct {
	decl *javaast.FieldDecl
	key  string
}

type siteKey struct {
	file   int
	offset int32
}

type analyzer struct {
	prog    *Program
	opts    Options
	classes map[string]*classInfo
	// classOrder: deterministic iteration.
	classOrder []string

	sites  map[siteKey]*absdom.AObj
	nextID int

	events    map[*absdom.AObj][]Event
	eventKeys map[*absdom.AObj]map[string]bool
	objs      []*absdom.AObj
	// calledArity records every invoked method name together with the call
	// arities seen — the coarse reverse call graph behind entry detection.
	// Keying on arity as well as name keeps an uncalled overload (a 2-arg
	// variant of a helper only ever called with 1 argument) an entry method.
	calledArity map[string]map[int]bool
	executed    map[*javaast.MethodDecl]bool
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
	// fingerprint-less programs, which execute live). siteOf is the
	// reverse of sites — it renders abstract objects portably. recs is the
	// stack of in-flight recordings that the allocObj/record/markExecuted
	// tee points feed; localSums caches summaries already rebound into this
	// analyzer's object table.
	sums      *summary.Table
	memoOK    bool
	sumOptsFP string
	siteOf    map[*absdom.AObj]siteKey
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
		prog:        prog,
		opts:        opts,
		classes:     map[string]*classInfo{},
		sites:       map[siteKey]*absdom.AObj{},
		events:      map[*absdom.AObj][]Event{},
		eventKeys:   map[*absdom.AObj]map[string]bool{},
		calledArity: map[string]map[int]bool{},
		executed:    map[*javaast.MethodDecl]bool{},
		slots:       map[*javaast.MethodDecl]*absdom.Slots{},
		budget:      opts.Budget,
		provOn:      opts.Provenance,
		sums:        opts.Summaries,
		siteOf:      map[*absdom.AObj]siteKey{},
	}
	// Memoization needs a program fingerprint (the key's exactness anchor);
	// without one every call executes live under the same cycle policy.
	// Entries recorded under provenance carry a provenance template, so they
	// are keyed apart from provenance-off ones.
	an.memoOK = an.sums != nil && prog.SourceFP != ""
	if an.memoOK {
		an.localSums = map[*summary.Entry]*resolvedSum{}
		an.sumOptsFP = fmt.Sprintf("ms=%d", opts.MaxStates)
		if an.provOn {
			an.sumOptsFP += ",prov"
		}
	}
	for fi, f := range prog.Files {
		for _, t := range f.Unit.Types {
			an.indexClass(t, fi)
		}
	}
	// Build the coarse reverse call graph: record every invoked method name
	// with the arity of each call.
	for _, f := range prog.Files {
		javaast.Walk(f.Unit, func(n javaast.Node) bool {
			if c, ok := n.(*javaast.Call); ok {
				ar := an.calledArity[c.Name]
				if ar == nil {
					ar = map[int]bool{}
					an.calledArity[c.Name] = ar
				}
				ar[len(c.Args)] = true
			}
			return true
		})
	}
	return an
}

func (an *analyzer) indexClass(t *javaast.TypeDecl, file int) {
	ci := &classInfo{
		decl:    t,
		file:    file,
		methods: map[string][]*javaast.MethodDecl{},
		fields:  make(map[string]classField, len(t.Fields)),
	}
	for _, m := range t.Methods {
		ci.methods[m.Name] = append(ci.methods[m.Name], m)
	}
	for _, fd := range t.Fields {
		ci.fields[fd.Name] = classField{decl: fd, key: t.Name + "." + fd.Name}
		ci.fieldOrder = append(ci.fieldOrder, fd.Name)
	}
	if _, exists := an.classes[t.Name]; !exists {
		an.classOrder = append(an.classOrder, t.Name)
	}
	an.classes[t.Name] = ci
	for _, nested := range t.Nested {
		an.indexClass(nested, file)
	}
}

// allocObj returns the abstract object for an allocation site, creating it
// on first use (per-allocation-site abstraction: one AObj per site across
// all executions and forks).
func (an *analyzer) allocObj(file int, pos javaast.Node, typ string) *absdom.AObj {
	return an.allocObjAt(file, pos.Pos(), typ)
}

// allocObjAt is allocObj on a raw position — the form summary replays use.
// Object creation tees into in-flight recordings as a first-touch
// allocation, so a recorded summary replays its callee's allocations in the
// order a live execution would have made them.
func (an *analyzer) allocObjAt(file int, pos javatok.Pos, typ string) *absdom.AObj {
	key := siteKey{file: file, offset: pos.Offset}
	if o, ok := an.sites[key]; ok {
		return o
	}
	an.nextID++
	o := &absdom.AObj{ID: an.nextID, Type: typ, Site: pos}
	an.sites[key] = o
	an.siteOf[o] = key
	an.objs = append(an.objs, o)
	for _, r := range an.recs {
		r.allocs = append(r.allocs, o)
	}
	return o
}

// record appends an event to AUses(o), deduplicating by event key. The
// pre-dedup attempt tees into in-flight recordings: an attempt that is a
// duplicate here can be the first observation in a different replay
// context, so summaries log attempts, not outcomes.
func (an *analyzer) record(o *absdom.AObj, ev Event) {
	for _, r := range an.recs {
		r.events = append(r.events, recEvent{obj: o, ev: ev})
	}
	keys := an.eventKeys[o]
	if keys == nil {
		keys = map[string]bool{}
		an.eventKeys[o] = keys
	}
	k := ev.Key()
	if keys[k] {
		return
	}
	keys[k] = true
	an.events[o] = append(an.events[o], ev)
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
	for arity := range an.calledArity[m.Name] {
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
	st := absdom.NewStateFor(an.slotsOf(m), len(ci.fieldOrder))
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
		an.slots[m] = t
	}
	return t
}

// initFields evaluates field initializers and initializer blocks into st.
func (an *analyzer) initFields(ci *classInfo, st *absdom.State, fr *frame) {
	for _, name := range ci.fieldOrder {
		fd, key := ci.fields[name].decl, ci.fields[name].key
		if fd.Init != nil {
			v := an.eval(fd.Init, st, fr)
			v = refine(v, fd.Type)
			if an.provOn {
				v.Prov = an.prov1(absdom.ProvField, fd, shField, key, v.Prov)
			}
			st.SetField(key, v)
		} else {
			v := absdom.TopOfType(fd.Type.Base(), fd.Type.Dims)
			if an.provOn {
				v.Prov = an.prov0(absdom.ProvField, fd, shFieldNoInit, key)
			}
			st.SetField(key, v)
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

// result snapshots the analyzer's usage map.
func (an *analyzer) result() *Result {
	res := &Result{Objs: an.objs, Uses: map[*absdom.AObj][]Event{}}
	for o, evs := range an.events {
		res.Uses[o] = evs
	}
	return res
}
