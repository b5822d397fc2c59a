package absdom

// Flow provenance. Every abstract value can carry a compact, immutable
// def-site chain recording where it came from: the literal it started as,
// the assignments and inlined calls it flowed through, and the joins that
// merged it with other paths. Provenance is observation-only — it never
// participates in Equal, Join's lattice result, or event deduplication — so
// an analysis with tracking disabled (every Prov nil) is bit-identical to
// one that never heard of provenance.
//
// Nodes are shared, immutable, and capped: a chain deeper than MaxProvDepth
// is cut back to its origin with a truncation marker, so provenance can
// never blow up state size however long the abstract execution runs.
//
// Recording a step is cheap by construction: the label's constant fragments
// live in a per-site LabelShape the node points at, the dynamic names are
// stored without concatenating, and nodes come out of a chunked arena — so
// the tracking-on interpreter pays a fraction of an allocation and zero
// string building per step. What assembles the label lazily; witness
// rendering is the only consumer, and it runs once per trace, not once per
// abstract step.

// ProvKind classifies one definition step in a provenance chain.
type ProvKind uint8

// Definition-step kinds, ordered roughly source-to-sink.
const (
	ProvInvalid ProvKind = iota
	ProvLiteral          // a source literal (or constant array initializer)
	ProvParam            // bound as a method parameter
	ProvField            // read from / initialized as a field
	ProvCall             // produced by a call (API result, folded helper, inlined return)
	ProvAlloc            // an allocation (new T(...) or an API factory)
	ProvAssign           // stored into a variable or field
	ProvDerived          // derived by an operator (concat, arithmetic, index, cast)
	ProvJoin             // merged with another path at a control-flow join
)

// String renders the step kind for traces and JSON.
func (k ProvKind) String() string {
	switch k {
	case ProvLiteral:
		return "literal"
	case ProvParam:
		return "param"
	case ProvField:
		return "field"
	case ProvCall:
		return "call"
	case ProvAlloc:
		return "alloc"
	case ProvAssign:
		return "assign"
	case ProvDerived:
		return "derived"
	case ProvJoin:
		return "join"
	default:
		return "invalid"
	}
}

// Caps on the provenance structure. Chains are cut back to their origin
// once they exceed MaxProvDepth definition steps, and a single step links
// at most MaxProvFanIn predecessors (a join keeps its two sides; wider
// derivations keep the first two interesting inputs).
const (
	MaxProvDepth = 48
	MaxProvFanIn = 2
)

// LabelShape holds the constant fragments of a provenance label — the
// operation text around the dynamic names, e.g. {Pre: "assigned to "} or
// {Mid: ".", Suf: "(...)"}. Attach sites declare one shape each, so a node
// stores a single pointer instead of copies of the fragments.
type LabelShape struct {
	Pre, Mid, Suf string
}

// Prov is one definition step. Nodes are immutable after construction and
// shared freely between values and states; a Value carries provenance as a
// single pointer, so cloning and joining states stays cheap.
type Prov struct {
	Kind ProvKind
	// Truncated marks a step whose history was cut to enforce MaxProvDepth;
	// the surviving Prev0 points at the chain's origin.
	Truncated bool
	depth     uint8 // ≤ MaxProvDepth+1
	// Line/Col locate the definition site (with File). A zero Line means
	// the step has no concrete source position (synthetic joins).
	Line int32
	Col  int32
	// seq is the node's creation stamp in its arena (0 for heap nodes).
	seq uint32
	// file points at the interned source-file name (nil for synthetic
	// steps); all steps of one file share the analyzer's one string header.
	file *string
	// The step label is shape.Pre + n1 + shape.Mid + n2 + shape.Suf, joined
	// on demand by What. A nil shape renders the names alone.
	shape *LabelShape
	n1    string
	n2    string
	// Prev0/Prev1 link the provenance of the value(s) this definition
	// consumed (the structural form of the MaxProvFanIn cap). Prev0 is
	// always set before Prev1.
	Prev0 *Prov
	Prev1 *Prov
}

// File names the step's source file ("" for synthetic steps).
func (p *Prov) File() string {
	if p.file == nil {
		return ""
	}
	return *p.file
}

// Label returns the step's label parts: the constant shape (nil for a
// one-piece label) and the two dynamic names What joins into it.
func (p *Prov) Label() (shape *LabelShape, n1, n2 string) {
	return p.shape, p.n1, p.n2
}

// Seq returns the node's creation stamp in its arena: nodes created after
// an arena's Seq() was read are exactly those stamped above it. Heap nodes
// (NewProv, NewProvShape) are stamped 0.
func (p *Prov) Seq() uint32 { return p.seq }

// What renders the step's label: the literal text, the variable or field
// name, the callee, the operator.
func (p *Prov) What() string {
	if p.shape == nil {
		return p.n1 + p.n2
	}
	return p.shape.Pre + p.n1 + p.shape.Mid + p.n2 + p.shape.Suf
}

// Depth reports the longest definition chain ending at this step.
func (p *Prov) Depth() int {
	if p == nil {
		return 0
	}
	return int(p.depth)
}

// Origin returns the origin-most step of this chain (itself for roots),
// walking the deepest predecessor at each hop. The walk is bounded by the
// depth cap and runs only at render time and at cap cuts, so nodes need not
// cache the pointer.
func (p *Prov) Origin() *Prov {
	if p == nil {
		return nil
	}
	for {
		next := p.Prev0
		if next == nil {
			return p
		}
		if p.Prev1 != nil && p.Prev1.depth > next.depth {
			next = p.Prev1
		}
		p = next
	}
}

// NewProv builds one definition step with a one-piece label on top of up to
// two predecessors (nil predecessors are dropped). Chains that would exceed
// MaxProvDepth are cut back to their origin with the Truncated marker set.
func NewProv(kind ProvKind, file string, line, col int, what string, p0, p1 *Prov) *Prov {
	return NewProvShape(kind, file, line, col, nil, what, "", p0, p1)
}

// internFile boxes a file name for the heap constructors; "" stays nil, the
// shared spelling of "no source position".
func internFile(file string) *string {
	if file == "" {
		return nil
	}
	return &file
}

// NewProvShape is NewProv with the label as a constant shape plus up to two
// dynamic names, letting callers record a step without concatenating.
func NewProvShape(kind ProvKind, file string, line, col int, shape *LabelShape, n1, n2 string, p0, p1 *Prov) *Prov {
	return initProv(&Prov{}, kind, internFile(file), line, col, shape, n1, n2, p0, p1)
}

// provChunk sizes the arena batches: large enough to amortize allocation
// over a small program's worth of steps, small enough that a mostly-unused
// chunk costs little. 39 nodes ≈ 3.1KB lands the batch — plus the
// allocator's scan-object header — exactly in the 3.2KB size class; one
// node more would round the batch up to 3.5KB.
const provChunk = 39

// ProvArena batch-allocates Prov nodes in chunks, so a tracking-on analysis
// pays one allocation per provChunk definition steps instead of one per
// step. Nodes stay individually immutable and shared; the arena only changes
// where they live (a chunk is retained as long as any node in it). Not safe
// for concurrent use — each analyzer owns one.
//
// The arena stamps every node with a creation sequence number. That stamp
// is the creation tee summary recordings read: a recording notes Seq() when
// it begins, and the nodes it created are those stamped above that.
type ProvArena struct {
	free []Prov
	seq  uint32
}

// Seq returns the stamp of the last node the arena created (0 before any).
func (a *ProvArena) Seq() uint32 { return a.seq }

// NewShape is NewProvShape backed by the arena, with the file name passed
// as the caller's interned pointer (one shared string header per file).
func (a *ProvArena) NewShape(kind ProvKind, file *string, line, col int, shape *LabelShape, n1, n2 string, p0, p1 *Prov) *Prov {
	if len(a.free) == 0 {
		a.free = make([]Prov, provChunk)
	}
	p := &a.free[0]
	a.free = a.free[1:]
	a.seq++
	p.seq = a.seq
	return initProv(p, kind, file, line, col, shape, n1, n2, p0, p1)
}

// initProv fills one freshly zeroed node: cap fan-in nils, compute the
// cached depth, and apply the MaxProvDepth cut.
func initProv(p *Prov, kind ProvKind, file *string, line, col int, shape *LabelShape, n1, n2 string, p0, p1 *Prov) *Prov {
	if p0 == nil {
		p0, p1 = p1, nil
	}
	p.Kind = kind
	p.Line = int32(line)
	p.Col = int32(col)
	p.file = file
	p.shape = shape
	p.n1, p.n2 = n1, n2
	p.Prev0, p.Prev1 = p0, p1
	deepest := p0
	if p1 != nil && p1.depth > deepest.depth {
		deepest = p1
	}
	if deepest == nil {
		p.depth = 1
		return p
	}
	if int(deepest.depth) >= MaxProvDepth {
		// Cut the middle of the chain: keep the origin (the literal or
		// parameter the trace must start at) and mark the cut.
		o := deepest.Origin()
		p.Prev0, p.Prev1 = o, nil
		p.Truncated = true
		p.depth = o.depth + 1
		return p
	}
	p.depth = deepest.depth + 1
	return p
}

// JoinProv merges the provenance of two values that met at a control-flow
// join. Nil sides and identical chains merge without allocating, so the
// tracking-off path (both nil) costs two pointer compares.
func JoinProv(a, b *Prov) *Prov {
	if a == b {
		return a
	}
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return NewProv(ProvJoin, "", 0, 0, "control-flow join", a, b)
}

// JoinProv is the arena-backed form of the package-level JoinProv: any new
// join node comes out of the arena's current chunk.
func (ar *ProvArena) JoinProv(a, b *Prov) *Prov {
	if a == b {
		return a
	}
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return ar.NewShape(ProvJoin, nil, 0, 0, nil, "control-flow join", "", a, b)
}
