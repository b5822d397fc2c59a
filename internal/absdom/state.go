package absdom

import (
	"maps"
	"slices"
	"sort"
)

// State is an abstract program state σa = (objs, η, ∆): allocated abstract
// objects, an abstract heap mapping object fields to values, and the local
// variable store. Locals live in slots: Slots numbers their names and Vars
// holds their values by slot. This-fields are numbered too, by the analyzer
// once per analysis (every state of one analysis shares the numbering), but
// Fields lists only the bound ones, by slot, so a state costs what its
// bound fields cost however many fields the program declares. States are
// cloned cheaply at branch forks (the slot table is shared, the slot values
// and heap maps are copied; AObj identities are shared, which is what the
// per-allocation-site abstraction requires).
type State struct {
	Slots  *Slots                     // slot numbers of the local names; shared by forks
	Vars   []Local                    // ∆: locals and parameters, by slot
	Fields []Field                    // η restricted to this-fields: the bound ones, in slot order
	Heap   map[*AObj]map[string]Value // η for other abstract objects; nil until one is written
}

// Local is one local-variable slot. A local can be bound to an invalid
// value (an undeclared name assigned a void call's result), so whether it
// is bound is kept apart from Value.IsValid. Slots past the end of Vars are
// unbound.
type Local struct {
	Value
	Bound bool
}

// Field is one bound this-field: its slot and value.
type Field struct {
	Value
	Slot int
}

// Slots numbers local names: each name added gets the next slot, and keeps
// it. A table only ever grows, so the states sharing it — the forks of one
// frame — agree on every slot number, and a state whose Vars is shorter
// than the table simply has the later names unbound. A table is not safe
// for concurrent use; the interpreter keeps one per method and analysis.
type Slots struct {
	names []string
	// index maps names to slots once the table outgrows a linear scan.
	// shared marks an index borrowed from NewSlots' caller, copied before
	// the table first adds a name.
	index  map[string]int
	shared bool
}

// slotScanMax is the table size up to which Slot scans the names.
const slotScanMax = 16

// NewSlots returns a table whose first slots are names, which must be
// distinct. index, if non-nil, must map each name to its position. The
// table never writes to names' backing array or to index, so a shared,
// read-only name list can seed many tables.
func NewSlots(names []string, index map[string]int) *Slots {
	t := &Slots{names: slices.Clip(names), index: index, shared: index != nil}
	if index == nil && len(names) > slotScanMax {
		t.buildIndex()
	}
	return t
}

func (t *Slots) buildIndex() {
	t.index = make(map[string]int, 2*len(t.names))
	for i, n := range t.names {
		t.index[n] = i
	}
	t.shared = false
}

// Len returns the number of slots.
func (t *Slots) Len() int { return len(t.names) }

// Slot returns the slot number of name, or -1 if the table lacks it.
func (t *Slots) Slot(name string) int {
	if t.index != nil {
		if i, ok := t.index[name]; ok {
			return i
		}
		return -1
	}
	for i, n := range t.names {
		if n == name {
			return i
		}
	}
	return -1
}

// Add returns the slot number of name, giving it the next slot if the
// table lacks it.
func (t *Slots) Add(name string) int {
	if i := t.Slot(name); i >= 0 {
		return i
	}
	t.names = append(t.names, name)
	switch {
	case t.shared || (t.index == nil && len(t.names) > slotScanMax):
		t.buildIndex()
	case t.index != nil:
		t.index[name] = len(t.names) - 1
	}
	return len(t.names) - 1
}

// NewState returns an empty abstract state with a slot table of its own.
func NewState() *State { return NewStateFor(&Slots{}) }

// NewStateFor returns an empty state whose locals take their slots from t,
// with room for t's current names.
func NewStateFor(t *Slots) *State {
	return &State{Slots: t, Vars: make([]Local, t.Len())}
}

// Clone deep-copies the state's stores (object identities and the slot
// table are shared).
func (s *State) Clone() *State {
	c := &State{
		Slots:  s.Slots,
		Vars:   slices.Clone(s.Vars),
		Fields: slices.Clone(s.Fields),
	}
	if len(s.Heap) > 0 {
		c.Heap = make(map[*AObj]map[string]Value, len(s.Heap))
		for o, fs := range s.Heap {
			c.Heap[o] = maps.Clone(fs)
		}
	}
	return c
}

// LookupVar returns the abstract value of a local and whether it is bound.
func (s *State) LookupVar(name string) (Value, bool) {
	if i := s.Slots.Slot(name); i >= 0 && i < len(s.Vars) {
		return s.Vars[i].Value, s.Vars[i].Bound
	}
	return Value{}, false
}

// LookupField returns the abstract value of the this-field in slot i and
// whether it is bound.
func (s *State) LookupField(i int) (Value, bool) {
	if j, ok := s.fieldAt(i); ok {
		return s.Fields[j].Value, true
	}
	return Value{}, false
}

// fieldAt returns the position of slot i in Fields, or where it would be
// inserted, and whether it is bound.
func (s *State) fieldAt(i int) (int, bool) {
	lo, hi := 0, len(s.Fields)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.Fields[m].Slot < i {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(s.Fields) && s.Fields[lo].Slot == i
}

// SetVar binds a local variable, adding its name to the slot table if
// needed.
func (s *State) SetVar(name string, v Value) { s.Vars = bind(s.Vars, s.Slots.Add(name), v) }

// SetField binds the this-field in slot i.
func (s *State) SetField(i int, v Value) {
	if j, ok := s.fieldAt(i); ok {
		s.Fields[j].Value = v
	} else {
		s.Fields = slices.Insert(s.Fields, j, Field{Value: v, Slot: i})
	}
}

// SetHeapField binds field name of the abstract object o.
func (s *State) SetHeapField(o *AObj, name string, v Value) {
	fs := s.Heap[o]
	if fs == nil {
		if s.Heap == nil {
			s.Heap = map[*AObj]map[string]Value{}
		}
		fs = map[string]Value{}
		s.Heap[o] = fs
	}
	fs[name] = v
}

// bind binds slot i of ls to v, growing ls to reach it.
func bind(ls []Local, i int, v Value) []Local {
	for len(ls) <= i {
		ls = append(ls, Local{})
	}
	ls[i] = Local{Value: v, Bound: true}
	return ls
}

// joinSlot joins v into slot i of ls: a bound slot takes the join, an
// unbound one takes v.
func joinSlot(ar *ProvArena, ls []Local, i int, v Value) []Local {
	if i < len(ls) && ls[i].Bound {
		ls[i].Value = JoinIn(ar, ls[i].Value, v)
		return ls
	}
	return bind(ls, i, v)
}

// Join merges another state into this one pointwise (used when joining
// branch forks is preferred over path explosion; the analyzer joins only
// when the fork budget is exhausted). Unbound-on-one-side names degrade to
// the bound value (the paper's analysis is a may-analysis over features).
func (s *State) Join(o *State) { s.JoinIn(o, nil) }

// JoinIn is Join with any new provenance join nodes drawn from ar (nil ar
// falls back to the heap); the lattice result is identical to Join's.
// States sharing a slot table join locals slot by slot; others match
// locals by name. Fields always join slot by slot.
func (s *State) JoinIn(o *State, ar *ProvArena) {
	for i := range o.Vars {
		l := &o.Vars[i]
		if !l.Bound {
			continue
		}
		j := i
		if s.Slots != o.Slots {
			j = s.Slots.Add(o.Slots.names[i])
		}
		s.Vars = joinSlot(ar, s.Vars, j, l.Value)
	}
	for i := range o.Fields {
		f := &o.Fields[i]
		if j, ok := s.fieldAt(f.Slot); ok {
			s.Fields[j].Value = JoinIn(ar, s.Fields[j].Value, f.Value)
		} else {
			s.Fields = slices.Insert(s.Fields, j, *f)
		}
	}
	if len(o.Heap) > 0 && s.Heap == nil {
		s.Heap = make(map[*AObj]map[string]Value, len(o.Heap))
	}
	for obj, fs := range o.Heap {
		cur, ok := s.Heap[obj]
		if !ok {
			cur = map[string]Value{}
			s.Heap[obj] = cur
		}
		for k, v := range fs {
			if cv, ok := cur[k]; ok {
				cur[k] = JoinIn(ar, cv, v)
			} else {
				cur[k] = v
			}
		}
	}
}

// VarNames returns the bound local names in sorted order (deterministic
// iteration for tests and rendering).
func (s *State) VarNames() []string {
	var names []string
	for i, l := range s.Vars {
		if l.Bound {
			names = append(names, s.Slots.names[i])
		}
	}
	sort.Strings(names)
	return names
}
