package absdom

import (
	"fmt"
	"testing"
)

// TestStateBoundInvalidLocal pins that a local can be bound to an invalid
// value (the interpreter binds an undeclared name to a void call's result):
// LookupVar reports it bound, Clone keeps it bound, and a join with a state
// that lacks it keeps it bound on either side.
func TestStateBoundInvalidLocal(t *testing.T) {
	s := NewState()
	s.SetVar("x", Value{})
	if v, ok := s.LookupVar("x"); !ok || v.IsValid() {
		t.Fatalf("LookupVar(x) = %s, %t; want an invalid value, bound", v.Label(), ok)
	}
	if _, ok := s.LookupVar("y"); ok {
		t.Fatal("an unbound name reads as bound")
	}
	if _, ok := s.Clone().LookupVar("x"); !ok {
		t.Error("Clone dropped a local bound to an invalid value")
	}
	a, b := NewState(), NewState()
	a.SetVar("x", Value{})
	a.Join(b)
	if _, ok := a.LookupVar("x"); !ok {
		t.Error("join with a state lacking x unbound x")
	}
	b.Join(a)
	if v, ok := b.LookupVar("x"); !ok || v.IsValid() {
		t.Errorf("join imported x as %s, %t; want an invalid value, bound", v.Label(), ok)
	}
}

// TestStateJoinOneSided pins that a name bound on one side only takes the
// bound value itself, provenance included: no join node is made, in
// either join direction.
func TestStateJoinOneSided(t *testing.T) {
	p := NewProv(ProvLiteral, "A.java", 3, 9, `literal "DES"`, nil, nil)
	for _, bound := range []string{"left", "right"} {
		a, b := NewState(), NewState()
		a.SetVar("both", IntConst("1"))
		b.SetVar("both", IntConst("1"))
		side := a
		if bound == "right" {
			side = b
		}
		side.SetVar("x", StrConst("DES").WithProv(p))
		var ar ProvArena
		a.JoinIn(b, &ar)
		v, ok := a.LookupVar("x")
		if !ok || !v.Equal(StrConst("DES")) || v.Prov != p {
			t.Errorf("bound on the %s: joined x = %s (bound %t, prov %p); want \"DES\" with its own prov %p", bound, v.Label(), ok, v.Prov, p)
		}
		if v, _ := a.LookupVar("both"); !v.Equal(IntConst("1")) {
			t.Errorf("bound on the %s: joined both = %s, want 1", bound, v.Label())
		}
	}
}

// TestStateCloneIndependent pins that a clone and its original do not
// share any store: writes on either side, to existing and to new locals,
// this-fields, and heap objects, never show on the other.
func TestStateCloneIndependent(t *testing.T) {
	obj := &AObj{ID: 1, Type: "Cipher"}
	s := NewState()
	s.SetVar("x", StrConst("AES"))
	s.SetVar("y", IntConst("1"))
	s.SetField(0, IntConst("2"))
	s.SetHeapField(obj, "iv", ConstByteArr())
	c := s.Clone()

	s.SetVar("x", StrConst("DES"))
	s.SetVar("onlyS", TopInt())
	s.SetField(0, TopInt())
	s.SetHeapField(obj, "iv", TopByteArr())
	c.SetVar("y", IntConst("9"))
	c.SetVar("onlyC", TopStr())
	c.SetField(1, Null())
	c.SetHeapField(obj, "key", TopByteArr())

	for _, chk := range []struct {
		st   *State
		name string
		want Value
		ok   bool
	}{
		{c, "x", StrConst("AES"), true},
		{c, "onlyS", Value{}, false},
		{s, "y", IntConst("1"), true},
		{s, "onlyC", Value{}, false},
		{s, "x", StrConst("DES"), true},
		{c, "y", IntConst("9"), true},
	} {
		v, ok := chk.st.LookupVar(chk.name)
		if ok != chk.ok || (ok && !v.Equal(chk.want)) {
			side := "original"
			if chk.st == c {
				side = "clone"
			}
			t.Errorf("%s: %s = %s (bound %t), want %s (bound %t)", side, chk.name, v.Label(), ok, chk.want.Label(), chk.ok)
		}
	}
	if v, _ := c.LookupField(0); !v.Equal(IntConst("2")) {
		t.Error("a field write on the original reached the clone")
	}
	if _, ok := s.LookupField(1); ok {
		t.Error("a field write on the clone reached the original")
	}
	if !c.Heap[obj]["iv"].Equal(ConstByteArr()) {
		t.Error("a heap write on the original reached the clone")
	}
	if _, ok := s.Heap[obj]["key"]; ok {
		t.Error("a heap write on the clone reached the original")
	}
	if got := s.VarNames(); len(got) != 3 || got[0] != "onlyS" || got[1] != "x" || got[2] != "y" {
		t.Errorf("original VarNames = %v, want [onlyS x y]", got)
	}
	if got := c.VarNames(); len(got) != 3 || got[0] != "onlyC" || got[1] != "x" || got[2] != "y" {
		t.Errorf("clone VarNames = %v, want [onlyC x y]", got)
	}
}

// TestSlotsShareSeed checks that a table seeded with a shared name list and
// index numbers its names by position, adds a name after them, and never
// writes to the seed.
func TestSlotsShareSeed(t *testing.T) {
	for _, n := range []int{3, 40} {
		names := make([]string, n, n+8)
		var index map[string]int
		if n > slotScanMax {
			index = map[string]int{}
		}
		for i := range names {
			names[i] = fmt.Sprintf("v%d", i)
			if index != nil {
				index[names[i]] = i
			}
		}
		tab := NewSlots(names, index)
		if tab.Slot("v2") != 2 || tab.Slot("w") != -1 {
			t.Fatalf("%d names: Slot(v2) = %d, Slot(w) = %d; want 2, -1", n, tab.Slot("v2"), tab.Slot("w"))
		}
		if got := tab.Add("w"); got != n || tab.Slot("w") != n || tab.Add("v1") != 1 {
			t.Errorf("%d names: Add(w) = %d, Slot(w) = %d, Add(v1) = %d; want %d, %d, 1", n, got, tab.Slot("w"), tab.Add("v1"), n, n)
		}
		if _, ok := index["w"]; ok || names[:n+1][n] != "" {
			t.Errorf("%d names: Add wrote to the shared seed", n)
		}
	}
}
