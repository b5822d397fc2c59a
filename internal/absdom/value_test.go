package absdom

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/javatok"
)

func TestLabels(t *testing.T) {
	obj := &AObj{ID: 1, Type: "Cipher", Site: javatok.Pos{Line: 13}}
	cases := []struct {
		v    Value
		want string
	}{
		{IntConst("42"), "42"},
		{IntConst("ENCRYPT_MODE"), "ENCRYPT_MODE"},
		{TopInt(), "⊤int"},
		{StrConst("AES/CBC"), `"AES/CBC"`},
		{TopStr(), "⊤str"},
		{ConstByte(), "const_byte"},
		{TopByte(), "⊤byte"},
		{ConstByteArr(), "const_byte[]"},
		{TopByteArr(), "⊤byte[]"},
		{BoolConst(true), "true"},
		{Null(), "null"},
		{ObjRef(obj), "Cipher"},
		{TopObj("Secret"), "Secret"},
		{TopObj(""), "⊤obj"},
		{IntArrConst("1,2"), "int[]{1,2}"},
		{TopIntArr(), "⊤int[]"},
	}
	for _, c := range cases {
		if got := c.v.Label(); got != c.want {
			t.Errorf("Label(%v) = %q, want %q", c.v.Kind, got, c.want)
		}
	}
}

func TestEqual(t *testing.T) {
	o1 := &AObj{ID: 1, Type: "Cipher"}
	o2 := &AObj{ID: 2, Type: "Cipher"}
	if !StrConst("AES").Equal(StrConst("AES")) {
		t.Error("equal string constants not equal")
	}
	if StrConst("AES").Equal(StrConst("DES")) {
		t.Error("different string constants equal")
	}
	if StrConst("AES").Equal(TopStr()) {
		t.Error("const equal to top")
	}
	if !ObjRef(o1).Equal(ObjRef(o1)) {
		t.Error("same object not equal")
	}
	if ObjRef(o1).Equal(ObjRef(o2)) {
		t.Error("distinct allocation sites compare equal")
	}
	if !TopObj("Cipher").Equal(TopObj("Cipher")) {
		t.Error("same-typed top objects not equal")
	}
}

func TestJoinFlatLattice(t *testing.T) {
	cases := []struct {
		a, b, want Value
	}{
		{StrConst("AES"), StrConst("AES"), StrConst("AES")},
		{StrConst("AES"), StrConst("DES"), TopStr()},
		{StrConst("AES"), TopStr(), TopStr()},
		{IntConst("1"), IntConst("2"), TopInt()},
		{ConstByteArr(), TopByteArr(), TopByteArr()},
		{ConstByteArr(), ConstByteArr(), ConstByteArr()},
		{TopObj("Cipher"), TopObj("Cipher"), TopObj("Cipher")},
		{TopObj("Cipher"), TopObj("Mac"), TopObj("")},
	}
	for _, c := range cases {
		if got := Join(c.a, c.b); !got.Equal(c.want) {
			t.Errorf("Join(%s, %s) = %s, want %s",
				c.a.Label(), c.b.Label(), got.Label(), c.want.Label())
		}
	}
}

// Property: Join is commutative and idempotent on a generated value space.
func TestQuickJoinLaws(t *testing.T) {
	vals := []Value{
		IntConst("1"), IntConst("2"), TopInt(),
		StrConst("a"), StrConst("b"), TopStr(),
		ConstByte(), TopByte(), ConstByteArr(), TopByteArr(),
		BoolConst(true), Null(), TopObj("Cipher"), TopObj(""),
		IntArrConst("1"), TopIntArr(), StrArrConst("x"), TopStrArr(),
	}
	pick := func(i uint8) Value { return vals[int(i)%len(vals)] }
	comm := func(i, j uint8) bool {
		a, b := pick(i), pick(j)
		return Join(a, b).Equal(Join(b, a))
	}
	idem := func(i uint8) bool {
		a := pick(i)
		return Join(a, a).Equal(a)
	}
	assoc := func(i, j, k uint8) bool {
		a, b, c := pick(i), pick(j), pick(k)
		return Join(Join(a, b), c).Equal(Join(a, Join(b, c)))
	}
	upper := func(i, j uint8) bool {
		a, b := pick(i), pick(j)
		j1 := Join(a, b)
		// joining an operand into the join is a no-op (absorption)
		return Join(j1, a).Equal(j1) && Join(j1, b).Equal(j1)
	}
	for name, f := range map[string]any{
		"commutative": comm, "idempotent": idem, "associative": assoc,
		"upper-bound": upper,
	} {
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestTopOfType(t *testing.T) {
	cases := []struct {
		typ  string
		dims int
		want Kind
	}{
		{"byte", 1, KTopByteArr},
		{"byte", 0, KTopByte},
		{"int", 0, KTopInt},
		{"int", 1, KTopIntArr},
		{"String", 0, KTopStr},
		{"String", 1, KTopStrArr},
		{"char", 1, KTopByteArr},
		{"Cipher", 0, KTopObj},
		{"Key", 1, KTopObj},
		{"", 0, KTopObj},
	}
	for _, c := range cases {
		got := TopOfType(c.typ, c.dims)
		if got.Kind != c.want {
			t.Errorf("TopOfType(%q, %d).Kind = %v, want %v", c.typ, c.dims, got.Kind, c.want)
		}
	}
	if TopOfType("Cipher", 0).Type != "Cipher" {
		t.Error("object top lost its type")
	}
}

func TestStateCloneIsolation(t *testing.T) {
	s := NewState()
	obj := &AObj{ID: 1, Type: "Cipher"}
	s.SetVar("x", StrConst("AES"))
	s.SetField(0, ObjRef(obj))
	s.SetHeapField(obj, "iv", ConstByteArr())

	c := s.Clone()
	c.SetVar("x", StrConst("DES"))
	c.SetField(0, Null())
	c.SetHeapField(obj, "iv", TopByteArr())

	if v, _ := s.LookupVar("x"); !v.Equal(StrConst("AES")) {
		t.Error("clone mutated original var")
	}
	if v, _ := s.LookupField(0); !v.Equal(ObjRef(obj)) {
		t.Error("clone mutated original field")
	}
	if !s.Heap[obj]["iv"].Equal(ConstByteArr()) {
		t.Error("clone mutated original heap")
	}
}

func TestStateJoin(t *testing.T) {
	a := NewState()
	b := NewState()
	a.SetVar("mode", StrConst("AES"))
	b.SetVar("mode", StrConst("AES/CBC"))
	a.SetVar("onlyA", IntConst("1"))
	b.SetVar("onlyB", IntConst("2"))
	a.SetField(0, IntConst("1"))
	b.SetField(900, StrConst("C"))
	b.SetField(0, IntConst("2"))
	a.SetField(1, StrConst("A"))
	b.SetField(3, StrConst("B"))
	a.Join(b)
	for _, i := range []int{0, 1, 2, 3, 899, 900, 901} {
		want := map[int]Value{0: TopInt(), 1: StrConst("A"), 3: StrConst("B"), 900: StrConst("C")}[i]
		v, ok := a.LookupField(i)
		if ok != want.IsValid() || !v.Equal(want) {
			t.Errorf("joined field slot %d = %s (bound %t), want %s", i, v.Label(), ok, want.Label())
		}
	}
	// A state holds only its bound fields, in slot order, however high
	// their slots are numbered.
	var slots []int
	for _, f := range a.Fields {
		slots = append(slots, f.Slot)
	}
	if !slices.Equal(slots, []int{0, 1, 3, 900}) {
		t.Errorf("joined field slots = %v, want [0 1 3 900]", slots)
	}
	if v, _ := a.LookupVar("mode"); !v.Equal(TopStr()) {
		t.Errorf("joined mode = %s, want ⊤str", v.Label())
	}
	if v, _ := a.LookupVar("onlyA"); !v.Equal(IntConst("1")) {
		t.Error("one-sided binding lost")
	}
	if v, _ := a.LookupVar("onlyB"); !v.Equal(IntConst("2")) {
		t.Error("other-side binding not imported")
	}
}

func TestVarNamesSorted(t *testing.T) {
	s := NewState()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		s.SetVar(n, TopInt())
	}
	got := s.VarNames()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("VarNames = %v, want %v", got, want)
		}
	}
}

func TestIsTopIsConstPartition(t *testing.T) {
	// Every non-object value is exactly one of: top, const (booleans and
	// null count as constants); object values are neither const nor (for
	// allocation-site refs) top.
	obj := &AObj{ID: 1, Type: "Cipher"}
	vals := []Value{
		IntConst("1"), TopInt(), StrConst("a"), TopStr(),
		IntArrConst("1"), TopIntArr(), StrArrConst("x"), TopStrArr(),
		ConstByte(), TopByte(), ConstByteArr(), TopByteArr(),
		BoolConst(true), Null(), ObjRef(obj), TopObj("T"), TopObj(""),
	}
	for _, v := range vals {
		if v.IsTop() && v.IsConst() {
			t.Errorf("%s is both top and const", v.Label())
		}
	}
	if ObjRef(obj).IsTop() || ObjRef(obj).IsConst() {
		t.Error("object refs are neither top nor const")
	}
	if !TopObj("T").IsTop() {
		t.Error("⊤obj must be top")
	}
	if (Value{}).IsValid() {
		t.Error("zero value must be invalid")
	}
	if got := (Value{}).Label(); got != "<invalid>" {
		t.Errorf("invalid label = %q", got)
	}
}

func TestSiteLabel(t *testing.T) {
	o := &AObj{ID: 3, Type: "Cipher", Site: javatok.Pos{Line: 13}}
	if got := o.SiteLabel(); got != "Cipher@l13" {
		t.Errorf("SiteLabel = %q", got)
	}
}

func TestJoinWithInvalid(t *testing.T) {
	v := StrConst("AES")
	if got := Join(Value{}, v); !got.Equal(v) {
		t.Error("join with invalid (left) should keep the valid side")
	}
	if got := Join(v, Value{}); !got.Equal(v) {
		t.Error("join with invalid (right) should keep the valid side")
	}
}

func TestJoinObjWithBase(t *testing.T) {
	obj := &AObj{ID: 1, Type: "Cipher"}
	got := Join(ObjRef(obj), StrConst("AES"))
	if got.Kind != KTopObj {
		t.Errorf("obj ⊔ string = %v, want ⊤obj", got.Kind)
	}
	got = Join(ObjRef(obj), ObjRef(&AObj{ID: 2, Type: "Cipher"}))
	if !got.Equal(TopObj("Cipher")) {
		t.Errorf("two ciphers join to %s, want Cipher ⊤obj", got.Label())
	}
}
