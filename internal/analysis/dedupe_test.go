package analysis

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/absdom"
	"repro/internal/cryptoapi"
	"repro/internal/javatok"
)

// eventKey renders an event's identity as a string: the signature, then
// each argument's label, or for an object argument its allocation site and
// ID. It is the reference record's deduplication must agree with, and the
// event rendering of the result-comparing tests.
func eventKey(e Event) string {
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

// identityEvents returns events whose arguments cover every absdom.Kind,
// labels that coincide across kinds, objects that differ only in ID or
// line, and argument lists whose rendered keys shift bytes between
// arguments, under signatures that differ in name, parameters and the
// fields keys ignore.
func identityEvents() []Event {
	c1 := &absdom.AObj{ID: 1, Type: "Cipher", Site: javatok.Pos{Line: 7, Offset: 90}}
	c2 := &absdom.AObj{ID: 2, Type: "Cipher", Site: javatok.Pos{Line: 7, Offset: 95}}
	c3 := &absdom.AObj{ID: 1, Type: "Cipher", Site: javatok.Pos{Line: 8, Offset: 90}}
	k1 := &absdom.AObj{ID: 1, Type: "Key", Site: javatok.Pos{Line: 7, Offset: 90}}
	vals := []absdom.Value{
		{},
		absdom.IntConst("1"), absdom.IntConst("true"), absdom.IntConst("Cipher"),
		absdom.IntConst("⊤int"), absdom.IntConst("null"), absdom.IntConst("const_byte"),
		absdom.IntConst("<invalid>"), absdom.IntConst(""), absdom.IntConst("a|b"),
		absdom.TopInt(),
		absdom.StrConst("AES"), absdom.StrConst(""), absdom.StrConst(`a"|"b`),
		absdom.StrConst("a"), absdom.StrConst("b"), absdom.TopStr(),
		absdom.IntArrConst("1,2"), absdom.IntArrConst("const"), absdom.TopIntArr(),
		absdom.StrArrConst("a,b"), absdom.StrArrConst("const"), absdom.TopStrArr(),
		absdom.ConstByte(), absdom.TopByte(), absdom.ConstByteArr(), absdom.TopByteArr(),
		absdom.BoolConst(true), absdom.BoolConst(false), absdom.Null(),
		absdom.ObjRef(c1), absdom.ObjRef(c2), absdom.ObjRef(c3), absdom.ObjRef(k1),
		absdom.TopObj(""), absdom.TopObj("Cipher"), absdom.TopObj("Key"),
		// Equal labels from fields a label ignores.
		{Kind: absdom.KIntConst, Payload: "1", Type: "int"},
		{Kind: absdom.KTopInt, Payload: "x"},
		{Kind: absdom.KObj, Obj: c1, Type: "Other"},
	}
	var argLists [][]absdom.Value
	argLists = append(argLists, nil)
	for _, v := range vals {
		argLists = append(argLists, []absdom.Value{v})
	}
	for _, pair := range [][2]absdom.Value{
		{absdom.StrConst("a"), absdom.StrConst("b")},
		{absdom.IntConst("a"), absdom.IntConst("b")},
		{absdom.IntConst("1"), absdom.BoolConst(true)},
		{absdom.IntConst("1"), absdom.IntConst("true")},
		{absdom.ObjRef(c1), absdom.ObjRef(k1)},
		{absdom.ObjRef(c2), absdom.ObjRef(k1)},
		{absdom.IntConst(""), absdom.IntConst("")},
	} {
		argLists = append(argLists, pair[:])
	}
	sigs := []cryptoapi.MethodSig{
		{Class: "Cipher", Name: "init", Params: []string{"int", "Key"}},
		{Class: "Cipher", Name: "init", Params: []string{"int", "Key"}, Static: true, Ret: "Cipher"},
		{Class: "Cipher", Name: "init", Params: []string{"int,Key"}},
		{Class: "Cipher", Name: "init"},
		{Class: "Cipher", Name: "doFinal", Params: []string{"byte[]"}},
		{Class: "Cipher.init", Name: "", Params: []string{"int", "Key"}},
	}
	var evs []Event
	for _, sig := range sigs {
		for i, args := range argLists {
			evs = append(evs, Event{Sig: sig, Args: args, File: fmt.Sprintf("F%d.java", i%3), Pos: javatok.Pos{Line: int32(i)}})
		}
	}
	return evs
}

// TestRecordDedupeMatchesKey pins record's deduplication to key equality:
// recording two events on one object keeps one exactly when their keys
// are equal, over every pair of identityEvents.
func TestRecordDedupeMatchesKey(t *testing.T) {
	evs := identityEvents()
	keys := make([]string, len(evs))
	for i, e := range evs {
		keys[i] = eventKey(e)
	}
	o := &absdom.AObj{ID: 99, Type: "Cipher"}
	same, pairs := 0, 0
	for i := range evs {
		for j := range evs {
			an := &analyzer{}
			an.record(o, evs[i])
			an.record(o, evs[j])
			want := 2
			if keys[i] == keys[j] {
				want = 1
				if i != j {
					same++
				}
			}
			if got := len(an.events[o]); got != want {
				t.Errorf("record(%q) then record(%q) kept %d events, want %d", keys[i], keys[j], got, want)
			}
			pairs++
		}
	}
	// The set must exercise cross-kind and shifted-byte collisions, not
	// only repeats of one event.
	if same < 100 {
		t.Errorf("only %d distinct pairs of %d share a key; the generated set lost its collisions", same, pairs)
	}
}

// TestEntryMethodsWideArity checks entry detection at and past 64
// arguments: a 70-argument call makes the 70-parameter overload called and
// leaves the uncalled 69-parameter one an entry, and likewise for a
// 64-argument call beside a 63-parameter overload.
func TestEntryMethodsWideArity(t *testing.T) {
	list := func(n int, f func(i int) string) string {
		xs := make([]string, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return strings.Join(xs, ", ")
	}
	params := func(n int) string { return list(n, func(i int) string { return fmt.Sprintf("int p%d", i) }) }
	args := func(n int) string { return list(n, strconv.Itoa) }
	src := fmt.Sprintf(`class W {
    void run() { h(%s); g(%s); }
    void h(%s) { }
    void h(%s) { }
    void g(%s) { }
    void g(%s) { }
}`, args(70), args(64), params(69), params(70), params(63), params(64))
	an := newAnalyzer(ParseProgram(map[string]string{"W.java": src}), Options{}.withDefaults())
	var got []string
	for _, m := range an.entryMethods(an.classes["W"]) {
		got = append(got, fmt.Sprintf("%s/%d", m.Name, len(m.Params)))
	}
	if want := "run/0 h/69 g/63"; strings.Join(got, " ") != want {
		t.Errorf("entries = %v, want %s", got, want)
	}
}
