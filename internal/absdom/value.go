// Package absdom implements the program abstraction of the paper's §3.3:
// a per-allocation-site heap abstraction for objects and the base-type
// abstraction of Figure 3 (integer/string constants kept, byte values and
// byte arrays collapsed to const/⊤). Abstract values label the argument
// nodes of usage DAGs, so their Label strings are part of the feature
// language the filters and the clustering metric operate on.
package absdom

import (
	"fmt"

	"repro/internal/javatok"
)

// Kind discriminates abstract values.
type Kind int

// Abstract value kinds, mirroring Figure 3 of the paper plus object values.
const (
	KInvalid Kind = iota

	KIntConst // an element of Ints(P), possibly symbolic (ENCRYPT_MODE)
	KTopInt   // ⊤int

	KStrConst // an element of Strs(P)
	KTopStr   // ⊤str

	KIntArrConst // an element of IntArrays(P)
	KTopIntArr   // ⊤int[]

	KStrArrConst // an element of StrArrays(P)
	KTopStrArr   // ⊤str[]

	KConstByte // const_byte
	KTopByte   // ⊤byte

	KConstByteArr // const_byte[]
	KTopByteArr   // ⊤byte[]

	KBoolConst // true / false (kept, they often gate API configuration)
	KNull      // null literal

	KObj    // reference to an abstract object (allocation site known)
	KTopObj // ⊤obj: object of (statically) known type, unknown allocation
)

// AObj is an abstract object identified by its allocation site (the paper's
// per-allocation-site heap abstraction; objects are labeled by the
// statement's label, here the source position). Events are attached by the
// analyzer and consumed by the DAG builder.
type AObj struct {
	ID   int         // unique within one analyzed program version
	Type string      // simple class name, e.g. "Cipher"
	Site javatok.Pos // allocation site
	File int32       // allocation site's file: its index in the analyzed program
}

// SiteLabel renders the allocation-site identity, e.g. "Cipher@l13".
func (o *AObj) SiteLabel() string {
	return fmt.Sprintf("%s@l%d", o.Type, o.Site.Line)
}

// Value is an abstract value. The zero Value is invalid.
type Value struct {
	Kind Kind
	// Payload holds the constant for KIntConst/KStrConst/KBoolConst
	// (source form, e.g. "42", "AES/CBC", "ENCRYPT_MODE", "true"),
	// or a canonical rendering for array constants.
	Payload string
	// Obj is set for KObj.
	Obj *AObj
	// Type is the static type name for KObj/KTopObj when known.
	Type string
	// Prov is the value's flow provenance (nil when tracking is off).
	// It is observation-only: Equal, Label, and event keys ignore it.
	Prov *Prov
}

// WithProv returns the value carrying the given provenance.
func (v Value) WithProv(p *Prov) Value {
	v.Prov = p
	return v
}

// Constructors.

// IntConst returns the abstract value for an integer constant; payload may
// be symbolic (an API constant name).
func IntConst(v string) Value { return Value{Kind: KIntConst, Payload: v} }

// TopInt returns ⊤int.
func TopInt() Value { return Value{Kind: KTopInt} }

// StrConst returns the abstract value for a string constant.
func StrConst(s string) Value { return Value{Kind: KStrConst, Payload: s} }

// TopStr returns ⊤str.
func TopStr() Value { return Value{Kind: KTopStr} }

// IntArrConst returns a constant int-array value with a canonical payload.
func IntArrConst(payload string) Value { return Value{Kind: KIntArrConst, Payload: payload} }

// TopIntArr returns ⊤int[].
func TopIntArr() Value { return Value{Kind: KTopIntArr} }

// StrArrConst returns a constant String-array value.
func StrArrConst(payload string) Value { return Value{Kind: KStrArrConst, Payload: payload} }

// TopStrArr returns ⊤str[].
func TopStrArr() Value { return Value{Kind: KTopStrArr} }

// ConstByte returns const_byte.
func ConstByte() Value { return Value{Kind: KConstByte} }

// TopByte returns ⊤byte.
func TopByte() Value { return Value{Kind: KTopByte} }

// ConstByteArr returns const_byte[] — the abstraction of hard-coded keys,
// IVs, salts and seeds that rules R9–R12 match on.
func ConstByteArr() Value { return Value{Kind: KConstByteArr} }

// TopByteArr returns ⊤byte[].
func TopByteArr() Value { return Value{Kind: KTopByteArr} }

// BoolConst returns an abstract boolean constant.
func BoolConst(v bool) Value {
	if v {
		return Value{Kind: KBoolConst, Payload: "true"}
	}
	return Value{Kind: KBoolConst, Payload: "false"}
}

// Null returns the abstract null.
func Null() Value { return Value{Kind: KNull} }

// ObjRef returns a reference to an abstract object.
func ObjRef(o *AObj) Value { return Value{Kind: KObj, Obj: o, Type: o.Type} }

// TopObj returns ⊤obj of the given static type ("" when unknown).
func TopObj(typ string) Value { return Value{Kind: KTopObj, Type: typ} }

// IsValid reports whether the value carries a kind.
func (v Value) IsValid() bool { return v.Kind != KInvalid }

// IsTop reports whether the value is one of the ⊤ elements.
func (v Value) IsTop() bool {
	switch v.Kind {
	case KTopInt, KTopStr, KTopIntArr, KTopStrArr, KTopByte, KTopByteArr, KTopObj:
		return true
	}
	return false
}

// IsConst reports whether the value is a (possibly collapsed) constant.
func (v Value) IsConst() bool {
	switch v.Kind {
	case KIntConst, KStrConst, KIntArrConst, KStrArrConst, KConstByte,
		KConstByteArr, KBoolConst, KNull:
		return true
	}
	return false
}

// Label renders the value as it appears in DAG node labels and rule
// predicates. Constants render their payload; ⊤ values render as the
// paper's ⊤-with-type notation.
func (v Value) Label() string {
	pre, mid, suf := v.labelParts()
	// At most one part is non-empty except for quoted and array constants,
	// so only those concatenate.
	return pre + mid + suf
}

// AppendLabel appends Label() to b without building the label string.
func (v Value) AppendLabel(b []byte) []byte {
	pre, mid, suf := v.labelParts()
	return append(append(append(b, pre...), mid...), suf...)
}

// labelParts returns the label as its constant prefix, dynamic middle and
// constant suffix.
func (v Value) labelParts() (pre, mid, suf string) {
	switch v.Kind {
	case KIntConst, KBoolConst:
		return "", v.Payload, ""
	case KTopInt:
		return "⊤int", "", ""
	case KStrConst:
		return "\"", v.Payload, "\""
	case KTopStr:
		return "⊤str", "", ""
	case KIntArrConst:
		return "int[]{", v.Payload, "}"
	case KTopIntArr:
		return "⊤int[]", "", ""
	case KStrArrConst:
		return "String[]{", v.Payload, "}"
	case KTopStrArr:
		return "⊤str[]", "", ""
	case KConstByte:
		return "const_byte", "", ""
	case KTopByte:
		return "⊤byte", "", ""
	case KConstByteArr:
		return "const_byte[]", "", ""
	case KTopByteArr:
		return "⊤byte[]", "", ""
	case KNull:
		return "null", "", ""
	case KObj:
		return "", v.Obj.Type, ""
	case KTopObj:
		if v.Type == "" {
			return "⊤obj", "", ""
		}
		return "", v.Type, ""
	default:
		return "<invalid>", "", ""
	}
}

// Literal label shapes: "literal " + Label(), with the quoting fragments
// hoisted into the shape so recording never concatenates.
var (
	litShapePlain  = &LabelShape{Pre: "literal "}
	litShapeStr    = &LabelShape{Pre: "literal \"", Suf: "\""}
	litShapeIntArr = &LabelShape{Pre: "literal int[]{", Suf: "}"}
	litShapeStrArr = &LabelShape{Pre: "literal String[]{", Suf: "}"}
)

// LiteralShape returns the provenance label of the value as a literal
// definition: a constant shape plus the dynamic payload, rendering exactly
// "literal " + Label().
func (v Value) LiteralShape() (*LabelShape, string) {
	switch v.Kind {
	case KStrConst:
		return litShapeStr, v.Payload
	case KIntArrConst:
		return litShapeIntArr, v.Payload
	case KStrArrConst:
		return litShapeStrArr, v.Payload
	default:
		// Every other case of Label returns a constant or the payload
		// itself — no concatenation to avoid.
		return litShapePlain, v.Label()
	}
}

// Equal reports semantic equality of two abstract values. Object references
// compare by allocation site identity.
func (v Value) Equal(w Value) bool {
	if v.Kind != w.Kind {
		return false
	}
	switch v.Kind {
	case KObj:
		return v.Obj == w.Obj
	case KTopObj:
		return v.Type == w.Type
	default:
		return v.Payload == w.Payload
	}
}

// Join computes the least upper bound of two values in the flat lattices of
// Figure 3: equal values join to themselves, differing values of the same
// base family join to that family's ⊤, and anything else joins to a typed
// or untyped ⊤obj. Provenance of the two sides merges into a join step;
// when neither side carries provenance the result carries none, so the
// lattice result is untouched by tracking.
func Join(v, w Value) Value {
	out := joinLattice(v, w)
	if v.Prov != nil || w.Prov != nil {
		out.Prov = JoinProv(v.Prov, w.Prov)
	}
	return out
}

// JoinIn is Join with any new join-step node drawn from ar (nil ar falls
// back to the heap). The lattice result is identical to Join's.
func JoinIn(ar *ProvArena, v, w Value) Value {
	out := joinLattice(v, w)
	if v.Prov != nil || w.Prov != nil {
		if ar != nil {
			out.Prov = ar.JoinProv(v.Prov, w.Prov)
		} else {
			out.Prov = JoinProv(v.Prov, w.Prov)
		}
	}
	return out
}

func joinLattice(v, w Value) Value {
	if v.Equal(w) {
		return v
	}
	if !v.IsValid() {
		return w
	}
	if !w.IsValid() {
		return v
	}
	if fam, ok := sameFamilyTop(v, w); ok {
		return fam
	}
	if v.Kind == KObj || v.Kind == KTopObj || w.Kind == KObj || w.Kind == KTopObj {
		vt, wt := v.Type, w.Type
		if vt == wt {
			return TopObj(vt)
		}
		return TopObj("")
	}
	return TopObj("")
}

func sameFamilyTop(v, w Value) (Value, bool) {
	fam := func(k Kind) Kind {
		switch k {
		case KIntConst, KTopInt:
			return KTopInt
		case KStrConst, KTopStr:
			return KTopStr
		case KIntArrConst, KTopIntArr:
			return KTopIntArr
		case KStrArrConst, KTopStrArr:
			return KTopStrArr
		case KConstByte, KTopByte:
			return KTopByte
		case KConstByteArr, KTopByteArr:
			return KTopByteArr
		case KBoolConst:
			return KTopInt // booleans fold into the int lattice at joins
		}
		return KInvalid
	}
	fv, fw := fam(v.Kind), fam(w.Kind)
	if fv != KInvalid && fv == fw {
		return Value{Kind: fv}, true
	}
	return Value{}, false
}

// TopOfType returns the ⊤ element matching a declared Java type, used when
// an unanalyzable expression (unknown call, parameter, ...) is assigned to a
// variable of known declared type. Object types map to ⊤obj of that type.
func TopOfType(typeName string, dims int) Value {
	if dims > 0 {
		switch typeName {
		case "byte":
			return TopByteArr()
		case "int", "long", "short":
			return TopIntArr()
		case "String":
			return TopStrArr()
		case "char":
			// char[] carries passwords (PBEKeySpec); abstracted like byte[].
			return TopByteArr()
		default:
			return TopObj(typeName + "[]")
		}
	}
	switch typeName {
	case "byte":
		return TopByte()
	case "int", "long", "short", "char", "boolean":
		return TopInt()
	case "String":
		return TopStr()
	case "float", "double":
		return TopInt()
	case "", "var", "void":
		return TopObj("")
	default:
		return TopObj(typeName)
	}
}
