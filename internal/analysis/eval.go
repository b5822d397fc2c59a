package analysis

import (
	"strconv"
	"strings"

	"repro/internal/absdom"
	"repro/internal/cryptoapi"
	"repro/internal/javaast"
)

// eval computes the abstract value of an expression in state st, recording
// API usage events and allocating abstract objects as side effects.
func (an *analyzer) eval(e javaast.Expr, st *absdom.State, fr *frame) absdom.Value {
	an.step()
	switch x := e.(type) {
	case nil:
		return absdom.Value{}

	case *javaast.Literal:
		v := literalValue(x)
		if an.provOn {
			sh, name := v.LiteralShape()
			v.Prov = an.prov0(absdom.ProvLiteral, x, sh, name)
		}
		return v

	case *javaast.Name:
		if v, ok := st.LookupVar(x.Ident); ok {
			return v
		}
		if v, ok := an.lookupField(fr.ci, x.Ident, st); ok {
			return v
		}
		return absdom.TopObj("")

	case *javaast.FieldAccess:
		return an.evalFieldAccess(x, st, fr)

	case *javaast.Call:
		return an.evalCall(x, st, fr)

	case *javaast.New:
		return an.evalNew(x, st, fr)

	case *javaast.NewArray:
		return an.evalNewArray(x, st, fr)

	case *javaast.ArrayInit:
		// Bare initializer; element type comes from the declaration, which
		// refine() fixes afterward. Byte-ish is the common crypto case.
		allConst := true
		for _, el := range x.Elems {
			if !an.eval(el, st, fr).IsConst() {
				allConst = false
			}
		}
		var v absdom.Value
		if allConst {
			v = absdom.ConstByteArr()
		} else {
			v = absdom.TopByteArr()
		}
		if an.provOn {
			v.Prov = an.prov0(absdom.ProvLiteral, x, nil, "array initializer {...}")
		}
		return v

	case *javaast.Index:
		v := an.eval(x.X, st, fr)
		an.eval(x.I, st, fr)
		var el absdom.Value
		switch v.Kind {
		case absdom.KConstByteArr:
			el = absdom.ConstByte()
		case absdom.KTopByteArr:
			el = absdom.TopByte()
		case absdom.KIntArrConst, absdom.KTopIntArr:
			el = absdom.TopInt()
		case absdom.KStrArrConst, absdom.KTopStrArr:
			el = absdom.TopStr()
		default:
			el = absdom.TopObj("")
		}
		if an.provOn && v.Prov != nil {
			el.Prov = an.prov1(absdom.ProvDerived, x, nil, "array element", v.Prov)
		}
		return el

	case *javaast.Binary:
		l := an.eval(x.L, st, fr)
		r := an.eval(x.R, st, fr)
		v := foldBinary(x.Op, l, r)
		if an.provOn && (l.Prov != nil || r.Prov != nil) {
			v.Prov = an.prov2(absdom.ProvDerived, x, shOperator, x.Op, l.Prov, r.Prov)
		}
		return v

	case *javaast.Unary:
		v := an.eval(x.X, st, fr)
		u := foldUnary(x.Op, v)
		if an.provOn && v.Prov != nil {
			u.Prov = an.prov1(absdom.ProvDerived, x, shOperator, x.Op, v.Prov)
		}
		return u

	case *javaast.Assign:
		return an.evalAssign(x, st, fr)

	case *javaast.Cond:
		an.eval(x.C, st, fr)
		t := an.eval(x.T, st, fr)
		f := an.eval(x.F, st, fr)
		return absdom.JoinIn(&an.provArena, t, f)

	case *javaast.Cast:
		v := an.eval(x.X, st, fr)
		// A cast asserts the value's runtime type: any unknown object value
		// refines to the ⊤ of the cast target (e.g. (byte[]) loaded()).
		if !v.IsValid() || v.Kind == absdom.KTopObj {
			c := absdom.TopOfType(x.Type.Base(), x.Type.Dims)
			if an.provOn && v.Prov != nil {
				c.Prov = an.prov1(absdom.ProvDerived, x, shCast, x.Type.Base(), v.Prov)
			}
			return c
		}
		return v

	case *javaast.InstanceOf:
		an.eval(x.X, st, fr)
		return absdom.TopInt()

	case *javaast.This:
		return absdom.TopObj(fr.ci.decl.Name)
	case *javaast.Super:
		return absdom.TopObj("")

	case *javaast.ClassLit:
		return absdom.TopObj("Class")
	case *javaast.Lambda:
		return absdom.TopObj("")
	case *javaast.MethodRef:
		return absdom.TopObj("")

	default:
		return absdom.Value{}
	}
}

func literalValue(x *javaast.Literal) absdom.Value {
	switch x.Kind {
	case javaast.IntLit, javaast.LongLit, javaast.FloatLit, javaast.DoubleLit:
		return absdom.IntConst(x.Value)
	case javaast.CharLit:
		return absdom.ConstByte()
	case javaast.StringLit:
		return absdom.StrConst(x.Value)
	case javaast.BoolLit:
		return absdom.BoolConst(x.Value == "true")
	case javaast.NullLit:
		return absdom.Null()
	}
	return absdom.Value{}
}

// ---------------------------------------------------------------------------
// Field access
// ---------------------------------------------------------------------------

// lookupField resolves an unqualified field name in the current class,
// falling back to the declared-type ⊤ for unbound fields.
func (an *analyzer) lookupField(ci *classInfo, name string, st *absdom.State) (absdom.Value, bool) {
	f, ok := ci.field(name)
	if !ok {
		return absdom.Value{}, false
	}
	if v, bound := st.LookupField(f.slot); bound {
		return v, true
	}
	v := absdom.TopOfType(f.decl.Type.Base(), f.decl.Type.Dims)
	if an.provOn {
		v.Prov = an.prov0x(absdom.ProvField, f.decl, shFieldUnbound, ci.decl.Name, name)
	}
	return v, true
}

func (an *analyzer) evalFieldAccess(x *javaast.FieldAccess, st *absdom.State, fr *frame) absdom.Value {
	// this.f
	if _, isThis := x.X.(*javaast.This); isThis {
		if v, ok := an.lookupField(fr.ci, x.Name, st); ok {
			return v
		}
		return absdom.TopObj("")
	}
	// Qualified constant (Cipher.ENCRYPT_MODE, Build.VERSION.SDK_INT, ...).
	if qual, ok := flattenName(x.X); ok {
		full := qual + "." + x.Name
		if sym, known := cryptoapi.LookupConstant(full); known {
			return absdom.IntConst(sym)
		}
		base := lastSegment(qual)
		// Static field of a program class: evaluate its initializer once.
		if ci2, isClass := an.classes[base]; isClass && !an.isShadowed(base, st, fr) {
			if f, has := ci2.field(x.Name); has {
				return an.staticFieldValue(ci2, f.decl)
			}
		}
		// API-class or conventional ALL_CAPS constant: keep it symbolic.
		if isClassLike(base) && isAllCaps(x.Name) {
			return absdom.IntConst(x.Name)
		}
	}
	// Heap access through an object value.
	v := an.eval(x.X, st, fr)
	if v.Kind == absdom.KObj {
		if fs, ok := st.Heap[v.Obj]; ok {
			if fv, ok := fs[x.Name]; ok {
				return fv
			}
		}
		return absdom.TopObj("")
	}
	if v.Kind == absdom.KStrConst || v.Kind == absdom.KTopStr {
		// String has no interesting fields; .length etc.
		return absdom.TopInt()
	}
	if isAllCaps(x.Name) {
		return absdom.IntConst(x.Name)
	}
	return absdom.TopObj("")
}

// staticFieldValue evaluates (and caches) the initializer of a static-ish
// field accessed cross-class. A cycle guard breaks mutual recursion. Under
// provenance the cached chain is shared by every later read and the cache
// is outside summary keys, so every in-flight recording is unportable.
func (an *analyzer) staticFieldValue(ci *classInfo, fd *javaast.FieldDecl) absdom.Value {
	if an.provOn {
		for _, r := range an.recs {
			r.unportable = true
		}
	}
	if an.constCache == nil {
		an.constCache = map[*javaast.FieldDecl]absdom.Value{}
		an.constBusy = map[*javaast.FieldDecl]bool{}
	}
	if v, ok := an.constCache[fd]; ok {
		return v
	}
	if an.constBusy[fd] || fd.Init == nil {
		return absdom.TopOfType(fd.Type.Base(), fd.Type.Dims)
	}
	an.constBusy[fd] = true
	savedFile := an.curFile
	an.curFile = ci.file
	tmp := absdom.NewState()
	tmpFr := an.newFrame(ci, tmp)
	v := refine(an.eval(fd.Init, tmp, tmpFr), fd.Type)
	if an.provOn {
		v.Prov = an.prov1x(absdom.ProvField, fd, shStaticField, ci.decl.Name, fd.Name, v.Prov)
	}
	an.curFile = savedFile
	an.constBusy[fd] = false
	an.constCache[fd] = v
	return v
}

// isShadowed reports whether a class-like name is shadowed by a local or
// field binding.
func (an *analyzer) isShadowed(name string, st *absdom.State, fr *frame) bool {
	if _, ok := st.LookupVar(name); ok {
		return true
	}
	_, ok := fr.ci.field(name)
	return ok
}

// flattenName renders a Name/FieldAccess chain as a dotted string.
func flattenName(e javaast.Expr) (string, bool) {
	switch x := e.(type) {
	case *javaast.Name:
		return x.Ident, true
	case *javaast.FieldAccess:
		if base, ok := flattenName(x.X); ok {
			return base + "." + x.Name, true
		}
	}
	return "", false
}

func lastSegment(s string) string {
	if i := strings.LastIndexByte(s, '.'); i >= 0 {
		return s[i+1:]
	}
	return s
}

func isClassLike(name string) bool {
	return name != "" && name[0] >= 'A' && name[0] <= 'Z'
}

func isAllCaps(name string) bool {
	hasLetter := false
	for _, r := range name {
		if r >= 'a' && r <= 'z' {
			return false
		}
		if r >= 'A' && r <= 'Z' {
			hasLetter = true
		}
	}
	return hasLetter
}

// ---------------------------------------------------------------------------
// Calls and allocations
// ---------------------------------------------------------------------------

func (an *analyzer) evalCall(c *javaast.Call, st *absdom.State, fr *frame) absdom.Value {
	args := make([]absdom.Value, len(c.Args))
	for i, a := range c.Args {
		args[i] = an.eval(a, st, fr)
	}

	// Unqualified or this-qualified call: same-class method, inlined.
	_, recvIsThis := c.Recv.(*javaast.This)
	if c.Recv == nil || recvIsThis {
		if ms := an.pickMethod(fr.ci, c.Name, len(args)); ms != nil {
			ret := an.inlineCall(fr.ci, ms, args, st)
			if an.provOn && ret.Prov != nil {
				ret.Prov = an.prov1(absdom.ProvCall, c, shInlined, c.Name, ret.Prov)
			}
			return ret
		}
		return absdom.TopObj("")
	}
	if _, isSuper := c.Recv.(*javaast.Super); isSuper {
		return absdom.TopObj("")
	}

	// Static call on a class reference (API class, program class, or
	// qualified name like javax.crypto.Cipher).
	if qual, ok := flattenName(c.Recv); ok {
		base := lastSegment(qual)
		if !an.isShadowed(base, st, fr) {
			if cryptoapi.IsAPIClass(base) {
				return an.apiStaticCall(base, c, args)
			}
			if ci2, isClass := an.classes[base]; isClass {
				if ms := an.pickMethod(ci2, c.Name, len(args)); ms != nil {
					ret := an.inlineCall(ci2, ms, args, st)
					if an.provOn && ret.Prov != nil {
						ret.Prov = an.prov1x(absdom.ProvCall, c, shInlinedQual, base, c.Name, ret.Prov)
					}
					return ret
				}
				return absdom.TopObj("")
			}
			if v, ok := foldWellKnownStatic(base, c.Name, args); ok {
				if an.provOn {
					p0, p1 := argProvs(args)
					v.Prov = an.prov2x(absdom.ProvCall, c, shCallQual, base, c.Name, p0, p1)
				}
				return v
			}
		}
	}
	// Decoder-instance chains: Base64.getDecoder().decode("...").
	if v, ok := an.foldDecoderChain(c, args, st, fr); ok {
		if an.provOn {
			p0, p1 := argProvs(args)
			v.Prov = an.prov2(absdom.ProvCall, c, shBase64, c.Name, p0, p1)
		}
		return v
	}

	// Instance call through an object value.
	recv := an.eval(c.Recv, st, fr)
	if recv.Kind == absdom.KStrConst {
		v := foldStringMethod(recv.Payload, c.Name, args)
		if an.provOn {
			p0, _ := argProvs(args)
			v.Prov = an.prov2(absdom.ProvCall, c, shStringMethod, c.Name, recv.Prov, p0)
		}
		return v
	}
	if recv.Kind == absdom.KObj && cryptoapi.IsAPIClass(recv.Obj.Type) {
		sig, found := cryptoapi.LookupMethod(recv.Obj.Type, c.Name, len(args))
		if !found {
			sig = genericSig(recv.Obj.Type, c.Name, args)
		}
		an.record(recv.Obj, Event{Sig: sig, Args: args, File: an.fileName(), Pos: c.Pos()})
		an.applyCallEffects(recv.Obj.Type, c, st, fr)
		if sig.Ret != "" {
			v := topOfRetType(sig.Ret)
			if an.provOn {
				p0, p1 := argProvs(args)
				if p0 == nil {
					p0 = recv.Prov
				}
				v.Prov = an.prov2x(absdom.ProvCall, c, shCallResult, sig.Class, sig.Name, p0, p1)
			}
			return v
		}
		return absdom.Value{}
	}
	return absdom.TopObj("")
}

// apiStaticCall handles factory calls such as Cipher.getInstance("AES"):
// the result is a fresh abstract object at this call's allocation site with
// the factory invocation as its first event.
func (an *analyzer) apiStaticCall(class string, c *javaast.Call, args []absdom.Value) absdom.Value {
	sig, found := cryptoapi.LookupMethod(class, c.Name, len(args))
	if found && sig.Static && sig.Ret != "" {
		obj := an.allocObj(an.fileOf(c), c, sig.Ret)
		an.record(obj, Event{Sig: sig, Args: args, File: an.fileName(), Pos: c.Pos()})
		v := absdom.ObjRef(obj)
		if an.provOn {
			p0, p1 := argProvs(args)
			v.Prov = an.prov2x(absdom.ProvAlloc, c, shCallQual, class, c.Name, p0, p1)
		}
		return v
	}
	if found && sig.Static {
		// Static void configuration call (e.g. HttpsURLConnection.
		// setDefaultHostnameVerifier): no object flows out, but the call
		// is still an observable usage event — record it on a fresh
		// class-level object at this call site so rules can match it.
		obj := an.allocObj(an.fileOf(c), c, class)
		an.record(obj, Event{Sig: sig, Args: args, File: an.fileName(), Pos: c.Pos()})
		return absdom.Value{}
	}
	return absdom.TopObj("")
}

// topOfRetType maps a modeled return-type name ("byte[]", "Key", "Cipher")
// to its ⊤ abstract value, separating the array suffix from the base name.
func topOfRetType(ret string) absdom.Value {
	dims := 0
	for strings.HasSuffix(ret, "[]") {
		ret = strings.TrimSuffix(ret, "[]")
		dims++
	}
	return absdom.TopOfType(ret, dims)
}

// genericSig builds an on-the-fly signature for calls on API objects that
// the model does not list, so the feature language still captures them.
func genericSig(class, name string, args []absdom.Value) cryptoapi.MethodSig {
	params := make([]string, len(args))
	for i, a := range args {
		params[i] = paramTypeOf(a)
	}
	return cryptoapi.MethodSig{Class: class, Name: name, Params: params}
}

func paramTypeOf(v absdom.Value) string {
	switch v.Kind {
	case absdom.KIntConst, absdom.KTopInt, absdom.KBoolConst:
		return "int"
	case absdom.KStrConst, absdom.KTopStr:
		return "String"
	case absdom.KConstByteArr, absdom.KTopByteArr:
		return "byte[]"
	case absdom.KIntArrConst, absdom.KTopIntArr:
		return "int[]"
	case absdom.KStrArrConst, absdom.KTopStrArr:
		return "String[]"
	case absdom.KConstByte, absdom.KTopByte:
		return "byte"
	case absdom.KObj:
		return v.Obj.Type
	case absdom.KTopObj:
		if v.Type != "" {
			return v.Type
		}
	}
	return "Object"
}

// applyCallEffects models API methods that mutate their arguments; the one
// that matters for the abstraction is SecureRandom.nextBytes(buf), which
// fills the buffer with random bytes — the buffer stops being constant.
func (an *analyzer) applyCallEffects(class string, c *javaast.Call, st *absdom.State, fr *frame) {
	if class != cryptoapi.SecureRandom || c.Name != "nextBytes" || len(c.Args) != 1 {
		return
	}
	if n, ok := c.Args[0].(*javaast.Name); ok {
		if _, isVar := st.LookupVar(n.Ident); isVar {
			st.SetVar(n.Ident, absdom.TopByteArr())
		} else if f, isField := fr.ci.field(n.Ident); isField {
			st.SetField(f.slot, absdom.TopByteArr())
		}
	}
	if fa, ok := c.Args[0].(*javaast.FieldAccess); ok {
		if _, isThis := fa.X.(*javaast.This); isThis {
			if f, isField := fr.ci.field(fa.Name); isField {
				st.SetField(f.slot, absdom.TopByteArr())
			}
		}
	}
}

// pickMethod selects a same-name method, preferring an exact arity match
// over the first declared.
func (an *analyzer) pickMethod(ci *classInfo, name string, arity int) *javaast.MethodDecl {
	if ci.methodIdx == nil {
		ci.methodIdx = make(map[string][]*javaast.MethodDecl, len(ci.decl.Methods))
		for _, m := range ci.decl.Methods {
			ci.methodIdx[m.Name] = append(ci.methodIdx[m.Name], m)
		}
	}
	cands := ci.methodIdx[name]
	for _, m := range cands {
		if len(m.Params) == arity {
			return m
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return cands[0]
}

// inlineCall executes a callee in the caller's state with the callee's own
// variable scope. Reach is bounded by cycle detection (recursive SCCs widen
// to Top, counted as summary.cycles) plus a generous backstop, and, when
// memoization applies (a table attached, fingerprinted program), the
// summary table is consulted before executing.
func (an *analyzer) inlineCall(ci *classInfo, m *javaast.MethodDecl, args []absdom.Value, st *absdom.State) absdom.Value {
	for i, on := range an.inlineStack {
		if on == m {
			an.noteCycle(i, m)
			return returnTop(m)
		}
	}
	// Summary replays do not consume stack depth, so near this backstop a
	// warm hit can stand in for a call a cold run would widen here — an
	// accepted divergence on degenerate >512-frame chains (summary.go header).
	if len(an.inlineStack) >= maxLiftedInline {
		return returnTop(m)
	}
	if !an.memoOK {
		return an.inlineLive(ci, m, args, st)
	}
	return an.inlineMemo(ci, m, args, st)
}

// inlineLive pushes the callee frame and executes its body in st.
func (an *analyzer) inlineLive(ci *classInfo, m *javaast.MethodDecl, args []absdom.Value, st *absdom.State) absdom.Value {
	an.inlineStack = append(an.inlineStack, m)
	savedFile := an.curFile
	an.curFile = ci.file
	defer func() {
		an.inlineStack = an.inlineStack[:len(an.inlineStack)-1]
		an.curFile = savedFile
	}()

	// Save the caller's locals; the callee gets a fresh local namespace over
	// the same field/heap state.
	savedSlots, savedVars := st.Slots, st.Vars
	st.Slots = an.slotsOf(m)
	st.Vars = an.takeLocals(st.Slots.Len())
	ret := an.execMethod(ci, m, args, st)
	// Nothing outlives the call that refers to the callee's own slots
	// (forks copy them), so they are recycled for the next call.
	an.freeLocals = append(an.freeLocals, st.Vars)
	st.Slots, st.Vars = savedSlots, savedVars
	return ret
}

// takeLocals returns n cleared local slots, reusing the slots of a
// finished call when they are large enough.
func (an *analyzer) takeLocals(n int) []absdom.Local {
	if k := len(an.freeLocals); k > 0 {
		vs := an.freeLocals[k-1]
		an.freeLocals = an.freeLocals[:k-1]
		if cap(vs) >= n {
			vs = vs[:n]
			clear(vs)
			return vs
		}
	}
	return make([]absdom.Local, n)
}

func (an *analyzer) evalNew(x *javaast.New, st *absdom.State, fr *frame) absdom.Value {
	args := make([]absdom.Value, len(x.Args))
	for i, a := range x.Args {
		args[i] = an.eval(a, st, fr)
	}
	typ := x.Type.Base()
	obj := an.allocObj(an.fileOf(x), x, typ)
	sig, found := cryptoapi.LookupMethod(typ, "<init>", len(args))
	if !found {
		sig = genericSig(typ, "<init>", args)
	}
	an.record(obj, Event{Sig: sig, Args: args, File: an.fileName(), Pos: x.Pos()})
	v := absdom.ObjRef(obj)
	if an.provOn {
		p0, p1 := argProvs(args)
		v.Prov = an.prov2(absdom.ProvAlloc, x, shNew, typ, p0, p1)
	}
	return v
}

func (an *analyzer) evalNewArray(x *javaast.NewArray, st *absdom.State, fr *frame) absdom.Value {
	for _, l := range x.Lens {
		an.eval(l, st, fr)
	}
	elemConst := true
	var labels []string
	for _, el := range x.Elems {
		v := an.eval(el, st, fr)
		if !v.IsConst() {
			elemConst = false
		}
		labels = append(labels, v.Label())
	}
	var v absdom.Value
	switch x.Type.Name {
	case "byte", "char":
		// Both "new byte[]{...}" with constant elements and "new byte[n]"
		// (an all-zero buffer until someone fills it) are constant arrays.
		if elemConst {
			v = absdom.ConstByteArr()
		} else {
			v = absdom.TopByteArr()
		}
	case "int", "long", "short":
		switch {
		case x.HasInit && elemConst:
			v = absdom.IntArrConst(strings.Join(labels, ","))
		case !x.HasInit:
			v = absdom.IntArrConst("zero")
		default:
			v = absdom.TopIntArr()
		}
	case "String":
		if x.HasInit && elemConst {
			v = absdom.StrArrConst(strings.Join(labels, ","))
		} else {
			v = absdom.TopStrArr()
		}
	default:
		v = absdom.TopObj(x.Type.Name + "[]")
	}
	if an.provOn {
		v.Prov = an.prov0(absdom.ProvLiteral, x, shNewArray, x.Type.Name)
	}
	return v
}

// evalAssign handles simple and compound assignment.
func (an *analyzer) evalAssign(x *javaast.Assign, st *absdom.State, fr *frame) absdom.Value {
	v := an.eval(x.R, st, fr)
	if x.Op != "=" {
		cur := an.eval(x.L, st, fr)
		v = foldBinary(strings.TrimSuffix(x.Op, "="), cur, v)
	}
	an.assignTo(x.L, v, st, fr)
	return v
}

func (an *analyzer) assignTo(lhs javaast.Expr, v absdom.Value, st *absdom.State, fr *frame) {
	switch l := lhs.(type) {
	case *javaast.Name:
		if an.provOn && v.Prov != nil {
			v.Prov = an.prov1(absdom.ProvAssign, l, shAssigned, l.Ident, v.Prov)
		}
		if _, isVar := st.LookupVar(l.Ident); isVar {
			v = refine(v, fr.declaredType(l.Ident))
			st.SetVar(l.Ident, v)
			return
		}
		if f, isField := fr.ci.field(l.Ident); isField {
			st.SetField(f.slot, refine(v, f.decl.Type))
			return
		}
		st.SetVar(l.Ident, v)
	case *javaast.FieldAccess:
		if an.provOn && v.Prov != nil {
			v.Prov = an.prov1(absdom.ProvAssign, l, shAssignedField, l.Name, v.Prov)
		}
		if _, isThis := l.X.(*javaast.This); isThis {
			if f, isField := fr.ci.field(l.Name); isField {
				st.SetField(f.slot, refine(v, f.decl.Type))
				return
			}
		}
		recv := an.eval(l.X, st, fr)
		if recv.Kind == absdom.KObj {
			st.SetHeapField(recv.Obj, l.Name, v)
		}
	case *javaast.Index:
		// Writing a non-constant element degrades a constant array.
		base := an.eval(l.X, st, fr)
		if !v.IsConst() && base.Kind == absdom.KConstByteArr {
			if n, ok := l.X.(*javaast.Name); ok {
				if _, isVar := st.LookupVar(n.Ident); isVar {
					st.SetVar(n.Ident, absdom.TopByteArr())
				} else if f, isField := fr.ci.field(n.Ident); isField {
					st.SetField(f.slot, absdom.TopByteArr())
				}
			}
		}
	}
}

func (an *analyzer) fileOf(n javaast.Node) int {
	// Allocation sites are keyed by (file, offset); the analyzer currently
	// tracks the file via the class being executed. A single counter space
	// across files is preserved by including the file index in the key; we
	// recover it from the frame-less context by using 0 when unknown. The
	// executor always runs within one file at a time via curFile.
	return an.curFile
}

// foldWellKnownStatic models a handful of ubiquitous JDK/commons static
// helpers whose constness matters to the abstraction: decoding a *constant*
// string yields constant bytes (hard-coded keys and IVs are very often
// shipped base64- or hex-encoded), and numeric parses of constants stay
// constant.
func foldWellKnownStatic(class, method string, args []absdom.Value) (absdom.Value, bool) {
	firstIsConstStr := len(args) >= 1 && args[0].Kind == absdom.KStrConst
	firstConstData := len(args) >= 1 && args[0].IsConst()
	switch class {
	case "Base64", "Hex", "DatatypeConverter", "BaseEncoding":
		switch method {
		case "decode", "decodeHex", "decodeBase64", "parseBase64Binary", "parseHexBinary":
			if firstConstData {
				return absdom.ConstByteArr(), true
			}
			return absdom.TopByteArr(), true
		case "encode", "encodeHex", "encodeBase64", "printBase64Binary", "encodeToString":
			if firstConstData {
				return absdom.StrConst("<encoded>"), true
			}
			return absdom.TopStr(), true
		}
	case "Integer", "Long", "Short":
		if method == "parseInt" || method == "parseLong" || method == "valueOf" {
			if firstIsConstStr {
				return absdom.IntConst(args[0].Payload), true
			}
			return absdom.TopInt(), true
		}
	case "String":
		if method == "valueOf" && len(args) == 1 {
			if args[0].Kind == absdom.KIntConst || args[0].Kind == absdom.KBoolConst {
				return absdom.StrConst(args[0].Payload), true
			}
			return absdom.TopStr(), true
		}
	case "Arrays":
		switch method {
		case "copyOf", "copyOfRange", "clone":
			if firstConstData {
				return args[0], true
			}
			if len(args) >= 1 {
				return args[0], true // preserve the ⊤ family too
			}
		}
	}
	return absdom.Value{}, false
}

// foldDecoderChain handles Base64.getDecoder().decode(x) /
// Base64.getEncoder().encodeToString(x) — the decoder object itself is
// opaque, but the chain's constness is determined by x.
func (an *analyzer) foldDecoderChain(c *javaast.Call, args []absdom.Value, st *absdom.State, fr *frame) (absdom.Value, bool) {
	inner, ok := c.Recv.(*javaast.Call)
	if !ok {
		return absdom.Value{}, false
	}
	qual, ok := flattenName(inner.Recv)
	if !ok || lastSegment(qual) != "Base64" || an.isShadowed("Base64", st, fr) {
		return absdom.Value{}, false
	}
	switch inner.Name {
	case "getDecoder", "getUrlDecoder", "getMimeDecoder":
		if c.Name == "decode" {
			if len(args) >= 1 && args[0].IsConst() {
				return absdom.ConstByteArr(), true
			}
			return absdom.TopByteArr(), true
		}
	case "getEncoder", "getUrlEncoder", "getMimeEncoder":
		if c.Name == "encodeToString" || c.Name == "encode" {
			if len(args) >= 1 && args[0].IsConst() {
				return absdom.StrConst("<encoded>"), true
			}
			return absdom.TopStr(), true
		}
	}
	return absdom.Value{}, false
}

// foldStringMethod evaluates pure java.lang.String methods on constant
// receivers, keeping configuration strings precise through common
// manipulations like ("aes/" + mode).toUpperCase().
func foldStringMethod(s, method string, args []absdom.Value) absdom.Value {
	strArg := func(i int) (string, bool) {
		if i < len(args) && args[i].Kind == absdom.KStrConst {
			return args[i].Payload, true
		}
		return "", false
	}
	intArg := func(i int) (int64, bool) {
		if i < len(args) {
			return parseInt(args[i])
		}
		return 0, false
	}
	switch method {
	case "toUpperCase":
		if len(args) == 0 {
			return absdom.StrConst(strings.ToUpper(s))
		}
	case "toLowerCase":
		if len(args) == 0 {
			return absdom.StrConst(strings.ToLower(s))
		}
	case "trim", "strip":
		if len(args) == 0 {
			return absdom.StrConst(strings.TrimSpace(s))
		}
	case "intern", "toString":
		if len(args) == 0 {
			return absdom.StrConst(s)
		}
	case "concat":
		if a, ok := strArg(0); ok {
			return absdom.StrConst(s + a)
		}
	case "replace":
		if from, ok := strArg(0); ok {
			if to, ok2 := strArg(1); ok2 {
				return absdom.StrConst(strings.ReplaceAll(s, from, to))
			}
		}
	case "substring":
		if lo, ok := intArg(0); ok && lo >= 0 && lo <= int64(len(s)) {
			if len(args) == 1 {
				return absdom.StrConst(s[lo:])
			}
			if hi, ok2 := intArg(1); ok2 && hi >= lo && hi <= int64(len(s)) {
				return absdom.StrConst(s[lo:hi])
			}
		}
	case "length":
		if len(args) == 0 {
			return intVal(int64(len(s)))
		}
	case "isEmpty":
		if len(args) == 0 {
			return absdom.BoolConst(len(s) == 0)
		}
	case "equals", "equalsIgnoreCase":
		if a, ok := strArg(0); ok {
			if method == "equals" {
				return absdom.BoolConst(s == a)
			}
			return absdom.BoolConst(strings.EqualFold(s, a))
		}
		return absdom.TopInt()
	case "startsWith":
		if a, ok := strArg(0); ok {
			return absdom.BoolConst(strings.HasPrefix(s, a))
		}
		return absdom.TopInt()
	case "getBytes":
		return absdom.ConstByteArr() // bytes of a constant string are constant
	case "toCharArray":
		return absdom.ConstByteArr() // chars of a constant (e.g. a hard-coded password)
	case "split":
		return absdom.TopStrArr()
	}
	return absdom.TopObj("")
}

// ---------------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------------

func foldBinary(op string, l, r absdom.Value) absdom.Value {
	if op == "+" {
		if l.Kind == absdom.KStrConst && r.Kind == absdom.KStrConst {
			return absdom.StrConst(l.Payload + r.Payload)
		}
		if l.Kind == absdom.KStrConst && (r.Kind == absdom.KIntConst || r.Kind == absdom.KBoolConst) {
			return absdom.StrConst(l.Payload + r.Payload)
		}
		if r.Kind == absdom.KStrConst && (l.Kind == absdom.KIntConst || l.Kind == absdom.KBoolConst) {
			return absdom.StrConst(l.Payload + r.Payload)
		}
		if isStringy(l) || isStringy(r) {
			return absdom.TopStr()
		}
	}
	li, lok := parseInt(l)
	ri, rok := parseInt(r)
	if lok && rok {
		switch op {
		case "+":
			return intVal(li + ri)
		case "-":
			return intVal(li - ri)
		case "*":
			return intVal(li * ri)
		case "/":
			if ri != 0 {
				return intVal(li / ri)
			}
		case "%":
			if ri != 0 {
				return intVal(li % ri)
			}
		case "<<":
			if ri >= 0 && ri < 64 {
				return intVal(li << uint(ri))
			}
		case ">>":
			if ri >= 0 && ri < 64 {
				return intVal(li >> uint(ri))
			}
		case "&":
			return intVal(li & ri)
		case "|":
			return intVal(li | ri)
		case "^":
			return intVal(li ^ ri)
		case "==":
			return absdom.BoolConst(li == ri)
		case "!=":
			return absdom.BoolConst(li != ri)
		case "<":
			return absdom.BoolConst(li < ri)
		case "<=":
			return absdom.BoolConst(li <= ri)
		case ">":
			return absdom.BoolConst(li > ri)
		case ">=":
			return absdom.BoolConst(li >= ri)
		}
	}
	switch op {
	case "==", "!=", "<", "<=", ">", ">=", "&&", "||":
		return absdom.TopInt()
	}
	if isBytey(l) || isBytey(r) {
		return absdom.TopByte()
	}
	return absdom.TopInt()
}

func foldUnary(op string, v absdom.Value) absdom.Value {
	switch op {
	case "-":
		if i, ok := parseInt(v); ok {
			return intVal(-i)
		}
		return absdom.TopInt()
	case "+":
		return v
	case "!":
		if v.Kind == absdom.KBoolConst {
			return absdom.BoolConst(v.Payload != "true")
		}
		return absdom.TopInt()
	case "~":
		if i, ok := parseInt(v); ok {
			return intVal(^i)
		}
		return absdom.TopInt()
	case "++", "--":
		return absdom.TopInt()
	}
	return v
}

func isStringy(v absdom.Value) bool {
	return v.Kind == absdom.KStrConst || v.Kind == absdom.KTopStr
}

func isBytey(v absdom.Value) bool {
	return v.Kind == absdom.KConstByte || v.Kind == absdom.KTopByte
}

func parseInt(v absdom.Value) (int64, bool) {
	if v.Kind != absdom.KIntConst {
		return 0, false
	}
	s := v.Payload
	if i, err := strconv.ParseInt(s, 0, 64); err == nil {
		return i, true
	}
	return 0, false
}

func intVal(i int64) absdom.Value {
	return absdom.IntConst(strconv.FormatInt(i, 10))
}
