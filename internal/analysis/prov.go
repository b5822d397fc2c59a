package analysis

import (
	"repro/internal/absdom"
	"repro/internal/javaast"
)

// Provenance attach helpers. All of them are no-ops returning nil when
// tracking is off, and none of them concatenate: each attach site declares
// its label's constant fragments once as a LabelShape below and passes the
// dynamic names through, so the tracking-on hot loop pays a fraction of an
// arena allocation per step and zero string building. The helpers are
// deliberately non-variadic: a variadic prev parameter would allocate its
// slice at every call site even with tracking disabled.

// Label shapes of the attach sites (What() = Pre + n1 + Mid + n2 + Suf).
var (
	shParamOf       = &absdom.LabelShape{Pre: "parameter ", Mid: " of "}
	shField         = &absdom.LabelShape{Pre: "field "}
	shFieldNoInit   = &absdom.LabelShape{Pre: "field ", Suf: " (no initializer)"}
	shFieldUnbound  = &absdom.LabelShape{Pre: "field ", Mid: ".", Suf: " (unbound)"}
	shStaticField   = &absdom.LabelShape{Pre: "static field ", Mid: "."}
	shAssigned      = &absdom.LabelShape{Pre: "assigned to "}
	shAssignedField = &absdom.LabelShape{Pre: "assigned to field "}
	shOperator      = &absdom.LabelShape{Pre: "operator "}
	shCast          = &absdom.LabelShape{Pre: "cast to "}
	shInlined       = &absdom.LabelShape{Pre: "returned from inlined ", Suf: "(...)"}
	shInlinedQual   = &absdom.LabelShape{Pre: "returned from inlined ", Mid: ".", Suf: "(...)"}
	shCallQual      = &absdom.LabelShape{Mid: ".", Suf: "(...)"}
	shCallResult    = &absdom.LabelShape{Mid: ".", Suf: "(...) result"}
	shBase64        = &absdom.LabelShape{Pre: "Base64 ", Suf: "(...)"}
	shStringMethod  = &absdom.LabelShape{Pre: "String.", Suf: "(...)"}
	shNew           = &absdom.LabelShape{Pre: "new ", Suf: "(...)"}
	shNewArray      = &absdom.LabelShape{Pre: "new ", Suf: "[...] array"}
)

// prov0 records a root definition step (no predecessor) at node n.
func (an *analyzer) prov0(kind absdom.ProvKind, n javaast.Node, shape *absdom.LabelShape, name string) *absdom.Prov {
	if !an.provOn {
		return nil
	}
	p := n.Pos()
	return an.provArena.NewShape(kind, an.filePtr(), int(p.Line), int(p.Col), shape, name, "", nil, nil)
}

// prov1 records a definition step consuming one input value's history.
func (an *analyzer) prov1(kind absdom.ProvKind, n javaast.Node, shape *absdom.LabelShape, name string, prev *absdom.Prov) *absdom.Prov {
	if !an.provOn {
		return nil
	}
	p := n.Pos()
	return an.provArena.NewShape(kind, an.filePtr(), int(p.Line), int(p.Col), shape, name, "", prev, nil)
}

// prov2 records a definition step consuming two input histories.
func (an *analyzer) prov2(kind absdom.ProvKind, n javaast.Node, shape *absdom.LabelShape, name string, p0, p1 *absdom.Prov) *absdom.Prov {
	if !an.provOn {
		return nil
	}
	p := n.Pos()
	return an.provArena.NewShape(kind, an.filePtr(), int(p.Line), int(p.Col), shape, name, "", p0, p1)
}

// prov0x, prov1x, and prov2x are the two-name variants for labels like
// "parameter <p> of <m>" or "<class>.<method>(...)".
func (an *analyzer) prov0x(kind absdom.ProvKind, n javaast.Node, shape *absdom.LabelShape, n1, n2 string) *absdom.Prov {
	if !an.provOn {
		return nil
	}
	p := n.Pos()
	return an.provArena.NewShape(kind, an.filePtr(), int(p.Line), int(p.Col), shape, n1, n2, nil, nil)
}

func (an *analyzer) prov1x(kind absdom.ProvKind, n javaast.Node, shape *absdom.LabelShape, n1, n2 string, prev *absdom.Prov) *absdom.Prov {
	if !an.provOn {
		return nil
	}
	p := n.Pos()
	return an.provArena.NewShape(kind, an.filePtr(), int(p.Line), int(p.Col), shape, n1, n2, prev, nil)
}

func (an *analyzer) prov2x(kind absdom.ProvKind, n javaast.Node, shape *absdom.LabelShape, n1, n2 string, p0, p1 *absdom.Prov) *absdom.Prov {
	if !an.provOn {
		return nil
	}
	p := n.Pos()
	return an.provArena.NewShape(kind, an.filePtr(), int(p.Line), int(p.Col), shape, n1, n2, p0, p1)
}

// fileName resolves the analyzer's current file index to its source name.
func (an *analyzer) fileName() string {
	if an.curFile >= 0 && an.curFile < len(an.prog.Files) {
		return an.prog.Files[an.curFile].Name
	}
	return ""
}

// filePtr is fileName as the interned pointer provenance nodes store (nil
// out of range). Handing the same pointer to every step of a file keeps
// Prov nodes at one word for the file, not a copied string header.
func (an *analyzer) filePtr() *string {
	if an.curFile >= 0 && an.curFile < len(an.prog.Files) {
		return &an.prog.Files[an.curFile].Name
	}
	return nil
}

// argProvs picks up to two non-nil argument histories as the predecessors
// of a call-result step (fan-in is capped at absdom.MaxProvFanIn anyway).
func argProvs(args []absdom.Value) (p0, p1 *absdom.Prov) {
	for _, a := range args {
		if a.Prov == nil {
			continue
		}
		if p0 == nil {
			p0 = a.Prov
			continue
		}
		if a.Prov != p0 {
			p1 = a.Prov
			break
		}
	}
	return p0, p1
}
