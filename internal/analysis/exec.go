package analysis

import (
	"repro/internal/absdom"
	"repro/internal/javaast"
)

// frame holds the per-method-invocation execution context: declared types of
// locals (for ⊤ refinement) and collected return values/states. Its states
// share one slot table, and varTypes is indexed by the same slots.
type frame struct {
	an       *analyzer
	ci       *classInfo
	slots    *absdom.Slots
	varTypes []*javaast.TypeRef
	retVals  []absdom.Value
	finished []*absdom.State // states that hit a return/throw
}

// newFrame returns a frame executing over st's local namespace.
func (an *analyzer) newFrame(ci *classInfo, st *absdom.State) *frame {
	return &frame{an: an, ci: ci, slots: st.Slots}
}

// declare records a local's declared type, the last declaration executed
// winning.
func (f *frame) declare(name string, t *javaast.TypeRef) {
	i := f.slots.Add(name)
	if i >= len(f.varTypes) {
		grown := make([]*javaast.TypeRef, max(f.slots.Len(), 2*len(f.varTypes)))
		copy(grown, f.varTypes)
		f.varTypes = grown
	}
	f.varTypes[i] = t
}

// declaredType returns a local's declared type in this frame, nil if the
// frame declared no such local.
func (f *frame) declaredType(name string) *javaast.TypeRef {
	if i := f.slots.Slot(name); i >= 0 && i < len(f.varTypes) {
		return f.varTypes[i]
	}
	return nil
}

// execStmts flows the state set through a statement sequence, forking at
// branches and capping the fork count per Options.MaxStates.
func (f *frame) execStmts(stmts []javaast.Stmt, states []*absdom.State) []*absdom.State {
	for _, s := range stmts {
		states = f.execStmt(s, states)
		if len(states) == 0 {
			return nil
		}
	}
	return states
}

// cap joins overflow states so the execution set stays bounded.
func (f *frame) cap(states []*absdom.State) []*absdom.State {
	max := f.an.opts.MaxStates
	if len(states) <= max {
		return states
	}
	base := states[max-1]
	for _, s := range states[max:] {
		base.JoinIn(s, &f.an.provArena)
	}
	return states[:max]
}

func (f *frame) execStmt(s javaast.Stmt, states []*absdom.State) []*absdom.State {
	f.an.step()
	switch x := s.(type) {
	case *javaast.Block:
		return f.execStmts(x.Stmts, states)

	case *javaast.LocalVarDecl:
		f.declare(x.Name, x.Type)
		for _, st := range states {
			var v absdom.Value
			if x.Init != nil {
				v = f.an.eval(x.Init, st, f)
			}
			v = refine(v, x.Type)
			if f.an.provOn && v.Prov != nil {
				v.Prov = f.an.prov1(absdom.ProvAssign, x, shAssigned, x.Name, v.Prov)
			}
			st.SetVar(x.Name, v)
		}
		return states

	case *javaast.ExprStmt:
		for _, st := range states {
			f.an.eval(x.X, st, f)
		}
		return states

	case *javaast.IfStmt:
		var out []*absdom.State
		for _, st := range states {
			f.an.eval(x.Cond, st, f)
			thenSt := st.Clone()
			thenLive := []*absdom.State{thenSt}
			if x.Then != nil {
				thenLive = f.execStmt(x.Then, thenLive)
			}
			elseLive := []*absdom.State{st}
			if x.Else != nil {
				elseLive = f.execStmt(x.Else, elseLive)
			}
			out = append(out, thenLive...)
			out = append(out, elseLive...)
		}
		return f.cap(out)

	case *javaast.WhileStmt:
		return f.execLoop(nil, x.Cond, nil, x.Body, states)
	case *javaast.DoStmt:
		// The body runs at least once.
		states = f.execStmt(x.Body, states)
		for _, st := range states {
			f.an.eval(x.Cond, st, f)
		}
		return states
	case *javaast.ForStmt:
		states = f.execStmts(x.Init, states)
		return f.execLoop(nil, x.Cond, x.Post, x.Body, states)
	case *javaast.ForEachStmt:
		f.declare(x.Var.Name, x.Var.Type)
		for _, st := range states {
			f.an.eval(x.Expr, st, f)
			st.SetVar(x.Var.Name, absdom.TopOfType(x.Var.Type.Base(), x.Var.Type.Dims))
		}
		return f.execLoop(nil, nil, nil, x.Body, states)

	case *javaast.ReturnStmt:
		for _, st := range states {
			if x.X != nil {
				f.retVals = append(f.retVals, f.an.eval(x.X, st, f))
			}
			f.finished = append(f.finished, st)
		}
		return nil
	case *javaast.ThrowStmt:
		for _, st := range states {
			f.an.eval(x.X, st, f)
			f.finished = append(f.finished, st)
		}
		return nil

	case *javaast.TryStmt:
		for _, r := range x.Resources {
			f.declare(r.Name, r.Type)
			for _, st := range states {
				var v absdom.Value
				if r.Init != nil {
					v = f.an.eval(r.Init, st, f)
				}
				st.SetVar(r.Name, refine(v, r.Type))
			}
		}
		// The try body may complete or be interrupted; catch bodies run on a
		// fork of the pre-body state (a sound over-approximation of "any
		// prefix ran").
		var preBody []*absdom.State
		for _, st := range states {
			preBody = append(preBody, st.Clone())
		}
		live := f.execStmts(x.Body.Stmts, states)
		for _, c := range x.Catches {
			catchStates := preBody
			preBody = nil
			for _, st := range catchStates {
				if c.Param != nil && c.Param.Name != "" {
					st.SetVar(c.Param.Name, absdom.TopOfType(c.Param.Type.Base(), 0))
				}
			}
			live = append(live, f.execStmts(c.Body.Stmts, catchStates)...)
			if len(x.Catches) > 1 {
				// Additional catches fork again from the same pre-state.
				preBody = nil
				for _, st := range catchStates {
					preBody = append(preBody, st.Clone())
				}
			}
		}
		live = f.cap(live)
		if x.Finally != nil {
			live = f.execStmts(x.Finally.Stmts, live)
		}
		return live

	case *javaast.SwitchStmt:
		for _, st := range states {
			f.an.eval(x.Tag, st, f)
		}
		var out []*absdom.State
		for _, st := range states {
			matched := false
			for _, cs := range x.Cases {
				if len(cs.Body) == 0 {
					continue
				}
				matched = true
				fork := st.Clone()
				out = append(out, f.execStmts(cs.Body, []*absdom.State{fork})...)
			}
			if !matched {
				out = append(out, st)
			} else {
				out = append(out, st) // fall-out path (no case taken)
			}
		}
		return f.cap(out)

	case *javaast.SyncStmt:
		for _, st := range states {
			f.an.eval(x.Lock, st, f)
		}
		return f.execStmts(x.Body.Stmts, states)

	case *javaast.LabeledStmt:
		if x.Stmt == nil {
			return states
		}
		return f.execStmt(x.Stmt, states)

	case *javaast.AssertStmt:
		for _, st := range states {
			f.an.eval(x.Cond, st, f)
			if x.Msg != nil {
				f.an.eval(x.Msg, st, f)
			}
		}
		return states

	case *javaast.BreakStmt, *javaast.ContinueStmt, *javaast.EmptyStmt:
		return states

	default:
		return states
	}
}

// execLoop models a loop as "zero or one iteration": the post-loop state set
// is the union of skipping the body and executing it once. This covers the
// feature-extraction needs of the abstraction (events inside loop bodies are
// observed) without fixpoint iteration.
func (f *frame) execLoop(init []javaast.Stmt, cond javaast.Expr, post []javaast.Expr, body javaast.Stmt, states []*absdom.State) []*absdom.State {
	states = f.execStmts(init, states)
	for _, st := range states {
		if cond != nil {
			f.an.eval(cond, st, f)
		}
	}
	var out []*absdom.State
	for _, st := range states {
		skip := st.Clone()
		once := []*absdom.State{st}
		if body != nil {
			once = f.execStmt(body, once)
		}
		for _, s := range once {
			for _, p := range post {
				f.an.eval(p, s, f)
			}
		}
		out = append(out, skip)
		out = append(out, once...)
	}
	return f.cap(out)
}
