package javaast

import (
	"slices"
	"sync/atomic"
)

// Locals lists the names a method can bind as locals: its parameters, then
// every name its body declares (local and loop variables, resources, catch
// parameters) or assigns by simple name, each once, in order of first
// occurrence. Index maps each name to its position in Names; it is nil
// when Names is short enough to scan.
type Locals struct {
	Names []string
	Index map[string]int
}

// localsCache caches MethodDecl.Locals behind one pointer, so the cache
// adds a word to the node, and the gob encoding of parse artifacts ignores
// it (it is unexported).
type localsCache struct{ p atomic.Pointer[Locals] }

// localsScanMax is the length up to which Locals.Index is nil.
const localsScanMax = 16

// Locals returns the method's local names. They are computed on first use
// and then shared, so callers must not modify them. It is safe for
// concurrent use: goroutines racing on the first use compute the same
// names, and all of them return the one that is stored first.
func (n *MethodDecl) Locals() *Locals {
	if l := n.locals.p.Load(); l != nil {
		return l
	}
	n.locals.p.CompareAndSwap(nil, collectLocals(n))
	return n.locals.p.Load()
}

func collectLocals(m *MethodDecl) *Locals {
	l := &Locals{}
	add := func(name string) {
		if name == "" {
			return
		}
		if l.Index != nil {
			if _, dup := l.Index[name]; dup {
				return
			}
			l.Index[name] = len(l.Names)
		} else if slices.Contains(l.Names, name) {
			return
		} else if len(l.Names) == localsScanMax {
			l.Index = make(map[string]int, 2*localsScanMax)
			for i, s := range l.Names {
				l.Index[s] = i
			}
			l.Index[name] = len(l.Names)
		}
		l.Names = append(l.Names, name)
	}
	for _, p := range m.Params {
		add(p.Name)
	}
	if m.Body != nil {
		Walk(m.Body, func(x Node) bool {
			switch x := x.(type) {
			case *LocalVarDecl:
				add(x.Name)
			case *Param:
				add(x.Name)
			case *Assign:
				if n, ok := x.L.(*Name); ok {
					add(n.Ident)
				}
			}
			return true
		})
	}
	l.Names = slices.Clip(l.Names)
	return l
}
