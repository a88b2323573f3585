package jir

import (
	"fmt"
	"sort"
)

// Procedure splitting (paper §4): "large procedures can still benefit by
// using the compiler to break the procedure up into smaller procedures."
// SplitLarge outlines the tail of oversized function bodies into fresh
// continuation functions, passing the live locals as arguments, so the
// hot prefix of a large method can transfer — and start executing —
// before its tail arrives.
//
// The transform is semantics-preserving:
//
//   - the suffix becomes a new function <name>$cN in the same class;
//   - locals the suffix touches that were bound in the prefix are passed
//     by value (the suffix never returns control into the prefix, so
//     copy-in is sound);
//   - early returns in the prefix keep returning from the original;
//     returns in the suffix return through the continuation (for value
//     functions the original ends with `return <name>$cN(live...)`);
//   - Halt stops the machine from anywhere, so it may move freely.
//
// Splitting repeats on the continuation until every piece has at most
// maxTop top-level statements or no legal split point remains.

// SplitLarge returns a copy of p with oversized bodies split, and how
// many continuation functions that created. maxTop is the top-level
// statement budget per function body. p is not written: the result
// shares every Class and Func the transform leaves alone and copies only
// what it splits, so a program many readers hold can be given to it.
func SplitLarge(p *Program, maxTop int) (*Program, int, error) {
	if maxTop < 2 {
		return nil, 0, fmt.Errorf("jir: SplitLarge budget %d too small", maxTop)
	}
	out := *p
	out.Classes = append([]*Class(nil), p.Classes...)
	created := 0
	for ci, c := range p.Classes {
		sc := c // a copy of c from its first split on
		// Iterate with an explicit index: continuations appended during
		// the loop are themselves candidates.
		for fi := 0; fi < len(sc.Funcs); fi++ {
			at := fi
			for len(sc.Funcs[at].Body) > maxTop {
				head, cont, ok := splitOne(c.Name, sc.Funcs[at], maxTop, created)
				if !ok {
					break
				}
				if sc == c {
					cp := *c
					cp.Funcs = append([]*Func(nil), c.Funcs...)
					sc = &cp
					out.Classes[ci] = sc
				}
				sc.Funcs[at] = head
				sc.Funcs = append(sc.Funcs, cont)
				created++
				at = len(sc.Funcs) - 1 // continue splitting the continuation
			}
		}
	}
	return &out, created, nil
}

// splitOne outlines f's tail into a continuation and returns the
// shortened f and the continuation, both new. Returns false when no
// legal split exists.
func splitOne(class string, f *Func, maxTop, serial int) (head, cont *Func, ok bool) {
	// Split in the middle of the top-level statement list, clamped so
	// the prefix fits the budget.
	k := len(f.Body) / 2
	if k > maxTop {
		k = maxTop
	}
	if k < 1 || k >= len(f.Body) {
		return nil, nil, false
	}
	prefix, suffix := f.Body[:k], f.Body[k:]

	// The prefix must flow into the suffix: if its last statement
	// terminates (Ret/Halt), the suffix is unreachable and the program
	// would not have compiled; bail out defensively.
	defs := map[string]bool{}
	for _, prm := range f.Params {
		defs[prm] = true
	}
	collectDefs(prefix, defs)

	uses := map[string]bool{}
	collectUses(suffix, uses)

	var live []string
	for name := range uses {
		if defs[name] {
			live = append(live, name)
		}
	}
	sort.Strings(live)
	if len(live) > 200 {
		return nil, nil, false // would blow the locals budget
	}

	contName := fmt.Sprintf("%s$c%d", f.Name, serial)
	cont = &Func{
		Name:   contName,
		Params: live,
		NRet:   f.NRet,
		Body:   suffix,
		// The tail carries a proportional share of the local data.
		LocalData: f.LocalData * len(suffix) / (len(prefix) + len(suffix)),
	}

	args := make([]Expr, len(live))
	for i, name := range live {
		args[i] = L(name)
	}
	call := Call(class, contName, args...)
	h := *f
	h.LocalData -= cont.LocalData
	h.Body = append([]Stmt{}, prefix...)
	if f.NRet == 0 {
		h.Body = append(h.Body, Do(call), RetV())
	} else {
		h.Body = append(h.Body, Ret(call))
	}
	return &h, cont, true
}

// collectDefs records locals bound by the statements (Let targets and
// loop counters), recursively.
func collectDefs(ss []Stmt, out map[string]bool) {
	for _, s := range ss {
		switch s := s.(type) {
		case LetStmt:
			out[s.Name] = true
		case IfStmt:
			collectDefs(s.Then, out)
			collectDefs(s.Else, out)
		case WhileStmt:
			collectDefs(s.Body, out)
		case ForStmt:
			if s.Init != nil {
				collectDefs([]Stmt{s.Init}, out)
			}
			if s.Post != nil {
				collectDefs([]Stmt{s.Post}, out)
			}
			collectDefs(s.Body, out)
		}
	}
}

// collectUses records every local the statements touch (reads, writes,
// and increments), recursively. Over-approximation is sound: passing an
// extra value only copies it.
func collectUses(ss []Stmt, out map[string]bool) {
	var expr func(e Expr)
	expr = func(e Expr) {
		switch e := e.(type) {
		case LocalExpr:
			out[e.Name] = true
		case BinExpr:
			expr(e.A)
			expr(e.B)
		case NegExpr:
			expr(e.A)
		case NotExpr:
			expr(e.A)
		case CallExpr:
			for _, a := range e.Args {
				expr(a)
			}
		case IndexExpr:
			expr(e.Arr)
			expr(e.I)
		case LenExpr:
			expr(e.Arr)
		case NewArrExpr:
			expr(e.N)
		}
	}
	var stmt func(s Stmt)
	stmt = func(s Stmt) {
		switch s := s.(type) {
		case LetStmt:
			out[s.Name] = true
			expr(s.E)
		case SetGlobalStmt:
			expr(s.E)
		case SetIndexStmt:
			expr(s.Arr)
			expr(s.I)
			expr(s.V)
		case IfStmt:
			expr(s.Cond)
			for _, t := range s.Then {
				stmt(t)
			}
			for _, t := range s.Else {
				stmt(t)
			}
		case WhileStmt:
			expr(s.Cond)
			for _, t := range s.Body {
				stmt(t)
			}
		case ForStmt:
			if s.Init != nil {
				stmt(s.Init)
			}
			if s.Cond != nil {
				expr(s.Cond)
			}
			if s.Post != nil {
				stmt(s.Post)
			}
			for _, t := range s.Body {
				stmt(t)
			}
		case RetStmt:
			if s.E != nil {
				expr(s.E)
			}
		case DoStmt:
			expr(s.E)
		case IncStmt:
			out[s.Name] = true
		}
	}
	for _, s := range ss {
		stmt(s)
	}
}
