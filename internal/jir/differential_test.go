package jir

import (
	"fmt"
	"testing"

	"nonstrict/internal/vm"
	"nonstrict/internal/xrand"
)

// TestDifferentialExpressions generates random expression trees, compiles
// and runs them in the VM, and compares against direct Go evaluation of
// the same tree. Division and remainder guard against zero inside the
// generated tree itself, so both sides are total.
func TestDifferentialExpressions(t *testing.T) {
	rnd := xrand.New(0xD1FF)
	env := map[string]int64{"a": -7, "b": 3, "c": 1 << 40, "d": 0, "e": 255}
	names := []string{"a", "b", "c", "d", "e"}

	// gen returns an expression and its Go-evaluated value.
	var gen func(depth int) (Expr, int64)
	gen = func(depth int) (Expr, int64) {
		if depth <= 0 || rnd.Intn(100) < 25 {
			switch rnd.Intn(3) {
			case 0:
				v := int64(rnd.Intn(1<<16)) - 1<<15
				return I(v), v
			case 1:
				v := rnd.Int63() - 1<<62 // wide constant, forces LDC
				return I(v), v
			default:
				n := names[rnd.Intn(len(names))]
				return L(n), env[n]
			}
		}
		switch rnd.Intn(16) {
		case 0:
			x, xv := gen(depth - 1)
			y, yv := gen(depth - 1)
			return Add(x, y), xv + yv
		case 1:
			x, xv := gen(depth - 1)
			y, yv := gen(depth - 1)
			return Sub(x, y), xv - yv
		case 2:
			x, xv := gen(depth - 1)
			y, yv := gen(depth - 1)
			return Mul(x, y), xv * yv
		case 3:
			// Guarded division: (y == 0) ? x : x/y, expressed with a
			// comparison-select the generator mirrors.
			x, xv := gen(depth - 1)
			y, yv := gen(depth - 1)
			if yv == 0 {
				return Add(x, Mul(y, I(0))), xv
			}
			return Div(x, y), xv / yv
		case 4:
			x, xv := gen(depth - 1)
			y, yv := gen(depth - 1)
			if yv == 0 {
				return Sub(x, Mul(y, I(7))), xv
			}
			return Rem(x, y), xv % yv
		case 5:
			x, xv := gen(depth - 1)
			return Neg(x), -xv
		case 6:
			x, xv := gen(depth - 1)
			y, yv := gen(depth - 1)
			return And(x, y), xv & yv
		case 7:
			x, xv := gen(depth - 1)
			y, yv := gen(depth - 1)
			return Or(x, y), xv | yv
		case 8:
			x, xv := gen(depth - 1)
			y, yv := gen(depth - 1)
			return Xor(x, y), xv ^ yv
		case 9:
			x, xv := gen(depth - 1)
			s := int64(rnd.Intn(63))
			return Shl(x, I(s)), xv << s
		case 10:
			x, xv := gen(depth - 1)
			s := int64(rnd.Intn(63))
			return Shr(x, I(s)), xv >> s
		case 11:
			x, xv := gen(depth - 1)
			y, yv := gen(depth - 1)
			if xv == yv {
				return Eq(x, y), 1
			}
			return Eq(x, y), 0
		case 12:
			x, xv := gen(depth - 1)
			y, yv := gen(depth - 1)
			if xv < yv {
				return Lt(x, y), 1
			}
			return Lt(x, y), 0
		case 13:
			x, xv := gen(depth - 1)
			y, yv := gen(depth - 1)
			if xv >= yv {
				return Ge(x, y), 1
			}
			return Ge(x, y), 0
		case 14:
			x, xv := gen(depth - 1)
			if xv == 0 {
				return NotExpr{A: x}, 1
			}
			return NotExpr{A: x}, 0
		default:
			x, xv := gen(depth - 1)
			y, yv := gen(depth - 1)
			if xv > yv {
				return Gt(x, y), 1
			}
			return Gt(x, y), 0
		}
	}

	for trial := 0; trial < 300; trial++ {
		e, want := gen(5)
		body := []Stmt{}
		for _, n := range names {
			body = append(body, Let(n, I(env[n])))
		}
		body = append(body, SetG("Main", "out", e), Halt())
		p := &Program{Name: "diff", Main: "Main", Classes: []*Class{{
			Name:   "Main",
			Fields: []string{"out"},
			Funcs:  []*Func{{Name: "main", Body: body}},
		}}}
		cp, err := Compile(p)
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		ln, err := vm.Link(cp)
		if err != nil {
			t.Fatalf("trial %d: link: %v", trial, err)
		}
		m, err := ln.Run(vm.Options{MaxSteps: 1e7})
		if err != nil {
			t.Fatalf("trial %d: run: %v", trial, err)
		}
		got, err := m.Global("Main", "out")
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: VM evaluated %d, Go evaluated %d", trial, got, want)
		}
	}
}

// TestDifferentialControlFlow generates random straight-line programs of
// assignments, conditionals, and bounded loops over a small register
// file, and compares the VM's final state with a Go interpreter of the
// same statement list.
func TestDifferentialControlFlow(t *testing.T) {
	rnd := xrand.New(0xC0F1)
	regs := []string{"r0", "r1", "r2", "r3"}

	type ghost struct{ v [4]int64 }
	var genStmts func(depth, n int) ([]Stmt, func(*ghost))
	ctrID := 0

	// simple expressions over registers and constants
	genE := func() (Expr, func(*ghost) int64) {
		switch rnd.Intn(4) {
		case 0:
			v := int64(rnd.Intn(21) - 10)
			return I(v), func(*ghost) int64 { return v }
		case 1:
			r := rnd.Intn(4)
			return L(regs[r]), func(g *ghost) int64 { return g.v[r] }
		case 2:
			a, b := rnd.Intn(4), rnd.Intn(4)
			return Add(L(regs[a]), L(regs[b])), func(g *ghost) int64 { return g.v[a] + g.v[b] }
		default:
			a := rnd.Intn(4)
			k := int64(rnd.Intn(5) + 1)
			return Mul(L(regs[a]), I(k)), func(g *ghost) int64 { return g.v[a] * k }
		}
	}

	genStmts = func(depth, n int) ([]Stmt, func(*ghost)) {
		var ss []Stmt
		var fs []func(*ghost)
		for i := 0; i < n; i++ {
			switch {
			case depth > 0 && rnd.Intn(100) < 25:
				// if (ra < rb) { ... } else { ... }
				a, b := rnd.Intn(4), rnd.Intn(4)
				thenS, thenF := genStmts(depth-1, 1+rnd.Intn(3))
				elseS, elseF := genStmts(depth-1, 1+rnd.Intn(3))
				ss = append(ss, If(Lt(L(regs[a]), L(regs[b])), thenS, elseS))
				fs = append(fs, func(g *ghost) {
					if g.v[a] < g.v[b] {
						thenF(g)
					} else {
						elseF(g)
					}
				})
			case depth > 0 && rnd.Intn(100) < 20:
				// bounded counting loop on a fresh conceptual counter:
				// for k := 0; k < K; k++ { body }
				k := int64(rnd.Intn(5))
				bodyS, bodyF := genStmts(depth-1, 1+rnd.Intn(2))
				ctrID++
				ctr := fmt.Sprintf("k%d", ctrID) // unique per loop
				ss = append(ss, For(Let(ctr, I(0)), Lt(L(ctr), I(k)), Inc(ctr), bodyS))
				fs = append(fs, func(g *ghost) {
					for i := int64(0); i < k; i++ {
						bodyF(g)
					}
				})
			default:
				r := rnd.Intn(4)
				e, ef := genE()
				ss = append(ss, Let(regs[r], e))
				fs = append(fs, func(g *ghost) { g.v[r] = ef(g) })
			}
		}
		return ss, func(g *ghost) {
			for _, f := range fs {
				f(g)
			}
		}
	}

	for trial := 0; trial < 200; trial++ {
		var body []Stmt
		init := make([]int64, 4)
		for i, r := range regs {
			init[i] = int64(rnd.Intn(7))
			body = append(body, Let(r, I(init[i])))
		}
		stmts, ghostF := genStmts(3, 2+rnd.Intn(4))
		body = append(body, stmts...)
		for i, r := range regs {
			body = append(body, SetG("Main", outField(i), L(r)))
		}
		body = append(body, Halt())

		p := &Program{Name: "cfdiff", Main: "Main", Classes: []*Class{{
			Name:   "Main",
			Fields: []string{outField(0), outField(1), outField(2), outField(3)},
			Funcs:  []*Func{{Name: "main", Body: body}},
		}}}
		cp, err := Compile(p)
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		ln, err := vm.Link(cp)
		if err != nil {
			t.Fatalf("trial %d: link: %v", trial, err)
		}
		m, err := ln.Run(vm.Options{MaxSteps: 1e7})
		if err != nil {
			t.Fatalf("trial %d: run: %v", trial, err)
		}

		var g ghost
		copy(g.v[:], init)
		ghostF(&g)
		for i := range regs {
			got, err := m.Global("Main", outField(i))
			if err != nil {
				t.Fatal(err)
			}
			if got != g.v[i] {
				t.Fatalf("trial %d: register %d: VM %d, ghost %d", trial, i, got, g.v[i])
			}
		}
	}
}

func outField(i int) string { return "out" + string(rune('0'+i)) }
