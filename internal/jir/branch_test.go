package jir

import (
	"fmt"
	"testing"
)

// TestBranchBoundaries exercises every relational operator used as a
// fused branch condition (both the two-operand form and the compare-with-
// zero form) at, below, and above the boundary. A previous bug compiled
// the negation of > as < instead of <=, which these cases catch.
func TestBranchBoundaries(t *testing.T) {
	type cmp struct {
		name string
		mk   func(a, b Expr) Expr
		ref  func(a, b int64) bool
	}
	cmps := []cmp{
		{"eq", Eq, func(a, b int64) bool { return a == b }},
		{"ne", Ne, func(a, b int64) bool { return a != b }},
		{"lt", Lt, func(a, b int64) bool { return a < b }},
		{"le", Le, func(a, b int64) bool { return a <= b }},
		{"gt", Gt, func(a, b int64) bool { return a > b }},
		{"ge", Ge, func(a, b int64) bool { return a >= b }},
	}
	vals := []int64{-2, -1, 0, 1, 2, 5}
	consts := []int64{0, 1, 5} // 0 exercises the one-operand branch form

	for _, c := range cmps {
		for _, a := range vals {
			for _, b := range consts {
				name := fmt.Sprintf("%s/%d_%d", c.name, a, b)
				t.Run(name, func(t *testing.T) {
					// The condition value flows through an If in branch
					// position; 1 = taken, 0 = not taken.
					got := runMain(t, nil, []*Func{mainFn(nil,
						Let("a", I(a)),
						If(c.mk(L("a"), I(b)),
							Block(SetG("Main", "out", I(1))),
							Block(SetG("Main", "out", I(0)))),
						Halt())})
					want := int64(0)
					if c.ref(a, b) {
						want = 1
					}
					if got != want {
						t.Errorf("If(%d %s %d) took branch %d, want %d", a, c.name, b, got, want)
					}
					// Same condition negated via NotExpr.
					gotN := runMain(t, nil, []*Func{mainFn(nil,
						Let("a", I(a)),
						If(NotExpr{A: c.mk(L("a"), I(b))},
							Block(SetG("Main", "out", I(1))),
							Block(SetG("Main", "out", I(0)))),
						Halt())})
					if gotN != 1-want {
						t.Errorf("If(!(%d %s %d)) took branch %d, want %d", a, c.name, b, gotN, 1-want)
					}
				})
			}
		}
	}
}

// TestWhileBoundary checks loop exit conditions count exactly.
func TestWhileBoundary(t *testing.T) {
	cases := []struct {
		name string
		cond func() Expr
		want int64
	}{
		{"gt-zero", func() Expr { return Gt(L("v"), I(0)) }, 3},  // 3,2,1
		{"ge-zero", func() Expr { return Ge(L("v"), I(0)) }, 4},  // 3,2,1,0
		{"ne-zero", func() Expr { return Ne(L("v"), I(0)) }, 3},  //
		{"gt-one", func() Expr { return Gt(L("v"), I(1)) }, 2},   // 3,2
		{"ge-one", func() Expr { return Ge(L("v"), I(1)) }, 3},   //
		{"le-bound", func() Expr { return Le(L("i"), I(5)) }, 0}, // counts i separately below
	}
	for _, tc := range cases[:5] {
		t.Run(tc.name, func(t *testing.T) {
			got := runMain(t, nil, []*Func{mainFn(nil,
				Let("v", I(3)), Let("n", I(0)),
				While(tc.cond(), Block(
					Let("v", Sub(L("v"), I(1))),
					Inc("n"),
				)),
				SetG("Main", "out", L("n")),
				Halt())})
			if got != tc.want {
				t.Errorf("iterations = %d, want %d", got, tc.want)
			}
		})
	}
}
