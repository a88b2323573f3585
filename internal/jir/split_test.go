package jir

import (
	"reflect"
	"strings"
	"testing"

	"nonstrict/internal/vm"
)

func TestSplitLargePreservesSemantics(t *testing.T) {
	// A value function with a long straight-line body and live state
	// crossing the split point, plus loops and early returns.
	body := []Stmt{
		Let("a", I(1)), Let("b", I(2)), Let("c", I(3)),
	}
	for i := 0; i < 30; i++ {
		body = append(body,
			Let("a", Add(Mul(L("a"), I(3)), L("b"))),
			Let("b", Xor(L("b"), Add(L("c"), I(int64(i))))),
			Let("c", Sub(Mul(L("c"), I(5)), L("a"))),
		)
	}
	body = append(body,
		If(Lt(L("a"), I(0)), Block(Ret(Neg(L("a")))), nil),
		Ret(Add(L("a"), Add(L("b"), L("c")))),
	)
	mk := func() *Program {
		b2 := append([]Stmt{}, body...)
		return &Program{Name: "s", Main: "M", Classes: []*Class{{
			Name:   "M",
			Fields: []string{"out"},
			Funcs: []*Func{
				{Name: "big", NRet: 1, Body: b2, LocalData: 1000},
				{Name: "main", Body: Block(
					SetG("M", "out", Call("M", "big")),
					Halt(),
				)},
			},
		}}}
	}

	run := func(p *Program) int64 {
		cp, err := Compile(p)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		ln, err := vm.Link(cp)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ln.Run(vm.Options{MaxSteps: 1e7})
		if err != nil {
			t.Fatal(err)
		}
		v, err := m.Global("M", "out")
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	want := run(mk())

	split, n, err := SplitLarge(mk(), 12)
	if err != nil {
		t.Fatal(err)
	}
	if n < 2 {
		t.Fatalf("created %d continuations, expected several", n)
	}
	got := run(split)
	if got != want {
		t.Fatalf("split program computes %d, original %d", got, want)
	}

	// Structure: every body within budget or unsplittable; local data
	// conserved.
	var totalLD int
	for _, f := range split.Classes[0].Funcs {
		totalLD += f.LocalData
		if len(f.Body) > 12+2 { // +2 for the appended call/return
			t.Errorf("%s still has %d top-level statements", f.Name, len(f.Body))
		}
	}
	if totalLD != 1000 {
		t.Errorf("local data not conserved: %d", totalLD)
	}
	// Continuations are named and chained.
	found := false
	for _, f := range split.Classes[0].Funcs {
		if strings.Contains(f.Name, "$c") {
			found = true
		}
	}
	if !found {
		t.Error("no continuation functions present")
	}
}

func TestSplitLargeVoidWithHalt(t *testing.T) {
	// Splitting across a Halt is legal: Halt stops the machine from the
	// continuation too.
	var body []Stmt
	for i := 0; i < 20; i++ {
		body = append(body, SetG("M", "out", Add(G("M", "out"), I(int64(i)))))
	}
	body = append(body, Halt())
	p := &Program{Name: "h", Main: "M", Classes: []*Class{{
		Name:   "M",
		Fields: []string{"out"},
		Funcs:  []*Func{{Name: "main", Body: body}},
	}}}
	p, n, err := SplitLarge(p, 6)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing split")
	}
	cp, err := Compile(p)
	if err != nil {
		t.Fatalf("split program does not compile: %v", err)
	}
	ln, err := vm.Link(cp)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ln.Run(vm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Global("M", "out"); v != 190 { // sum 0..19
		t.Errorf("out = %d, want 190", v)
	}
}

func TestSplitLargeRejectsTinyBudget(t *testing.T) {
	p := &Program{Name: "x", Main: "M", Classes: []*Class{{
		Name:  "M",
		Funcs: []*Func{{Name: "main", Body: Block(Halt())}},
	}}}
	if _, _, err := SplitLarge(p, 1); err == nil {
		t.Error("budget 1 accepted")
	}
}

func TestSplitLargeLeavesSmallFunctionsAlone(t *testing.T) {
	p := &Program{Name: "x", Main: "M", Classes: []*Class{{
		Name:  "M",
		Funcs: []*Func{{Name: "main", Body: Block(Let("a", I(1)), Halt())}},
	}}}
	p, n, err := SplitLarge(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || len(p.Classes[0].Funcs) != 1 {
		t.Errorf("small function was split (%d continuations)", n)
	}
}

// TestSplitLargeLeavesItsInputAlone: the transform is pure. Its input —
// here a program with one class it splits twice over and one it does not
// touch — compiles to the same bytes and compares deep-equal to a
// separately built copy afterwards, and the untouched class is shared,
// not copied.
func TestSplitLargeLeavesItsInputAlone(t *testing.T) {
	mk := func() *Program {
		var big, long []Stmt
		for i := 0; i < 40; i++ {
			big = append(big, SetG("M", "out", Add(G("M", "out"), I(int64(i)))))
			long = append(long, Let("a", Add(L("a"), I(int64(i)))))
		}
		return &Program{Name: "pure", Main: "M", Classes: []*Class{
			{Name: "M", Fields: []string{"out"}, Funcs: []*Func{
				{Name: "main", LocalData: 300, Body: append(big, Do(Call("M", "sum", I(1))), Halt())},
				{Name: "sum", Params: []string{"a"}, NRet: 1, LocalData: 70, Body: append(long, Ret(L("a")))},
			}},
			{Name: "Small", Funcs: []*Func{{Name: "id", Params: []string{"x"}, NRet: 1, Body: Block(Ret(L("x")))}}},
		}}
	}
	images := func(p *Program) []string {
		cp, err := Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, c := range cp.Classes {
			out = append(out, string(c.Serialize()))
		}
		return out
	}

	in := mk()
	before := images(in)
	out, n, err := SplitLarge(in, 6)
	if err != nil {
		t.Fatal(err)
	}
	if n < 4 || len(out.Classes[0].Funcs) != 2+n {
		t.Fatalf("%d continuations, %d functions in the split class", n, len(out.Classes[0].Funcs))
	}
	if !reflect.DeepEqual(in, mk()) {
		t.Error("SplitLarge changed its input")
	}
	if after := images(in); !reflect.DeepEqual(before, after) {
		t.Error("the input compiles to different bytes after SplitLarge")
	}
	if out == in || out.Classes[0] == in.Classes[0] {
		t.Error("the split class is the input's own")
	}
	if out.Classes[1] != in.Classes[1] {
		t.Error("the class nothing was split in was copied")
	}
	if reflect.DeepEqual(before, images(out)) {
		t.Error("the result compiles to the input's bytes")
	}
}
