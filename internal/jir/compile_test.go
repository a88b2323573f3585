package jir

import (
	"strings"
	"testing"

	"nonstrict/internal/classfile"
	"nonstrict/internal/vm"
)

// runMain compiles a single-class program whose main stores its result in
// field Main.out, runs it, and returns the field value.
func runMain(t *testing.T, fields []string, funcs []*Func, args ...int64) int64 {
	t.Helper()
	m := runProgram(t, &Program{
		Name: "t",
		Main: "Main",
		Classes: []*Class{{
			Name:   "Main",
			Fields: append([]string{"out"}, fields...),
			Funcs:  funcs,
		}},
	}, args...)
	v, err := m.Global("Main", "out")
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func runProgram(t *testing.T, p *Program, args ...int64) *vm.Machine {
	t.Helper()
	cp, err := Compile(p)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ln, err := vm.Link(cp)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	m, err := ln.Run(vm.Options{Args: args, MaxSteps: 1e8})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return m
}

func mainFn(params []string, body ...Stmt) *Func {
	return &Func{Name: "main", Params: params, Body: body}
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		name string
		e    Expr
		want int64
	}{
		{"add", Add(I(2), I(3)), 5},
		{"sub", Sub(I(2), I(3)), -1},
		{"mul", Mul(I(7), I(-6)), -42},
		{"div", Div(I(17), I(5)), 3},
		{"divneg", Div(I(-17), I(5)), -3}, // truncated, like Java
		{"rem", Rem(I(17), I(5)), 2},
		{"remneg", Rem(I(-17), I(5)), -2},
		{"and", And(I(0b1100), I(0b1010)), 0b1000},
		{"or", Or(I(0b1100), I(0b1010)), 0b1110},
		{"xor", Xor(I(0b1100), I(0b1010)), 0b0110},
		{"shl", Shl(I(3), I(4)), 48},
		{"shr", Shr(I(-64), I(2)), -16}, // arithmetic shift
		{"neg", Neg(I(9)), -9},
		{"not0", NotExpr{A: I(0)}, 1},
		{"not5", NotExpr{A: I(5)}, 0},
		{"bigconst", Add(I(1_000_000_007), I(0)), 1_000_000_007}, // forces LDC
		{"hugeconst", Add(I(1<<40), I(1)), 1<<40 + 1},            // forces Long
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runMain(t, nil, []*Func{mainFn(nil,
				SetG("Main", "out", tc.e), Halt())})
			if got != tc.want {
				t.Errorf("got %d, want %d", got, tc.want)
			}
		})
	}
}

func TestComparisonsAsValues(t *testing.T) {
	cases := []struct {
		name string
		e    Expr
		want int64
	}{
		{"eq-true", Eq(I(3), I(3)), 1},
		{"eq-false", Eq(I(3), I(4)), 0},
		{"ne", Ne(I(3), I(4)), 1},
		{"lt", Lt(I(3), I(4)), 1},
		{"le", Le(I(4), I(4)), 1},
		{"gt", Gt(I(3), I(4)), 0},
		{"ge", Ge(I(4), I(4)), 1},
		{"cmp-zero", Lt(I(-1), I(0)), 1}, // exercises one-operand branch form
		{"sum", Add(Lt(I(1), I(2)), Gt(I(1), I(2))), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runMain(t, nil, []*Func{mainFn(nil,
				SetG("Main", "out", tc.e), Halt())})
			if got != tc.want {
				t.Errorf("got %d, want %d", got, tc.want)
			}
		})
	}
}

func TestControlFlow(t *testing.T) {
	t.Run("if-else", func(t *testing.T) {
		got := runMain(t, nil, []*Func{mainFn(nil,
			Let("x", I(10)),
			If(Gt(L("x"), I(5)),
				Block(SetG("Main", "out", I(1))),
				Block(SetG("Main", "out", I(2)))),
			Halt())})
		if got != 1 {
			t.Errorf("got %d, want 1", got)
		}
	})
	t.Run("if-no-else", func(t *testing.T) {
		got := runMain(t, nil, []*Func{mainFn(nil,
			SetG("Main", "out", I(7)),
			If(Eq(I(1), I(2)), Block(SetG("Main", "out", I(9))), nil),
			Halt())})
		if got != 7 {
			t.Errorf("got %d, want 7", got)
		}
	})
	t.Run("while-sum", func(t *testing.T) {
		// sum 1..100 = 5050
		got := runMain(t, nil, []*Func{mainFn(nil,
			Let("i", I(1)), Let("s", I(0)),
			While(Le(L("i"), I(100)), Block(
				Let("s", Add(L("s"), L("i"))),
				Inc("i"),
			)),
			SetG("Main", "out", L("s")),
			Halt())})
		if got != 5050 {
			t.Errorf("got %d, want 5050", got)
		}
	})
	t.Run("for-product", func(t *testing.T) {
		// 5! = 120
		got := runMain(t, nil, []*Func{mainFn(nil,
			Let("p", I(1)),
			For(Let("i", I(1)), Le(L("i"), I(5)), Inc("i"), Block(
				Let("p", Mul(L("p"), L("i"))),
			)),
			SetG("Main", "out", L("p")),
			Halt())})
		if got != 120 {
			t.Errorf("got %d, want 120", got)
		}
	})
	t.Run("nested-if-terminated-arms", func(t *testing.T) {
		f := &Func{Name: "sign", Params: []string{"x"}, NRet: 1, Body: Block(
			If(Lt(L("x"), I(0)), Block(Ret(I(-1))), Block(
				If(Eq(L("x"), I(0)), Block(Ret(I(0))), Block(Ret(I(1)))),
			)),
		)}
		got := runMain(t, nil, []*Func{f, mainFn(nil,
			SetG("Main", "out", Add(
				Mul(Call("Main", "sign", I(-9)), I(100)),
				Add(Mul(Call("Main", "sign", I(0)), I(10)), Call("Main", "sign", I(3))))),
			Halt())})
		if got != -100+0+1 {
			t.Errorf("got %d, want -99", got)
		}
	})
}

func TestArraysAndStrings(t *testing.T) {
	t.Run("array-sum", func(t *testing.T) {
		got := runMain(t, nil, []*Func{mainFn(nil,
			Let("a", NewArr(I(10))),
			For(Let("i", I(0)), Lt(L("i"), ALen(L("a"))), Inc("i"), Block(
				SetIdx(L("a"), L("i"), Mul(L("i"), L("i"))),
			)),
			Let("s", I(0)),
			For(Let("i", I(0)), Lt(L("i"), I(10)), Inc("i"), Block(
				Let("s", Add(L("s"), Idx(L("a"), L("i")))),
			)),
			SetG("Main", "out", L("s")),
			Halt())})
		if got != 285 {
			t.Errorf("got %d, want 285", got)
		}
	})
	t.Run("string-bytes", func(t *testing.T) {
		// "AB" -> 65 + 66 = 131, length 2
		got := runMain(t, nil, []*Func{mainFn(nil,
			Let("s", Str("AB")),
			SetG("Main", "out", Add(
				Mul(ALen(L("s")), I(1000)),
				Add(Idx(L("s"), I(0)), Idx(L("s"), I(1))))),
			Halt())})
		if got != 2131 {
			t.Errorf("got %d, want 2131", got)
		}
	})
}

func TestCallsAndRecursion(t *testing.T) {
	fib := &Func{Name: "fib", Params: []string{"n"}, NRet: 1, Body: Block(
		If(Lt(L("n"), I(2)), Block(Ret(L("n"))), nil),
		Ret(Add(Call("Main", "fib", Sub(L("n"), I(1))),
			Call("Main", "fib", Sub(L("n"), I(2))))),
	)}
	got := runMain(t, nil, []*Func{fib, mainFn(nil,
		SetG("Main", "out", Call("Main", "fib", I(15))),
		Halt())})
	if got != 610 {
		t.Errorf("fib(15) = %d, want 610", got)
	}
}

func TestCrossClassCallsAndGlobals(t *testing.T) {
	p := &Program{
		Name: "x",
		Main: "A",
		Classes: []*Class{
			{Name: "A", Fields: []string{"out"}, Funcs: []*Func{
				mainFn(nil,
					SetG("B", "acc", I(100)),
					Do(Call("B", "bump", I(11))),
					Do(Call("B", "bump", I(31))),
					SetG("A", "out", G("B", "acc")),
					Halt()),
			}},
			{Name: "B", Fields: []string{"acc"}, Funcs: []*Func{
				{Name: "bump", Params: []string{"d"}, Body: Block(
					SetG("B", "acc", Add(G("B", "acc"), L("d"))),
					RetV(),
				)},
			}},
		},
	}
	m := runProgram(t, p)
	v, err := m.Global("A", "out")
	if err != nil {
		t.Fatal(err)
	}
	if v != 142 {
		t.Errorf("got %d, want 142", v)
	}
}

func TestMainArgs(t *testing.T) {
	got := runMain(t, nil, []*Func{mainFn([]string{"a", "b"},
		SetG("Main", "out", Sub(L("a"), L("b"))),
		Halt())}, 50, 8)
	if got != 42 {
		t.Errorf("got %d, want 42", got)
	}
}

func TestVoidCallAsStatement(t *testing.T) {
	side := &Func{Name: "side", Params: nil, Body: Block(
		SetG("Main", "out", I(5)), RetV())}
	got := runMain(t, nil, []*Func{side, mainFn(nil,
		Do(Call("Main", "side")), Halt())})
	if got != 5 {
		t.Errorf("got %d, want 5", got)
	}
}

func TestDoDiscardsResult(t *testing.T) {
	val := &Func{Name: "val", NRet: 1, Body: Block(Ret(I(9)))}
	got := runMain(t, nil, []*Func{val, mainFn(nil,
		SetG("Main", "out", I(1)),
		Do(Call("Main", "val")),
		Halt())})
	if got != 1 {
		t.Errorf("got %d, want 1", got)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name string
		p    *Program
		want string
	}{
		{
			"no-main",
			&Program{Name: "e", Main: "M", Classes: []*Class{{Name: "M"}}},
			"no M.main",
		},
		{
			"undeclared-local",
			&Program{Name: "e", Main: "M", Classes: []*Class{{Name: "M", Funcs: []*Func{
				mainFn(nil, Let("x", L("y")), Halt())}}}},
			"undeclared local",
		},
		{
			"undefined-call",
			&Program{Name: "e", Main: "M", Classes: []*Class{{Name: "M", Funcs: []*Func{
				mainFn(nil, Do(Call("M", "nope")), Halt())}}}},
			"undefined",
		},
		{
			"arity-mismatch",
			&Program{Name: "e", Main: "M", Classes: []*Class{{Name: "M", Funcs: []*Func{
				{Name: "f", Params: []string{"a"}, Body: Block(RetV())},
				mainFn(nil, Do(Call("M", "f")), Halt())}}}},
			"0 args, want 1",
		},
		{
			"void-as-value",
			&Program{Name: "e", Main: "M", Classes: []*Class{{Name: "M", Fields: []string{"out"}, Funcs: []*Func{
				{Name: "f", Body: Block(RetV())},
				mainFn(nil, SetG("M", "out", Call("M", "f")), Halt())}}}},
			"used as value",
		},
		{
			"missing-field",
			&Program{Name: "e", Main: "M", Classes: []*Class{{Name: "M", Funcs: []*Func{
				mainFn(nil, SetG("M", "zzz", I(1)), Halt())}}}},
			"no field",
		},
		{
			"missing-class-field",
			&Program{Name: "e", Main: "M", Classes: []*Class{{Name: "M", Funcs: []*Func{
				mainFn(nil, SetG("Q", "f", I(1)), Halt())}}}},
			"no class",
		},
		{
			"bare-return-in-value-fn",
			&Program{Name: "e", Main: "M", Classes: []*Class{{Name: "M", Funcs: []*Func{
				{Name: "f", NRet: 1, Body: Block(RetV())},
				mainFn(nil, Halt())}}}},
			"bare return",
		},
		{
			"fall-off-value-fn",
			&Program{Name: "e", Main: "M", Classes: []*Class{{Name: "M", Funcs: []*Func{
				{Name: "f", NRet: 1, Body: Block(Let("x", I(1)))},
				mainFn(nil, Halt())}}}},
			"reach end",
		},
		{
			"duplicate-func",
			&Program{Name: "e", Main: "M", Classes: []*Class{{Name: "M", Funcs: []*Func{
				mainFn(nil, Halt()), mainFn(nil, Halt())}}}},
			"duplicate",
		},
		{
			"unreachable-stmt",
			&Program{Name: "e", Main: "M", Classes: []*Class{{Name: "M", Funcs: []*Func{
				mainFn(nil, Halt(), Let("x", I(1)))}}}},
			"unreachable",
		},
		{
			"inc-undeclared",
			&Program{Name: "e", Main: "M", Classes: []*Class{{Name: "M", Funcs: []*Func{
				mainFn(nil, Inc("q"), Halt())}}}},
			"undeclared",
		},
		{
			"do-non-call",
			&Program{Name: "e", Main: "M", Classes: []*Class{{Name: "M", Funcs: []*Func{
				mainFn(nil, Do(I(3)), Halt())}}}},
			"requires a call",
		},
		{
			"dup-param",
			&Program{Name: "e", Main: "M", Classes: []*Class{{Name: "M", Funcs: []*Func{
				{Name: "f", Params: []string{"a", "a"}, Body: Block(RetV())},
				mainFn(nil, Halt())}}}},
			"duplicate parameter",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(tc.p)
			if err == nil {
				t.Fatal("compile succeeded")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestUnusedPoolEntries(t *testing.T) {
	p := &Program{
		Name: "u",
		Main: "M",
		Classes: []*Class{{
			Name:          "M",
			Funcs:         []*Func{mainFn(nil, Halt())},
			UnusedStrings: []string{"never used", "also unused"},
			UnusedInts:    []int64{999999999},
		}},
	}
	cp, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	c := cp.Classes[0]
	found := 0
	for i := 1; i < len(c.CP); i++ {
		e := c.CP[i]
		if e.Kind == classfile.KString && c.Utf8(e.A) == "never used" {
			found++
		}
		if e.Kind == classfile.KInteger && e.Int == 999999999 {
			found++
		}
	}
	if found != 2 {
		t.Errorf("unused pool entries found = %d, want 2", found)
	}
}

func TestLocalDataGeneration(t *testing.T) {
	p := &Program{
		Name: "ld",
		Main: "M",
		Classes: []*Class{{
			Name: "M",
			Funcs: []*Func{
				{Name: "main", Body: Block(Halt()), LocalData: 64},
				{Name: "g", Body: Block(RetV()), LocalData: 32},
			},
		}},
	}
	cp, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	ms := cp.Classes[0].Methods
	if len(ms[0].LocalData) != 64 || len(ms[1].LocalData) != 32 {
		t.Fatalf("local data sizes %d/%d", len(ms[0].LocalData), len(ms[1].LocalData))
	}
	// Deterministic: recompiling yields identical blobs.
	cp2, _ := Compile(p)
	if string(cp2.Classes[0].Methods[0].LocalData) != string(ms[0].LocalData) {
		t.Error("local data not deterministic")
	}
	// Distinct methods get distinct blobs.
	if string(ms[0].LocalData[:32]) == string(ms[1].LocalData) {
		t.Error("local data identical across methods")
	}
}

func TestMaxStackIsSufficientAndTight(t *testing.T) {
	// Deeply nested expression forces a deep operand stack.
	e := Expr(I(1))
	for i := 0; i < 30; i++ {
		e = Add(e, I(1))
	}
	p := &Program{Name: "s", Main: "M", Classes: []*Class{{
		Name: "M", Fields: []string{"out"},
		Funcs: []*Func{mainFn(nil, SetG("M", "out", e), Halt())}}}}
	cp, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	m := cp.Classes[0].Methods[0]
	if m.MaxStack < 2 {
		t.Errorf("MaxStack = %d, too small", m.MaxStack)
	}
	// Execution must succeed within the declared frame.
	ln, err := vm.Link(cp)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := ln.Run(vm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := mach.Global("M", "out"); v != 31 {
		t.Errorf("deep expression = %d, want 31", v)
	}
}

func TestInfiniteLoopWithHaltInside(t *testing.T) {
	got := runMain(t, nil, []*Func{mainFn(nil,
		Let("i", I(0)),
		For(nil, nil, nil, Block(
			Inc("i"),
			If(Ge(L("i"), I(10)), Block(
				SetG("Main", "out", L("i")),
				Halt()), nil),
		)))})
	if got != 10 {
		t.Errorf("got %d, want 10", got)
	}
}

func TestBinOpString(t *testing.T) {
	ops := []BinOp{OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor,
		OpShl, OpShr, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	seen := map[string]bool{}
	for _, op := range ops {
		s := op.String()
		if s == "" || seen[s] {
			t.Errorf("op %d has bad or duplicate name %q", op, s)
		}
		seen[s] = true
	}
	if BinOp(99).String() == "" {
		t.Error("unknown op has empty name")
	}
}
