package vm

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"nonstrict/internal/bytecode"
	"nonstrict/internal/classfile"
	"nonstrict/internal/jir"
)

func compile(t *testing.T, p *jir.Program) *Linked {
	t.Helper()
	cp, err := jir.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := Link(cp)
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// chainProgram builds Main.main -> A.f -> B.g -> A.h with loops, for
// profiling and trace tests.
func chainProgram() *jir.Program {
	return &jir.Program{
		Name: "chain",
		Main: "Main",
		Classes: []*jir.Class{
			{Name: "Main", Fields: []string{"out"}, Funcs: []*jir.Func{
				{Name: "main", Body: jir.Block(
					jir.SetG("Main", "out", jir.Call("A", "f", jir.I(4))),
					jir.Halt(),
				)},
				{Name: "never", Body: jir.Block(jir.RetV())},
			}},
			{Name: "A", Funcs: []*jir.Func{
				{Name: "f", Params: []string{"n"}, NRet: 1, Body: jir.Block(
					jir.Let("s", jir.I(0)),
					jir.For(jir.Let("i", jir.I(0)), jir.Lt(jir.L("i"), jir.L("n")), jir.Inc("i"), jir.Block(
						jir.Let("s", jir.Add(jir.L("s"), jir.Call("B", "g", jir.L("i")))),
					)),
					jir.Ret(jir.L("s")),
				)},
				{Name: "h", Params: []string{"x"}, NRet: 1, Body: jir.Block(
					jir.Ret(jir.Mul(jir.L("x"), jir.I(3))),
				)},
			}},
			{Name: "B", Funcs: []*jir.Func{
				{Name: "g", Params: []string{"x"}, NRet: 1, Body: jir.Block(
					jir.Ret(jir.Add(jir.Call("A", "h", jir.L("x")), jir.I(1))),
				)},
			}},
		},
	}
}

func TestFirstUseOrder(t *testing.T) {
	ln := compile(t, chainProgram())
	m, err := ln.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix := ln.Index()
	var names []string
	for _, id := range m.Profile().FirstUse {
		names = append(names, ix.Ref(id).String())
	}
	want := []string{"Main.main", "A.f", "B.g", "A.h"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("first-use order %v, want %v", names, want)
	}
	if m.Profile().Executed() != 4 {
		t.Errorf("Executed = %d, want 4 (Main.never must not appear)", m.Profile().Executed())
	}
	// Result check: sum over i<4 of (3i+1) = 3*6+4 = 22.
	if v, _ := m.Global("Main", "out"); v != 22 {
		t.Errorf("out = %d, want 22", v)
	}
}

func TestTraceInvariants(t *testing.T) {
	ln := compile(t, chainProgram())
	m, err := ln.Run(Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	trace := m.Trace()
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	// Segments sum to the dynamic instruction count.
	var sum int64
	for _, s := range trace {
		if s.N <= 0 {
			t.Fatalf("non-positive segment %+v", s)
		}
		sum += s.N
	}
	if sum != m.Steps() {
		t.Errorf("trace sums to %d, Steps = %d", sum, m.Steps())
	}
	// First segment belongs to main.
	if got := ln.Index().Ref(trace[0].M); got.Name != "main" {
		t.Errorf("first segment in %v", got)
	}
	// Per-method totals from the trace match the profile.
	per := make(map[classfile.MethodID]int64)
	for _, s := range trace {
		per[s.M] += s.N
	}
	for id, n := range m.Profile().MethodInstrs {
		if n != per[classfile.MethodID(id)] {
			t.Errorf("method %v: profile %d, trace %d",
				ln.Index().Ref(classfile.MethodID(id)), n, per[classfile.MethodID(id)])
		}
	}
	// A method's first trace appearance matches the first-use order.
	seen := make(map[classfile.MethodID]bool)
	var order []classfile.MethodID
	for _, s := range trace {
		if !seen[s.M] {
			seen[s.M] = true
			order = append(order, s.M)
		}
	}
	fu := m.Profile().FirstUse
	if len(order) != len(fu) {
		t.Fatalf("trace first-appearances %d, profile %d", len(order), len(fu))
	}
	for i := range order {
		if order[i] != fu[i] {
			t.Errorf("position %d: trace %v, profile %v", i, order[i], fu[i])
		}
	}
}

func TestCoveredBytes(t *testing.T) {
	ln := compile(t, chainProgram())
	m, err := ln.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix := ln.Index()
	for id := classfile.MethodID(0); int(id) < ix.Len(); id++ {
		cov := m.Profile().CoveredBytes[id]
		codeLen := len(ix.Method(id).Code)
		if cov < 0 || cov > codeLen {
			t.Errorf("%v: covered %d of %d code bytes", ix.Ref(id), cov, codeLen)
		}
		if m.Profile().MethodInstrs[id] > 0 && cov == 0 {
			t.Errorf("%v: executed but zero coverage", ix.Ref(id))
		}
		if m.Profile().MethodInstrs[id] == 0 && cov != 0 {
			t.Errorf("%v: not executed but covered %d", ix.Ref(id), cov)
		}
	}
}

func trapProgram(body ...jir.Stmt) *jir.Program {
	return &jir.Program{Name: "trap", Main: "M", Classes: []*jir.Class{{
		Name: "M", Fields: []string{"out"},
		Funcs: []*jir.Func{{Name: "main", Body: body}},
	}}}
}

func TestTraps(t *testing.T) {
	cases := []struct {
		name string
		body []jir.Stmt
		want string
	}{
		{"div-zero", jir.Block(jir.SetG("M", "out", jir.Div(jir.I(1), jir.I(0))), jir.Halt()), "division by zero"},
		{"rem-zero", jir.Block(jir.SetG("M", "out", jir.Rem(jir.I(1), jir.I(0))), jir.Halt()), "remainder by zero"},
		{"oob-read", jir.Block(
			jir.Let("a", jir.NewArr(jir.I(3))),
			jir.SetG("M", "out", jir.Idx(jir.L("a"), jir.I(3))), jir.Halt()), "out of range"},
		{"oob-write", jir.Block(
			jir.Let("a", jir.NewArr(jir.I(3))),
			jir.SetIdx(jir.L("a"), jir.I(-1), jir.I(0)), jir.Halt()), "out of range"},
		{"neg-len", jir.Block(jir.Let("a", jir.NewArr(jir.I(-2))), jir.Halt()), "length -2"},
		{"index-non-array", jir.Block(
			jir.Let("a", jir.I(5)),
			jir.SetG("M", "out", jir.Idx(jir.L("a"), jir.I(0))), jir.Halt()), "non-array"},
		{"len-non-array", jir.Block(
			jir.Let("a", jir.I(5)),
			jir.SetG("M", "out", jir.ALen(jir.L("a"))), jir.Halt()), "non-array"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ln := compile(t, trapProgram(tc.body...))
			_, err := ln.Run(Options{})
			if err == nil {
				t.Fatal("run succeeded")
			}
			var re *RuntimeError
			if !errors.As(err, &re) {
				t.Fatalf("error %T, want *RuntimeError", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestMaxSteps(t *testing.T) {
	ln := compile(t, trapProgram(jir.For(nil, nil, nil, jir.Block(jir.Let("x", jir.I(1))))))
	_, err := ln.Run(Options{MaxSteps: 1000})
	if !errors.Is(err, ErrMaxSteps) {
		t.Fatalf("err = %v, want ErrMaxSteps", err)
	}
}

// TestMaxStepsExact sweeps the step budget across the end of runs that
// finish and runs that trap. A run that needs S steps succeeds exactly
// when the budget is at least S, and a trapping run reports its trap
// exactly when the budget reaches it and ErrMaxSteps below, wherever the
// trap falls in its basic block.
func TestMaxStepsExact(t *testing.T) {
	mainReturns := rawLink(t, rawMethod{"main", instrs(
		bytecode.Instr{Op: bytecode.BIPUSH, Arg: 5},
		bytecode.Instr{Op: bytecode.POP},
		bytecode.Instr{Op: bytecode.RETURN},
	)})
	for _, tc := range []struct {
		name string
		ln   *Linked
	}{
		{"chain", compile(t, chainProgram())},
		{"main-returns", mainReturns},
		{"every-fused-shape", allFused(t)},
	} {
		full, err := tc.ln.Run(Options{Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		need := full.Steps()
		// calledAt holds the step of the call that first invoked each
		// method, main's 0: a method's first segment starts right
		// after it.
		var calledAt []int64
		seen := make(map[classfile.MethodID]bool)
		var at int64
		for _, s := range full.Trace() {
			if !seen[s.M] {
				seen[s.M] = true
				calledAt = append(calledAt, at)
			}
			at += s.N
		}
		for budget := int64(1); budget <= need+2; budget++ {
			var firstUses int
			m, err := tc.ln.Run(Options{MaxSteps: budget, OnFirstUse: func(classfile.Ref) { firstUses++ }})
			switch {
			case budget >= need && err != nil:
				t.Errorf("%s needs %d steps: budget %d fails: %v", tc.name, need, budget, err)
			case budget >= need && m.Steps() != need:
				t.Errorf("%s: budget %d ran %d steps, want %d", tc.name, budget, m.Steps(), need)
			case budget < need && !errors.Is(err, ErrMaxSteps):
				t.Errorf("%s needs %d steps: budget %d gives %v, want ErrMaxSteps", tc.name, need, budget, err)
			}
			// Only the calls made within the budget invoke anything.
			want := 0
			for _, c := range calledAt {
				if c <= budget {
					want++
				}
			}
			if firstUses != want {
				t.Errorf("%s: budget %d observed %d first uses, want %d", tc.name, budget, firstUses, want)
			}
		}
	}
	for _, tc := range rawTraps {
		ln := rawLink(t, tc.methods...)
		for budget := int64(1); budget <= tc.steps+12; budget++ {
			_, err := ln.Run(Options{MaxSteps: budget, MaxFrames: tc.frames})
			var re *RuntimeError
			switch {
			case budget >= tc.steps && (!errors.As(err, &re) || re.Msg != tc.msg):
				t.Errorf("%s traps after %d steps: budget %d gives %v, want %q", tc.name, tc.steps, budget, err, tc.msg)
			case budget < tc.steps && !errors.Is(err, ErrMaxSteps):
				t.Errorf("%s traps after %d steps: budget %d gives %v, want ErrMaxSteps", tc.name, tc.steps, budget, err)
			}
		}
	}
}

// classGate passes the classes it holds and fails any other wait at once.
type classGate map[string]bool

func (g classGate) AwaitClass(name string) error {
	if !g[name] {
		return fmt.Errorf("class %s never arrives", name)
	}
	return nil
}

func (g classGate) AwaitMethod(ref classfile.Ref) error { return g.AwaitClass(ref.Class) }

// TestMaxStepsExactLive: a live run whose third instruction reads a field
// of a class that never arrives waits at the gate only when the budget
// reaches that instruction, and fails with ErrMaxSteps below it.
func TestMaxStepsExactLive(t *testing.T) {
	b := classfile.NewBuilder("M", "")
	b.AddMethod("main", 0, 0, 1, 2, nil, bytecode.Encode([]bytecode.Instr{
		{Op: bytecode.BIPUSH, Arg: 1},
		{Op: bytecode.POP},
		{Op: bytecode.GETSTATIC, Arg: int32(b.FieldRef("A", "k"))},
		{Op: bytecode.POP},
		{Op: bytecode.HALT},
	}))
	c := b.Build()
	const steps = 3
	for budget := int64(1); budget <= steps+3; budget++ {
		lv := NewLive("raw", "M", classGate{"M": true})
		if err := lv.AddClass(c, 0); err != nil {
			t.Fatal(err)
		}
		_, err := lv.Run(Options{MaxSteps: budget})
		switch {
		case budget >= steps && (err == nil || errors.Is(err, ErrMaxSteps) || !strings.Contains(err.Error(), "never arrives")):
			t.Errorf("budget %d gives %v, want the gate's error", budget, err)
		case budget < steps && !errors.Is(err, ErrMaxSteps):
			t.Errorf("budget %d gives %v, want ErrMaxSteps", budget, err)
		}
	}
}

func TestCallDepthLimit(t *testing.T) {
	p := &jir.Program{Name: "deep", Main: "M", Classes: []*jir.Class{{
		Name: "M",
		Funcs: []*jir.Func{
			{Name: "r", Params: []string{"n"}, Body: jir.Block(
				jir.Do(jir.Call("M", "r", jir.Add(jir.L("n"), jir.I(1)))),
				jir.RetV(),
			)},
			{Name: "main", Body: jir.Block(jir.Do(jir.Call("M", "r", jir.I(0))), jir.Halt())},
		},
	}}}
	ln := compile(t, p)
	_, err := ln.Run(Options{MaxFrames: 100})
	if err == nil || !strings.Contains(err.Error(), "call depth") {
		t.Fatalf("err = %v, want call depth error", err)
	}
}

func TestMainArgMismatch(t *testing.T) {
	ln := compile(t, trapProgram(jir.Halt()))
	if _, err := ln.Run(Options{Args: []int64{1}}); err == nil {
		t.Fatal("run with extra args succeeded")
	}
}

func TestGlobalAccessors(t *testing.T) {
	ln := compile(t, trapProgram(
		jir.SetG("M", "out", jir.I(77)),
		jir.Halt()))
	m, err := ln.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := m.Global("M", "out"); err != nil || v != 77 {
		t.Errorf("Global = %d, %v", v, err)
	}
	if _, err := m.Global("M", "nope"); err == nil {
		t.Error("Global of missing field succeeded")
	}
	if _, err := m.GlobalArray("M", "nope"); err == nil {
		t.Error("GlobalArray of missing field succeeded")
	}
	if a, err := m.GlobalArray("M", "out"); err != nil || a != nil {
		t.Errorf("GlobalArray of int field = %v, %v", a, err)
	}
}

func TestGlobalArrayRoundTrip(t *testing.T) {
	p := trapProgram(
		jir.SetG("M", "out", jir.NewArr(jir.I(4))),
		jir.SetIdx(jir.G("M", "out"), jir.I(2), jir.I(9)),
		jir.Halt())
	ln := compile(t, p)
	m, err := ln.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.GlobalArray("M", "out")
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 4 || a[2] != 9 {
		t.Errorf("array = %v", a)
	}
}

// Link-level validation of hand-assembled (hostile) class files. Link
// rejects a program whose shape is wrong (a duplicate, no entry point);
// a fault inside a body is Run's error at the body's first invocation.

func rawProgram(code []bytecode.Instr, setup func(b *classfile.Builder)) *classfile.Program {
	b := classfile.NewBuilder("M", "")
	if setup != nil {
		setup(b)
	}
	b.AddMethod("main", 0, 0, 4, 8, nil, bytecode.Encode(code))
	return &classfile.Program{Name: "raw", Classes: []*classfile.Class{b.Build()}, MainClass: "M"}
}

// runLinked links p, which must link, and returns the error of running
// it.
func runLinked(t *testing.T, p *classfile.Program) error {
	t.Helper()
	ln, err := Link(p)
	if err != nil {
		t.Fatalf("Link: %v; a fault in a body must wait for its first invocation", err)
	}
	_, err = ln.Run(Options{})
	return err
}

func TestLinkRejectsBranchIntoInstruction(t *testing.T) {
	// GOTO +1 lands inside the GOTO's own operand bytes.
	p := rawProgram([]bytecode.Instr{{Op: bytecode.GOTO, Arg: 1}}, nil)
	if err := runLinked(t, p); err == nil || !strings.Contains(err.Error(), "middle of instruction") {
		t.Fatalf("err = %v", err)
	}
}

func TestLinkRejectsUndefinedCall(t *testing.T) {
	p := rawProgram(nil, nil)
	var cpIdx int32
	p = rawProgram([]bytecode.Instr{
		{Op: bytecode.INVOKE, Arg: 0}, // patched below
		{Op: bytecode.HALT},
	}, func(b *classfile.Builder) {
		cpIdx = int32(b.MethodRef("Ghost", "g", 0, 0))
	})
	p.Classes[0].Methods[0].Code = bytecode.Encode([]bytecode.Instr{
		{Op: bytecode.INVOKE, Arg: cpIdx},
		{Op: bytecode.HALT},
	})
	if err := runLinked(t, p); err == nil || !strings.Contains(err.Error(), "undefined") {
		t.Fatalf("err = %v", err)
	}
}

func TestLinkRejectsUndefinedField(t *testing.T) {
	var cpIdx int32
	p := rawProgram(nil, nil)
	p = rawProgram([]bytecode.Instr{{Op: bytecode.HALT}}, func(b *classfile.Builder) {
		cpIdx = int32(b.FieldRef("M", "ghost"))
	})
	p.Classes[0].Methods[0].Code = bytecode.Encode([]bytecode.Instr{
		{Op: bytecode.GETSTATIC, Arg: cpIdx},
		{Op: bytecode.HALT},
	})
	if err := runLinked(t, p); err == nil || !strings.Contains(err.Error(), "undefined field") {
		t.Fatalf("err = %v", err)
	}
}

func TestLinkRejectsMissingMain(t *testing.T) {
	b := classfile.NewBuilder("M", "")
	b.AddMethod("notmain", 0, 0, 0, 1, nil, bytecode.Encode([]bytecode.Instr{{Op: bytecode.RETURN}}))
	p := &classfile.Program{Name: "nm", Classes: []*classfile.Class{b.Build()}, MainClass: "M"}
	if _, err := Link(p); err == nil || !strings.Contains(err.Error(), "entry point") {
		t.Fatalf("err = %v", err)
	}
}

func TestLinkRejectsLDCOfWrongKind(t *testing.T) {
	var cpIdx int32
	p := rawProgram([]bytecode.Instr{{Op: bytecode.HALT}}, func(b *classfile.Builder) {
		cpIdx = int32(b.Class("SomeClass"))
	})
	p.Classes[0].Methods[0].Code = bytecode.Encode([]bytecode.Instr{
		{Op: bytecode.LDC, Arg: cpIdx},
		{Op: bytecode.HALT},
	})
	if err := runLinked(t, p); err == nil || !strings.Contains(err.Error(), "LDC of") {
		t.Fatalf("err = %v", err)
	}
}

func TestLinkRejectsDuplicateClass(t *testing.T) {
	// Two classes of one name, as a loader that took both from a hostile
	// stream would hand them over: an error, not a panic.
	p := rawProgram([]bytecode.Instr{{Op: bytecode.HALT}}, nil)
	p.Classes = append(p.Classes, rawProgram([]bytecode.Instr{{Op: bytecode.HALT}}, nil).Classes[0])
	if _, err := Link(p); err == nil || !strings.Contains(err.Error(), "duplicate class M") {
		t.Fatalf("err = %v", err)
	}
}

func TestStepsMatchesMethodInstrsSum(t *testing.T) {
	ln := compile(t, chainProgram())
	m, err := ln.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, n := range m.Profile().MethodInstrs {
		sum += n
	}
	if sum != m.Steps() {
		t.Errorf("per-method sum %d != steps %d", sum, m.Steps())
	}
}

func TestLinkedAccessors(t *testing.T) {
	ln := compile(t, chainProgram())
	if ln.Program() == nil || ln.Program().Name != "chain" {
		t.Error("Linked.Program broken")
	}
	if ln.Index() == nil || ln.Index().Len() == 0 {
		t.Error("Linked.Index broken")
	}
}
