package cfg

import (
	"slices"
	"strings"
	"testing"

	"nonstrict/internal/bytecode"
	"nonstrict/internal/classfile"
	"nonstrict/internal/jir"
)

// graphFor compiles a one-function program and returns its CFG.
func graphFor(t *testing.T, f *jir.Func, extra ...*jir.Func) *Graph {
	t.Helper()
	p := &jir.Program{Name: "t", Main: "M", Classes: []*jir.Class{{
		Name:  "M",
		Funcs: append([]*jir.Func{f}, extra...),
	}}}
	cp, err := jir.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	c := cp.Classes[0]
	g, err := Build(c, c.MethodByName(f.Name))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestStraightLine(t *testing.T) {
	g := graphFor(t, &jir.Func{Name: "main", Body: jir.Block(
		jir.Let("x", jir.I(1)),
		jir.Let("y", jir.Add(jir.L("x"), jir.I(2))),
		jir.Halt(),
	)})
	if len(g.Blocks) != 1 {
		t.Fatalf("blocks = %d, want 1", len(g.Blocks))
	}
	if len(g.Blocks[0].Succs) != 0 {
		t.Errorf("straight-line block has successors %v", g.Blocks[0].Succs)
	}
	if g.NumLoops() != 0 {
		t.Errorf("NumLoops = %d", g.NumLoops())
	}
}

func TestIfElse(t *testing.T) {
	g := graphFor(t, &jir.Func{Name: "main", Body: jir.Block(
		jir.Let("x", jir.I(1)),
		jir.If(jir.Gt(jir.L("x"), jir.I(0)),
			jir.Block(jir.Let("y", jir.I(1))),
			jir.Block(jir.Let("y", jir.I(2)))),
		jir.Halt(),
	)})
	if g.NumLoops() != 0 {
		t.Errorf("NumLoops = %d", g.NumLoops())
	}
	// Entry block must have two successors (then/else).
	if len(g.Blocks[0].Succs) != 2 {
		t.Fatalf("entry successors = %v", g.Blocks[0].Succs)
	}
	// No back edges anywhere.
	for _, b := range g.Blocks {
		for _, e := range b.Succs {
			if e.Back {
				t.Errorf("unexpected back edge %d->%d", b.ID, e.To)
			}
		}
	}
}

func TestWhileLoop(t *testing.T) {
	g := graphFor(t, &jir.Func{Name: "main", Body: jir.Block(
		jir.Let("i", jir.I(0)),
		jir.While(jir.Lt(jir.L("i"), jir.I(10)), jir.Block(jir.Inc("i"))),
		jir.Halt(),
	)})
	if g.NumLoops() != 1 {
		t.Fatalf("NumLoops = %d, want 1", g.NumLoops())
	}
	h := g.LoopHeaders()[0]
	if !g.Blocks[h].LoopHeader {
		t.Error("header not marked")
	}
	body := g.LoopBody(h)
	if len(body) < 2 || !slices.Contains(body, h) {
		t.Errorf("loop body %v", body)
	}
	// Exactly one back edge, targeting the header.
	backs := 0
	for _, b := range g.Blocks {
		for _, e := range b.Succs {
			if e.Back {
				backs++
				if e.To != h {
					t.Errorf("back edge to %d, header is %d", e.To, h)
				}
				if !slices.Contains(body, b.ID) {
					t.Errorf("back-edge source %d outside loop body", b.ID)
				}
			}
		}
	}
	if backs != 1 {
		t.Errorf("back edges = %d, want 1", backs)
	}
}

func TestNestedLoops(t *testing.T) {
	g := graphFor(t, &jir.Func{Name: "main", Body: jir.Block(
		jir.Let("s", jir.I(0)),
		jir.For(jir.Let("i", jir.I(0)), jir.Lt(jir.L("i"), jir.I(3)), jir.Inc("i"), jir.Block(
			jir.For(jir.Let("j", jir.I(0)), jir.Lt(jir.L("j"), jir.I(3)), jir.Inc("j"), jir.Block(
				jir.Let("s", jir.Add(jir.L("s"), jir.I(1))),
			)),
		)),
		jir.Halt(),
	)})
	if g.NumLoops() != 2 {
		t.Fatalf("NumLoops = %d, want 2", g.NumLoops())
	}
	hs := g.LoopHeaders()
	outer, inner := hs[0], hs[1]
	if len(g.LoopBody(outer)) < len(g.LoopBody(inner)) {
		outer, inner = inner, outer
	}
	// Inner loop body is contained in the outer body.
	for _, b := range g.LoopBody(inner) {
		if !g.InLoop(b, outer) {
			t.Errorf("inner-loop block %d not in outer loop", b)
		}
	}
	// The innermost loop of the inner header is the inner loop.
	if got := g.InnermostLoopOf(inner); got != inner {
		t.Errorf("InnermostLoopOf(inner)=%d, want %d", got, inner)
	}
	// Entry reaches both loops.
	if got := g.LoopsReachable(0); got != 2 {
		t.Errorf("LoopsReachable(entry) = %d, want 2", got)
	}
	// No loops after both exit: find a block outside both bodies.
	for _, b := range g.Blocks {
		if !g.InLoop(b.ID, outer) && !g.InLoop(b.ID, inner) && len(b.Succs) == 0 {
			if got := g.LoopsReachable(b.ID); got != 0 {
				t.Errorf("LoopsReachable(exit %d) = %d, want 0", b.ID, got)
			}
		}
	}
}

func TestCallExtraction(t *testing.T) {
	callee := &jir.Func{Name: "f", Params: []string{"x"}, NRet: 1,
		Body: jir.Block(jir.Ret(jir.L("x")))}
	g := graphFor(t, &jir.Func{Name: "main", Body: jir.Block(
		jir.Let("a", jir.Call("M", "f", jir.I(1))),
		jir.Let("b", jir.Call("M", "g", jir.I(2))),
		jir.Halt(),
	)}, callee, &jir.Func{Name: "g", Params: []string{"x"}, NRet: 1,
		Body: jir.Block(jir.Ret(jir.L("x")))})
	calls := g.Calls()
	if len(calls) != 2 {
		t.Fatalf("calls = %d, want 2", len(calls))
	}
	if calls[0].Target.Name != "f" || calls[1].Target.Name != "g" {
		t.Errorf("call order %v, %v", calls[0].Target, calls[1].Target)
	}
	if calls[0].Instr >= calls[1].Instr {
		t.Errorf("call instruction order %d, %d", calls[0].Instr, calls[1].Instr)
	}
}

func TestBlockOfCoversAllInstrs(t *testing.T) {
	g := graphFor(t, &jir.Func{Name: "main", Body: jir.Block(
		jir.Let("i", jir.I(0)),
		jir.While(jir.Lt(jir.L("i"), jir.I(4)), jir.Block(jir.Inc("i"))),
		jir.Halt(),
	)})
	for i := range g.Instrs {
		b := g.BlockOf(i)
		blk := g.Blocks[b]
		if i < blk.Start || i >= blk.End {
			t.Errorf("instr %d mapped to block %d [%d,%d)", i, b, blk.Start, blk.End)
		}
	}
	total := 0
	for _, b := range g.Blocks {
		total += g.StaticInstrs(b.ID)
	}
	if total != len(g.Instrs) {
		t.Errorf("blocks cover %d instrs, method has %d", total, len(g.Instrs))
	}
}

func TestBuildAll(t *testing.T) {
	p := &jir.Program{Name: "t", Main: "M", Classes: []*jir.Class{
		{Name: "M", Funcs: []*jir.Func{
			{Name: "main", Body: jir.Block(jir.Do(jir.Call("N", "f")), jir.Halt())},
		}},
		{Name: "N", Funcs: []*jir.Func{
			{Name: "f", Body: jir.Block(jir.RetV())},
		}},
	}}
	cp, err := jir.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	ix := cp.IndexMethods()
	gs, err := BuildAll(ix)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 2 {
		t.Fatalf("graphs = %d", len(gs))
	}
	mainID := ix.ID(classfile.Ref{Class: "M", Name: "main"})
	if got := gs[mainID].Calls(); len(got) != 1 || got[0].Target.Class != "N" {
		t.Errorf("main calls = %v", got)
	}
}

func TestBuildRejectsBadBranch(t *testing.T) {
	b := classfile.NewBuilder("M", "")
	b.AddMethod("main", 0, 0, 0, 1, nil, bytecode.Encode([]bytecode.Instr{
		{Op: bytecode.GOTO, Arg: 1}, // into own operand
	}))
	c := b.Build()
	if _, err := Build(c, c.Methods[0]); err == nil || !strings.Contains(err.Error(), "middle") {
		t.Fatalf("err = %v", err)
	}
}

func TestBuildRejectsEmptyMethod(t *testing.T) {
	b := classfile.NewBuilder("M", "")
	b.AddMethod("main", 0, 0, 0, 1, nil, nil)
	c := b.Build()
	if _, err := Build(c, c.Methods[0]); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("err = %v", err)
	}
}
