package synth

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"nonstrict/internal/apps"
	"nonstrict/internal/cfg"
	"nonstrict/internal/jir"
	"nonstrict/internal/reorder"
	"nonstrict/internal/restructure"
	"nonstrict/internal/server"
	"nonstrict/internal/stream"
	"nonstrict/internal/vm"
)

// streamBytes runs one generated app through the real artifact pipeline
// (compile → static first-use prediction → restructure → interleaved
// stream) and returns the serialized bytes plus marshaled TOC.
func streamBytes(t *testing.T, app *apps.App) ([]byte, []byte) {
	t.Helper()
	prog, err := jir.Compile(app.IR)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ix := prog.IndexMethods()
	graphs, err := cfg.BuildAll(ix)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	o, err := reorder.Static(ix, graphs)
	if err != nil {
		t.Fatalf("reorder: %v", err)
	}
	rp := restructure.Apply(prog, ix, o)
	w, err := stream.NewWriter(rp, ix, o)
	if err != nil {
		t.Fatalf("stream writer: %v", err)
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatalf("stream write: %v", err)
	}
	toc, err := stream.MarshalTOC(w.TOC())
	if err != nil {
		t.Fatalf("toc: %v", err)
	}
	return buf.Bytes(), toc
}

// TestGenerateDeterministic is the satellite determinism guarantee: the
// same seed produces a byte-identical app — same IR, same compiled
// program, same restructured stream and TOC.
func TestGenerateDeterministic(t *testing.T) {
	p := Params{Seed: 42}
	a1, i1, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	a2, i2, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if *i1 != *i2 {
		t.Fatalf("infos differ:\n%+v\n%+v", i1, i2)
	}
	s1, t1 := streamBytes(t, a1)
	s2, t2 := streamBytes(t, a2)
	if !bytes.Equal(s1, s2) {
		t.Fatalf("streams differ for identical seed (%d vs %d bytes)", len(s1), len(s2))
	}
	if !bytes.Equal(t1, t2) {
		t.Fatal("TOCs differ for identical seed")
	}
	if len(s1) == 0 {
		t.Fatal("empty stream")
	}
}

// TestGenerateSeedsDiffer guards against the generator ignoring its
// seed: distinct seeds must yield structurally distinct apps.
func TestGenerateSeedsDiffer(t *testing.T) {
	a1, _, err := Generate(Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a2, _, err := Generate(Params{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := streamBytes(t, a1)
	s2, _ := streamBytes(t, a2)
	if bytes.Equal(s1, s2) {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestGeneratedAppSelfCheck replays both inputs in the VM and runs the
// app's pinned self-check, the same validation the experiment loader
// applies to the paper benchmarks.
func TestGeneratedAppSelfCheck(t *testing.T) {
	app, info, err := Generate(Params{Seed: 7, Classes: 5, HotLoopDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := jir.Compile(app.IR)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := vm.Link(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, train := range []bool{true, false} {
		m, err := ln.Run(vm.Options{Args: app.Args(train)})
		if err != nil {
			t.Fatalf("run(train=%v): %v", train, err)
		}
		if err := app.Check(m, train); err != nil {
			t.Fatalf("check(train=%v): %v", train, err)
		}
	}
	if info.ExecutedTest < info.ExecutedTrain {
		t.Fatalf("test executes fewer methods (%d) than train (%d)", info.ExecutedTest, info.ExecutedTrain)
	}
	if info.ExecutedTest >= info.Methods {
		t.Fatalf("every method executed (%d of %d): no cold code generated", info.ExecutedTest, info.Methods)
	}
	if info.ExecutedTest <= 1 {
		t.Fatalf("only %d methods executed", info.ExecutedTest)
	}
}

// TestRegisteredAppServes registers a generated app and builds it
// through the real server pipeline under every order policy — the
// tentpole contract that synthetic apps are indistinguishable from the
// paper set downstream.
func TestRegisteredAppServes(t *testing.T) {
	app, _, err := Generate(Params{Seed: 1001, Name: "synth-test-serves"})
	if err != nil {
		t.Fatal(err)
	}
	if err := apps.Register(app); err != nil {
		t.Fatal(err)
	}
	if err := apps.Register(app); err == nil {
		t.Fatal("duplicate Register succeeded")
	}
	got, err := apps.ByName(app.Name)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != app.Name {
		t.Fatalf("ByName returned %q", got.Name)
	}
	for _, order := range []string{server.OrderStatic, server.OrderTrain, server.OrderTest} {
		art, err := server.Build(context.Background(), server.Key{App: app.Name, Order: order})
		if err != nil {
			t.Fatalf("server.Build(%s): %v", order, err)
		}
		if len(art.Data) == 0 || art.Units == 0 {
			t.Fatalf("server.Build(%s): empty artifact", order)
		}
	}
	// The paper's Table 1 set must be unaffected by registration.
	for _, a := range apps.All() {
		if a.Name == app.Name {
			t.Fatalf("registered app leaked into apps.All()")
		}
	}
}

var inflightRuns atomic.Int64

// TestRegisterDuringBuilds: registration takes the registry's lock while
// builds of other names resolve — and, the first time, construct — their
// apps under it: BIT's constructor looks three more names up from inside.
// Every build and every registration must finish, and a name registered
// mid-flight must resolve and build like any other.
func TestRegisterDuringBuilds(t *testing.T) {
	// Unique per run: the registry is process-global and has no removal.
	run := inflightRuns.Add(1)
	var wg sync.WaitGroup
	for _, name := range apps.Names() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := server.Build(context.Background(), server.Key{App: name, Order: server.OrderStatic}); err != nil {
				t.Errorf("build %s: %v", name, err)
			}
		}()
	}
	for i := 0; i < 8; i++ {
		app, _, err := Generate(Params{Seed: 2000 + uint64(i), Name: fmt.Sprintf("synth-test-inflight-%d-%d", run, i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := apps.Register(app); err != nil {
			t.Fatal(err)
		}
		if _, err := server.Build(context.Background(), server.Key{App: app.Name, Order: server.OrderStatic}); err != nil {
			t.Errorf("build %s: %v", app.Name, err)
		}
	}
	wg.Wait()
}

// TestSuiteShapesVary checks the sweep primitive: a suite draws varied
// shapes, deterministically per seed.
func TestSuiteShapesVary(t *testing.T) {
	s1, i1, err := Suite(9, 4, Params{})
	if err != nil {
		t.Fatal(err)
	}
	s2, i2, err := Suite(9, 4, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != 4 || len(i1) != 4 {
		t.Fatalf("suite size %d/%d", len(s1), len(i1))
	}
	varied := false
	for i := range i1 {
		if *i1[i] != *i2[i] {
			t.Fatalf("suite not deterministic at %d:\n%+v\n%+v", i, i1[i], i2[i])
		}
		if s1[i].Name != s2[i].Name {
			t.Fatalf("suite names differ: %q vs %q", s1[i].Name, s2[i].Name)
		}
		if i > 0 && (i1[i].Classes != i1[0].Classes || i1[i].Methods != i1[0].Methods) {
			varied = true
		}
	}
	if !varied {
		t.Fatal("suite produced identical shapes for every app")
	}
}
