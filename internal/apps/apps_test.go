package apps

import (
	"fmt"
	"testing"

	"nonstrict/internal/jir"
	"nonstrict/internal/vm"
)

// runApp compiles, links, runs, and checks one input of an app.
func runApp(t *testing.T, a *App, train bool) *vm.Machine {
	t.Helper()
	cp, err := jir.Compile(a.IR)
	if err != nil {
		t.Fatalf("%s: compile: %v", a.Name, err)
	}
	ln, err := vm.Link(cp)
	if err != nil {
		t.Fatalf("%s: link: %v", a.Name, err)
	}
	m, err := ln.Run(vm.Options{Args: a.Args(train), MaxSteps: 5e8})
	if err != nil {
		t.Fatalf("%s: run(train=%v): %v", a.Name, train, err)
	}
	if err := a.Check(m, train); err != nil {
		t.Fatalf("%s: check(train=%v): %v", a.Name, train, err)
	}
	return m
}

func TestAllAppsRunAndVerify(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			cp, err := jir.Compile(a.IR)
			if err != nil {
				t.Fatal(err)
			}
			test := runApp(t, a, false)
			train := runApp(t, a, true)

			t.Logf("%s: files=%d sizeKB=%.1f methods=%d staticInstrs=%d dynTest=%d dynTrain=%d execTest=%d/%d",
				a.Name, len(cp.Classes), float64(cp.TotalSize())/1024,
				cp.NumMethods(), cp.StaticInstrs(),
				test.Steps(), train.Steps(),
				test.Profile().Executed(), cp.NumMethods())

			if test.Steps() < train.Steps() {
				t.Errorf("test input (%d instrs) smaller than train (%d)", test.Steps(), train.Steps())
			}
			if test.Profile().Executed() == 0 {
				t.Error("no methods executed")
			}
		})
	}
}

// TestAppDeterminism checks that constructing an app twice gives
// identical programs — required for reproducible experiments. The
// registry constructs each once, so this calls the constructors.
func TestAppDeterminism(t *testing.T) {
	for _, name := range Names() {
		a1, a2 := cells[name].build(), cells[name].build()
		cp1, err := jir.Compile(a1.IR)
		if err != nil {
			t.Fatal(err)
		}
		cp2, err := jir.Compile(a2.IR)
		if err != nil {
			t.Fatal(err)
		}
		if cp1.TotalSize() != cp2.TotalSize() || cp1.NumMethods() != cp2.NumMethods() {
			t.Errorf("%s: two builds differ", name)
		}
		for i, c := range cp1.Classes {
			if string(c.Serialize()) != string(cp2.Classes[i].Serialize()) {
				t.Errorf("%s: class %s serialization differs across builds", name, c.Name)
			}
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("NotAnApp"); err == nil {
		t.Error("unknown app accepted")
	}
}

// countedRuns makes the name TestNamesAndCheckConstructNothing registers
// unique per run: the registry is process-global and has no removal.
var countedRuns int

// TestNamesAndCheckConstructNothing: Names lists what All constructs,
// Check answers what ByName resolves — registered non-paper apps included
// — and neither runs a builder.
func TestNamesAndCheckConstructNothing(t *testing.T) {
	built := 0
	countedRuns++
	name := fmt.Sprintf("apps-test-counted-%d", countedRuns)
	mu.Lock()
	register(name, func() *App { built++; return &App{Name: name} })
	mu.Unlock()
	var all []string
	for _, a := range All() {
		all = append(all, a.Name)
	}
	names := Names()
	if len(names) != len(all) {
		t.Fatalf("Names() = %v, All() constructs %v", names, all)
	}
	for i := range all {
		if names[i] != all[i] {
			t.Fatalf("Names() = %v, All() constructs %v", names, all)
		}
		if err := Check(all[i]); err != nil {
			t.Errorf("Check(%q) = %v", all[i], err)
		}
	}
	if err := Check(name); err != nil || built != 0 {
		t.Errorf("Check(%q) = %v after %d constructions, want nil after 0", name, err, built)
	}
	_, want := ByName("NoSuchApp")
	if err := Check("NoSuchApp"); err == nil || err.Error() != want.Error() {
		t.Errorf("Check's error %v is not ByName's %v", err, want)
	}
}
