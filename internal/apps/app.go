// Package apps contains the six benchmark programs of the paper's
// evaluation (Table 1) — BIT, Hanoi, JavaCup, Jess, JHLZip, TestDes —
// re-authored for the substrate.
//
// Each program is generated as IR (package jir), compiled to class files,
// and actually executed by the VM, so every measured quantity — dynamic
// instruction counts, first-use orders, covered bytes, per-class sizes —
// is real. Programs are matched to the paper's Table 2 shape (file
// counts, size classes, method counts, train-versus-test behaviour) and
// each computes a result that a Go reference implementation cross-checks,
// validating the compiler and VM along the way.
//
// The registry is the only way to an app and owns it: each is constructed
// once per process, ByName and All hand out App structs around that one
// IR, and the IR is shared and read-only — a caller that wants a variant
// derives a new program from it (jir.SplitLarge) and leaves it alone.
package apps

import (
	"fmt"
	"sync"

	"nonstrict/internal/jir"
	"nonstrict/internal/vm"
)

// App is one benchmark program.
type App struct {
	Name        string
	Description string
	// CPI is the cycles-per-bytecode cost used in simulation; the values
	// are the per-program averages the paper measured on the 500 MHz
	// Alpha (Table 3).
	CPI int64
	// IR is the program source; compile with jir.Compile. It is shared
	// by every App the registry hands out for this name and is read-only.
	IR *jir.Program
	// TrainArgs and TestArgs are the two inputs (Table 2 reports
	// dynamic statistics for both).
	TrainArgs, TestArgs []int64
	// Check validates a finished run against the Go reference.
	Check func(m *vm.Machine, train bool) error
}

// Args returns the argument vector for the chosen input.
func (a *App) Args(train bool) []int64 {
	if train {
		return a.TrainArgs
	}
	return a.TestArgs
}

// cells holds one once-cell per registered name; tableOrder is the
// paper's Table 1 order. mu guards the map only and is never held while
// an app is constructed: BIT resolves three other apps from inside its
// constructor, and non-paper apps (synthesized workloads) are registered
// at run time while server builds resolve names concurrently.
var (
	mu         sync.RWMutex
	cells      = map[string]*cell{}
	tableOrder = []string{"BIT", "Hanoi", "JavaCup", "Jess", "JHLZip", "TestDes"}
)

type cell struct {
	once  sync.Once
	build func() *App
	app   *App
}

// get constructs the cell's app on first use and returns a shallow copy:
// the struct is the caller's to change, the IR behind it is shared and
// read-only.
func (c *cell) get() *App {
	c.once.Do(func() { c.app = c.build() })
	a := *c.app
	return &a
}

// register installs a paper benchmark's constructor. Each benchmark
// file's init calls it, before anything can contend for mu.
func register(name string, build func() *App) { cells[name] = &cell{build: build} }

// Register adds a non-paper app — a synthesized workload — to the
// registry so it resolves through ByName and flows through the same
// compile → predict → restructure → stream → serve pipeline as the six
// paper benchmarks. The registry takes a copy of the struct and shares
// a.IR, which must not be written from here on. The paper's Table 1 set
// (returned by All) is not affected. Registering a name twice, or
// shadowing a paper benchmark, is an error.
func Register(a *App) error {
	if a == nil || a.Name == "" {
		return fmt.Errorf("apps: Register needs a named app")
	}
	owned := *a
	mu.Lock()
	defer mu.Unlock()
	if _, ok := cells[owned.Name]; ok {
		return fmt.Errorf("apps: app %q is already registered", owned.Name)
	}
	register(owned.Name, func() *App { return &owned })
	return nil
}

// All returns the registered benchmarks in the paper's table order, each
// as ByName would. Apps added with Register are not included; resolve
// them with ByName.
func All() []*App {
	_, cs := paper()
	out := make([]*App, len(cs))
	for i, c := range cs {
		out[i] = c.get()
	}
	return out
}

// Names returns the names All would return, in the same order, without
// constructing anything.
func Names() []string {
	names, _ := paper()
	return names
}

// paper lists the registered Table 1 benchmarks in table order.
func paper() (names []string, cs []*cell) {
	mu.RLock()
	defer mu.RUnlock()
	for _, name := range tableOrder {
		if c, ok := cells[name]; ok {
			names = append(names, name)
			cs = append(cs, c)
		}
	}
	return names, cs
}

// Check returns nil if ByName would resolve name and ByName's error if
// not, without constructing the app — building an IR to validate a name
// costs milliseconds and megabytes.
func Check(name string) error {
	_, err := lookup(name)
	return err
}

// ByName returns the named benchmark (case-sensitive, as in Table 1) or
// registered synthetic app. The first call for a name constructs it;
// every call returns a fresh App struct around the one shared IR.
func ByName(name string) (*App, error) {
	c, err := lookup(name)
	if err != nil {
		return nil, err
	}
	return c.get(), nil
}

func lookup(name string) (*cell, error) {
	mu.RLock()
	c, ok := cells[name]
	mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("apps: unknown benchmark %q", name)
	}
	return c, nil
}

// checkGlobal compares one global field against an expected value.
func checkGlobal(m *vm.Machine, class, field string, want int64) error {
	got, err := m.Global(class, field)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("%s.%s = %d, want %d", class, field, got, want)
	}
	return nil
}
