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
	// IR is the program source; compile with jir.Compile.
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

// builders is populated by each benchmark file's init; tableOrder is the
// paper's Table 1 order. Registration of non-paper apps (synthesized
// workloads) happens at run time, possibly while server builds resolve
// names concurrently, so the registry is guarded by mu.
var (
	mu         sync.RWMutex
	builders   = map[string]func() *App{}
	tableOrder = []string{"BIT", "Hanoi", "JavaCup", "Jess", "JHLZip", "TestDes"}
)

func register(name string, f func() *App) { builders[name] = f }

// Register adds a non-paper app — a synthesized workload — to the
// registry so it resolves through ByName and flows through the same
// compile → predict → restructure → stream → serve pipeline as the six
// paper benchmarks. The paper's Table 1 set (returned by All) is not
// affected. Registering a name twice, or shadowing a paper benchmark,
// is an error.
func Register(name string, f func() *App) error {
	if name == "" || f == nil {
		return fmt.Errorf("apps: Register needs a name and a builder")
	}
	mu.Lock()
	defer mu.Unlock()
	if _, ok := builders[name]; ok {
		return fmt.Errorf("apps: app %q is already registered", name)
	}
	builders[name] = f
	return nil
}

// All returns the registered benchmarks in the paper's table order.
// Construction is deterministic. Apps added with Register are not
// included; resolve them with ByName.
func All() []*App {
	mu.RLock()
	defer mu.RUnlock()
	var out []*App
	for _, name := range tableOrder {
		if f, ok := builders[name]; ok {
			out = append(out, f())
		}
	}
	return out
}

// Names returns the names All would construct, in the same order, without
// constructing anything.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	var out []string
	for _, name := range tableOrder {
		if _, ok := builders[name]; ok {
			out = append(out, name)
		}
	}
	return out
}

// Check returns nil if ByName would resolve name and ByName's error if
// not, without constructing the app — building an IR to validate a name
// costs milliseconds and megabytes.
func Check(name string) error {
	_, err := builder(name)
	return err
}

// ByName returns the named benchmark (case-sensitive, as in Table 1) or
// registered synthetic app.
func ByName(name string) (*App, error) {
	f, err := builder(name)
	if err != nil {
		return nil, err
	}
	return f(), nil
}

func builder(name string) (func() *App, error) {
	mu.RLock()
	f, ok := builders[name]
	mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("apps: unknown benchmark %q", name)
	}
	return f, nil
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
