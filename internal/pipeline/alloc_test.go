package pipeline

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"nonstrict/internal/apps"
)

// buildBudget is what Build may allocate, in bytes, for the six paper
// apps under each order policy: the measured figure plus under 8 %
// headroom. A profile-guided order adds the link and the profiled run.
// The race detector's instrumentation allocates about 1.2 MB more per
// six builds, so a -race binary has budgets of its own.
var buildBudget = map[string]struct{ plain, race uint64 }{
	OrderStatic: {plain: 9_100_000, race: 10_400_000},
	OrderTrain:  {plain: 11_600_000, race: 13_000_000},
	OrderTest:   {plain: 12_900_000, race: 14_300_000},
}

// buildObjects is how many heap objects Build may allocate for the six
// paper apps under each order policy. Twenty runs of each binary stayed
// within 15 objects of each other (go1.24, linux/amd64); the budgets are
// their maximum plus about 0.5 %, so an allocation per method, block or
// unit trips them long before it shows in bytes. A profile-guided order
// includes the goroutine and channel that run the static stage beside
// the profiled run.
var buildObjects = map[string]struct{ plain, race uint64 }{
	OrderStatic: {plain: 26_000, race: 28_050},
	OrderTrain:  {plain: 31_400, race: 33_500},
	OrderTest:   {plain: 31_650, race: 33_750},
}

// TestBuildAllocBudget: a build allocates what it returns, not a copy
// of every instruction, block and unit along the way. The compiler, the
// CFG builder and the stream writer each run out of scratch their own
// call owns; a stage that goes back to allocating per instruction,
// block or unit blows the byte or the object budget.
func TestBuildAllocBudget(t *testing.T) {
	all := apps.All()
	for _, order := range []string{OrderStatic, OrderTrain, OrderTest} {
		build := func() {
			for _, app := range all {
				if _, err := Build(context.Background(), app, order); err != nil {
					t.Fatal(err)
				}
			}
		}
		build() // every app's IR is constructed by its first use
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		build()
		runtime.ReadMemStats(&after)
		got, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		budget, objBudget := buildBudget[order].plain, buildObjects[order].plain
		if raceBuild() {
			budget, objBudget = buildBudget[order].race, buildObjects[order].race
		}
		t.Logf("%s: six builds allocate %d bytes in %d objects (budgets %d, %d)", order, got, objects, budget, objBudget)
		if got > budget {
			t.Errorf("%s: six builds allocate %d bytes, budget %d", order, got, budget)
		}
		if objects > objBudget {
			t.Errorf("%s: six builds allocate %d objects, budget %d", order, objects, objBudget)
		}
	}
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}
