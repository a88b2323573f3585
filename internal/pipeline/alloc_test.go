package pipeline

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"nonstrict/internal/apps"
)

// buildBudget is what Build may allocate, in bytes, for the six paper
// apps under each order policy, and buildObjects how many heap objects.
// Twenty runs of each binary (go1.24, linux/amd64) read, plain:
// scg 3 355 472–3 355 632 B in 11 155–11 159 objects, train
// 5 286 552–5 289 096 B in 13 824–13 832, test 6 487 088–6 494 352 B in
// 14 126–14 139; under -race: scg 4 276 400–4 276 544 B in
// 11 636–11 639, train 6 238 984–6 245 848 B in 14 346–14 357, test
// 7 439 744–7 442 240 B in 14 649–14 656. The budgets are each maximum
// plus about 0.5 %, so an allocation per method, block or unit trips
// them long before it shows in bytes. A profile-guided order adds the
// link, which registers classes and links no body, the profiled run,
// which links the bodies it invokes, and the goroutine and channel that
// run the static stage beside it.
var buildBudget = map[string]struct{ plain, race uint64 }{
	OrderStatic: {plain: 3_372_000, race: 4_298_000},
	OrderTrain:  {plain: 5_316_000, race: 6_277_000},
	OrderTest:   {plain: 6_527_000, race: 7_479_000},
}

var buildObjects = map[string]struct{ plain, race uint64 }{
	OrderStatic: {plain: 11_215, race: 11_700},
	OrderTrain:  {plain: 13_900, race: 14_430},
	OrderTest:   {plain: 14_210, race: 14_730},
}

// TestBuildAllocBudget: a build allocates what it returns, not a copy
// of every instruction, block and unit along the way. The compiler, the
// CFG builder and the stream writer each run out of scratch their own
// call owns, the writer copies a body only into the stream, the linker
// links only the bodies the profiled run invokes, and the static order
// holds one method's CFG per call depth, never the whole program's; a
// stage that goes back to allocating per instruction, block or unit, a
// writer that serializes whole class files, a linker that links every
// body, or a static stage that builds every graph up front, blows the
// byte or the object budget.
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
