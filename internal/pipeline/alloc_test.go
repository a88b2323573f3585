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
// scg 4 161 272–4 161 352 B in 11 359–11 362 objects, train
// 6 474 976–6 480 432 B in 16 703–16 708, test 7 666 424–7 667 848 B in
// 16 965–16 969; under -race: scg 5 082 248–5 082 488 B in
// 11 842–11 846, train 7 429 616–7 435 136 B in 17 221–17 228, test
// 8 621 256–8 622 648 B in 17 483–17 489. The budgets are each maximum
// plus about 0.5 %, so an allocation per method, block or unit trips
// them long before it shows in bytes. A profile-guided order adds the
// link and the profiled run, and the goroutine and channel that run the
// static stage beside it.
var buildBudget = map[string]struct{ plain, race uint64 }{
	OrderStatic: {plain: 4_182_000, race: 5_108_000},
	OrderTrain:  {plain: 6_513_000, race: 7_473_000},
	OrderTest:   {plain: 7_707_000, race: 8_666_000},
}

var buildObjects = map[string]struct{ plain, race uint64 }{
	OrderStatic: {plain: 11_420, race: 11_910},
	OrderTrain:  {plain: 16_795, race: 17_315},
	OrderTest:   {plain: 17_055, race: 17_580},
}

// TestBuildAllocBudget: a build allocates what it returns, not a copy
// of every instruction, block and unit along the way. The compiler, the
// CFG builder and the stream writer each run out of scratch their own
// call owns, and the static order holds one method's CFG per call depth,
// never the whole program's; a stage that goes back to allocating per
// instruction, block or unit, or a static stage that builds every graph
// up front, blows the byte or the object budget.
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
