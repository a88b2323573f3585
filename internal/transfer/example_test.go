package transfer_test

import (
	"fmt"
	"log"

	"nonstrict/internal/jir"
	"nonstrict/internal/pipeline"
	"nonstrict/internal/reorder"
	"nonstrict/internal/restructure"
	"nonstrict/internal/sim"
	"nonstrict/internal/transfer"
	"nonstrict/internal/vm"
)

// mispredictProgram dispatches on its input: mode 0 runs the Common path
// the static estimator predicts (it has the loop); mode 1 runs the Rare
// path instead.
func mispredictProgram() *jir.Program {
	work := func(cls string) *jir.Class {
		return &jir.Class{Name: cls, Funcs: []*jir.Func{
			{Name: "run", Params: []string{"n"}, NRet: 1, LocalData: 2200, Body: jir.Block(
				jir.Let("s", jir.I(0)),
				jir.For(jir.Let("i", jir.I(0)), jir.Lt(jir.L("i"), jir.L("n")), jir.Inc("i"), jir.Block(
					jir.Let("s", jir.Add(jir.L("s"), jir.Mul(jir.L("i"), jir.L("i")))),
				)),
				jir.Ret(jir.L("s")),
			)},
			{Name: "helper", Params: []string{"x"}, NRet: 1, LocalData: 1800, Body: jir.Block(
				jir.Ret(jir.Mul(jir.L("x"), jir.I(3))),
			)},
		}}
	}
	return &jir.Program{
		Name: "mispredict",
		Main: "App",
		Classes: []*jir.Class{
			{Name: "App", Fields: []string{"out"}, Funcs: []*jir.Func{
				{Name: "main", Params: []string{"mode"}, LocalData: 400, Body: jir.Block(
					jir.If(jir.Eq(jir.L("mode"), jir.I(0)),
						jir.Block(
							// Loopy branch: the static estimator
							// prefers this path.
							jir.Let("v", jir.I(0)),
							jir.For(jir.Let("i", jir.I(0)), jir.Lt(jir.L("i"), jir.I(50)), jir.Inc("i"), jir.Block(
								jir.Let("v", jir.Add(jir.L("v"), jir.Call("Common", "run", jir.I(40)))),
							)),
							jir.SetG("App", "out", jir.L("v")),
						),
						jir.Block(
							jir.SetG("App", "out", jir.Call("Rare", "run", jir.I(2000))),
						)),
					jir.Halt(),
				)},
			}},
			work("Common"),
			work("Rare"),
		},
	}
}

// When the first-use prediction is wrong, the parallel transfer engine
// corrects on demand (paper §5.1): the missing class starts transferring
// immediately if a connection slot is free, or is queued next otherwise.
// A program whose execution path depends on its input is predicted
// statically, and the misprediction penalty under different connection
// limits is compared against a profile-guided (perfect) ordering.
func ExampleNewParallel() {
	prog, err := jir.Compile(mispredictProgram())
	if err != nil {
		log.Fatal(err)
	}
	ix := prog.IndexMethods()
	order, err := pipeline.Static(ix)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("static prediction:")
	for _, id := range order.Methods {
		fmt.Printf(" %v", ix.Ref(id))
	}
	fmt.Println()

	// Execute with mode=1: the Rare path runs, defeating the prediction.
	ln, err := vm.Link(prog)
	if err != nil {
		log.Fatal(err)
	}
	m, err := ln.Run(vm.Options{Trace: true, Args: []int64{1}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("actual run (mode=1) used %d of %d methods\n\n",
		m.Profile().Executed(), prog.NumMethods())

	perfect := reorder.FromProfile(ix, m.Profile().FirstUse, order)
	link := transfer.Link{Name: "slow", CyclesPerByte: 20000}
	const cpi = 50

	simulate := func(o *reorder.Order, limit int) sim.Result {
		rp := restructure.Apply(prog, ix, o)
		plan, err := restructure.Plan(rp, ix, o, nil)
		if err != nil {
			log.Fatal(err)
		}
		files, err := transfer.BuildFiles(rp, plan, transfer.NonStrict)
		if err != nil {
			log.Fatal(err)
		}
		sched, err := transfer.BuildSchedule(o, ix, files, plan, nil)
		if err != nil {
			log.Fatal(err)
		}
		eng, err := transfer.NewParallel(sched, files, link, limit)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sim.Run(m.Trace(), ix, eng, cpi)
		if err != nil {
			log.Fatal(err)
		}
		res.Mispredicts = eng.Mispredicts()
		return res
	}

	fmt.Printf("%-34s %8s %12s %12s\n", "configuration", "mispred", "stall cyc", "total cyc")
	for _, cfg := range []struct {
		name  string
		order *reorder.Order
		limit int
	}{
		{"static order, limit 1", order, 1},
		{"static order, limit 4", order, 4},
		{"profile order (perfect), limit 1", perfect, 1},
	} {
		res := simulate(cfg.order, cfg.limit)
		fmt.Printf("%-34s %8d %12d %12d\n", cfg.name, res.Mispredicts, res.StallCycles, res.TotalCycles)
	}
	fmt.Println("\nwith limit 1 the mispredicted class must wait for the current file to")
	fmt.Println("finish; with limit 4 the demand fetch starts immediately in a free slot.")
	// Output:
	// static prediction: App.main Common.run Rare.run Common.helper Rare.helper
	// actual run (mode=1) used 2 of 5 methods
	//
	// configuration                       mispred    stall cyc    total cyc
	// static order, limit 1                     1    141159800    142260550
	// static order, limit 4                     1    104920000    106020750
	// profile order (perfect), limit 1          0     58419800     59520550
	//
	// with limit 1 the mispredicted class must wait for the current file to
	// finish; with limit 4 the demand fetch starts immediately in a free slot.
}
