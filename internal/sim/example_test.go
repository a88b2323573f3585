package sim_test

import (
	"fmt"
	"log"

	"nonstrict/internal/datapart"
	"nonstrict/internal/jir"
	"nonstrict/internal/pipeline"
	"nonstrict/internal/restructure"
	"nonstrict/internal/sim"
	"nonstrict/internal/transfer"
	"nonstrict/internal/verify"
	"nonstrict/internal/vm"
)

// Author a small mobile program, run the whole non-strict pipeline on it
// (compile, verify, execute, predict, restructure, partition), and
// compare strict transfer against non-strict interleaved transfer on a
// modem link.
func ExampleRun() {
	// A three-class application: main exercises a math helper class in
	// a loop, then a reporting class once at the end.
	prog := &jir.Program{
		Name: "quickstart",
		Main: "App",
		Classes: []*jir.Class{
			{Name: "App", Fields: []string{"out"}, Funcs: []*jir.Func{
				{Name: "main", Body: jir.Block(
					jir.Let("s", jir.I(0)),
					jir.For(jir.Let("i", jir.I(1)), jir.Le(jir.L("i"), jir.I(200)), jir.Inc("i"), jir.Block(
						jir.Let("s", jir.Add(jir.L("s"), jir.Call("Math", "square", jir.L("i")))),
					)),
					jir.Do(jir.Call("Report", "emit", jir.L("s"))),
					jir.Halt(),
				)},
				// Cold startup helpers: with strict execution their
				// bytes delay main; with non-strict they do not.
				{Name: "usage", NRet: 1, LocalData: 800, Body: jir.Block(
					jir.Ret(jir.ALen(jir.Str("usage: quickstart <n>"))),
				)},
				{Name: "banner", NRet: 1, LocalData: 800, Body: jir.Block(
					jir.Ret(jir.ALen(jir.Str("quickstart 1.0"))),
				)},
			}},
			{Name: "Math", Funcs: []*jir.Func{
				{Name: "square", Params: []string{"x"}, NRet: 1, LocalData: 600, Body: jir.Block(
					jir.Ret(jir.Mul(jir.L("x"), jir.L("x"))),
				)},
				{Name: "cube", Params: []string{"x"}, NRet: 1, LocalData: 900, Body: jir.Block(
					jir.Ret(jir.Mul(jir.L("x"), jir.Mul(jir.L("x"), jir.L("x")))),
				)}, // never called: transferred last (or never)
			}},
			{Name: "Report", Funcs: []*jir.Func{
				{Name: "emit", Params: []string{"v"}, LocalData: 700, Body: jir.Block(
					jir.SetG("App", "out", jir.L("v")),
					jir.RetV(),
				)},
			}},
		},
	}
	compiled, err := jir.Compile(prog)
	if err != nil {
		log.Fatal(err)
	}
	if err := verify.VerifyProgram(compiled); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("program: %d classes, %d methods, %d bytes\n",
		len(compiled.Classes), compiled.NumMethods(), compiled.TotalSize())

	// Execute in the VM, collecting the profile and segment trace.
	ln, err := vm.Link(compiled)
	if err != nil {
		log.Fatal(err)
	}
	m, err := ln.Run(vm.Options{Trace: true})
	if err != nil {
		log.Fatal(err)
	}
	out, _ := m.Global("App", "out")
	fmt.Printf("executed %d instructions; App.out = %d\n", m.Steps(), out)

	// Predict first use statically and restructure.
	ix := compiled.IndexMethods()
	order, err := pipeline.Static(ix)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("predicted first-use order:")
	for _, id := range order.Methods {
		fmt.Printf(" %v", ix.Ref(id))
	}
	fmt.Println()

	rp := restructure.Apply(compiled, ix, order)
	plan, err := restructure.Plan(rp, ix, order, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Partition the restructured program's global data (§7.3): the
	// needed-first, per-method and unused shares must tile each class's
	// global-data section exactly.
	part, err := datapart.Compute(rp)
	if err != nil {
		log.Fatal(err)
	}
	if err := part.Check(rp); err != nil {
		log.Fatal(err)
	}

	// Simulate: strict sequential vs non-strict interleaved on a modem.
	cpi := int64(100)
	link := transfer.Modem
	simulate := func(eng transfer.Engine) sim.Result {
		res, err := sim.Run(m.Trace(), ix, eng, cpi)
		if err != nil {
			log.Fatal(err)
		}
		if res.TotalCycles != res.ExecCycles+res.StallCycles {
			log.Fatalf("total %d cycles is not exec %d + stall %d", res.TotalCycles, res.ExecCycles, res.StallCycles)
		}
		return res
	}

	strictFiles, err := transfer.BuildFiles(rp, plan, transfer.Strict)
	if err != nil {
		log.Fatal(err)
	}
	strictEng, err := transfer.NewSequential(order.ClassOrder(ix), strictFiles, link)
	if err != nil {
		log.Fatal(err)
	}
	strictRes := simulate(strictEng)
	ilvRes := simulate(transfer.NewInterleaved(plan, link))

	fmt.Printf("\n%-28s %15s %15s\n", "", "strict", "non-strict ilv")
	fmt.Printf("%-28s %15d %15d\n", "invocation latency (cycles)",
		strictRes.InvocationLatency, ilvRes.InvocationLatency)
	fmt.Printf("%-28s %15d %15d\n", "total cycles",
		strictRes.TotalCycles, ilvRes.TotalCycles)
	fmt.Printf("%-28s %15s %14.1f%%\n", "of strict", "100%",
		100*float64(ilvRes.TotalCycles)/float64(strictRes.TotalCycles))
	// Output:
	// program: 3 classes, 6 methods, 4330 bytes
	// executed 2813 instructions; App.out = 2686700
	// predicted first-use order: App.main Math.square Report.emit App.usage App.banner Math.cube
	//
	//                                       strict  non-strict ilv
	// invocation latency (cycles)        257946670        40005306
	// total cycles                       583242740       242322102
	// of strict                               100%           41.5%
}
