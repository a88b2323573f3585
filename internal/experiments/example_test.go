package experiments_test

import (
	"fmt"
	"log"

	"nonstrict/internal/apps"
	"nonstrict/internal/experiments"
	"nonstrict/internal/transfer"
)

// load prepares one workload for simulation under all three predictors.
func load(name string) *experiments.Bench {
	app, err := apps.ByName(name)
	if err != nil {
		log.Fatal(err)
	}
	bench, err := experiments.Load(app)
	if err != nil {
		log.Fatal(err)
	}
	return bench
}

// Simulate the paper's flagship configuration: Jess restructured with a
// test profile, streamed as one interleaved virtual file over a modem.
func ExampleBench_Simulate() {
	bench := load("Jess")
	res, err := bench.Simulate(experiments.Variant{
		Order:  experiments.Test,
		Engine: experiments.Interleaved,
		Mode:   transfer.NonStrict,
		Link:   transfer.Modem,
	})
	if err != nil {
		log.Fatal(err)
	}
	pct := 100 * float64(res.TotalCycles) / float64(bench.StrictTotal(transfer.Modem))
	fmt.Printf("Jess on a modem finishes in %.0f%% of the strict time\n", pct)
	fmt.Printf("mispredicts under the perfect profile: %d\n", res.Mispredicts)
	// Output:
	// Jess on a modem finishes in 48% of the strict time
	// mispredicts under the perfect profile: 0
}

// Load executes a benchmark in the VM; inspect its first-use profile.
func ExampleLoad() {
	bench := load("Hanoi")
	prof := bench.TestProfile
	fmt.Printf("methods executed: %d of %d\n", prof.Executed(), bench.Prog.NumMethods())
	fmt.Printf("first method used: %v\n", bench.Ix.Ref(prof.FirstUse[0]))
	// Output:
	// methods executed: 48 of 54
	// first method used: Hanoi.main
}

// Predict first use statically and restructure a program's class files.
func ExampleBench_Prepared() {
	bench := load("TestDes")
	order, _, _, _ := bench.Prepared(experiments.SCG)
	// After restructuring, the entry point leads its class file.
	fmt.Printf("first in predicted order: %v\n", bench.Ix.Ref(order.Methods[0]))
	// Output:
	// first in predicted order: TestDes.main
}
