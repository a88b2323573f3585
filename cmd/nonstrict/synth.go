package main

import (
	"context"
	"flag"
	"fmt"
	"io"

	"nonstrict/internal/pipeline"
	"nonstrict/internal/synth"
)

// cmdSynth generates a seeded suite of synthetic apps and prints their
// measured shape: the knobs' effect (class count, method population,
// executed fraction, code and stream size) verified by real compilation
// and execution, not by the generator's intent.
func cmdSynth(_ context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("synth", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "generator seed")
	n := fs.Int("n", 4, "number of apps to generate")
	classes := fs.Int("classes", 0, "class count (0 = vary per app)")
	methods := fs.Int("methods", 0, "mean methods per class (0 = vary per app)")
	fanout := fs.Int("fanout", 0, "mean call fan-out (0 = vary per app)")
	hot := fs.Int("hot", 0, "hot-loop nesting depth (0 = vary per app)")
	execFrac := fs.Float64("exec", 0, "fraction of methods the test input executes (0 = vary per app)")
	data := fs.Int("data", 0, "unused constant-pool bytes per class (0 = vary per app)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := synth.Params{
		Classes:         *classes,
		MethodsPerClass: *methods,
		Fanout:          *fanout,
		HotLoopDepth:    *hot,
		ExecFrac:        *execFrac,
		DataBytes:       *data,
	}
	apps, infos, err := synth.Suite(*seed, *n, base)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-16s %7s %7s %10s %10s %10s %10s %6s\n",
		"app", "classes", "methods", "exec", "code B", "stream B", "units", "instr")
	for i, app := range apps {
		info := infos[i]
		st, err := pipeline.Build(context.Background(), app, pipeline.OrderStatic)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-16s %7d %7d %4d/%-5d %10d %10d %10d %6d\n",
			info.Name, info.Classes, info.Methods,
			info.ExecutedTrain, info.ExecutedTest,
			info.CodeBytes, len(st.Data), len(st.Units), info.TestInstrs)
	}
	fmt.Fprintf(out, "\n%d apps generated from seed %d; self-checks ran at generation time\n", len(apps), *seed)
	return nil
}
