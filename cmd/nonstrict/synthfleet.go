package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"nonstrict/internal/fleet"
	"nonstrict/internal/pipeline"
	"nonstrict/internal/stream"
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

// cmdFleet runs a fleet sweep against the in-process server and prints
// the per-link table; -out also writes the JSON report.
func cmdFleet(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	appsFlag := fs.String("apps", "6", "N (generate N synthetic apps) or comma-separated registered app names")
	clients := fs.Int("clients", 200, "total simulated clients")
	links := fs.String("links", "", "comma-separated link classes (default: all of "+strings.Join(stream.LinkNames(), ",")+")")
	seed := fs.Uint64("seed", 1, "seed for every schedule (apps, arrivals, links, think time)")
	duration := fs.Duration("duration", time.Second, "simulated arrival window")
	order := fs.String("order", "train", "server order policy: scg, train, test")
	scale := fs.Float64("scale", 50, "time scale: divide every simulated sleep by this")
	think := fs.Duration("think", 2*time.Millisecond, "mean simulated execute time between needs")
	workers := fs.Int("workers", 0, "max concurrently active clients (0 = default)")
	outPath := fs.String("out", "", "also write the JSON report ("+fleet.Schema+") to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var names []string
	if n, err := strconv.Atoi(*appsFlag); err == nil {
		if n <= 0 {
			return fmt.Errorf("fleet: -apps %d: need at least one app", n)
		}
		var err error
		names, _, err = synth.RegisterSuite(*seed, n, synth.Params{Name: "fleet"})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "generated %d synthetic apps from seed %d\n", n, *seed)
	} else {
		for _, n := range strings.Split(*appsFlag, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	linkSet, err := stream.ParseLinks(*links)
	if err != nil {
		return err
	}

	rep, err := fleet.Run(ctx, fleet.Config{
		Apps:      names,
		Clients:   *clients,
		Links:     linkSet,
		Seed:      *seed,
		Order:     *order,
		Duration:  *duration,
		TimeScale: *scale,
		ThinkMean: *think,
		Workers:   *workers,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "%-10s %7s %5s %9s %9s %9s %10s %7s %8s\n",
		"link", "clients", "fail", "p50 ms", "p99 ms", "p999 ms", "mispredict", "overlap", "demand B")
	for _, l := range rep.Links {
		fmt.Fprintf(out, "%-10s %7d %5d %9.2f %9.2f %9.2f %9.1f%% %7.2f %8d\n",
			l.Link, l.Clients, l.Failures,
			l.FirstInvocationMs.P50, l.FirstInvocationMs.P99, l.FirstInvocationMs.P999,
			100*l.MispredictRate, l.MeanOverlap, l.DemandBytes)
	}
	fmt.Fprintf(out, "cache: %d builds, %d hits; run took %.0fms at %gx time scale\n",
		rep.Cache.Builds, rep.Cache.Hits, rep.DurationMs, rep.TimeScale)

	if *outPath == "" {
		return nil
	}
	js, err := rep.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(*outPath, append(js, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", *outPath)
	return nil
}
