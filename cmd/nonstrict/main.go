// Command nonstrict reproduces the evaluation of "Overlapping Execution
// with Transfer Using Non-Strict Execution for Mobile Programs"
// (ASPLOS 1998) and exposes the underlying pipeline.
//
// Usage:
//
//	nonstrict list                 list the benchmark programs
//	nonstrict run <name> [-train]  execute one benchmark in the VM
//	nonstrict stats                print Tables 1-3 (program statistics)
//	nonstrict latency              print Table 4 (invocation latency)
//	nonstrict tables [-t N]        print evaluation tables (default: all)
//	                               (-par N workers, -stats for counters)
//	nonstrict figure6              print the summary figure
//	nonstrict ablate               print the ablation studies
//	nonstrict sim <name> [flags]   simulate one configuration
//	nonstrict serve <name>         publish the benchmarks as HTTP streams
//	nonstrict router [flags]       route a sharded cluster of serve nodes
//	nonstrict fetch <url> -name N  load it non-strictly and run it
//	nonstrict run-remote <url> -name N
//	                               execute it while it streams in
//	nonstrict trace <file>         summarize an exported run trace
//	nonstrict synth [flags]        generate seeded synthetic apps
//	nonstrict fleet [flags]        replay a client fleet over link models
//	nonstrict check [flags]        run the concurrency interleaving checker
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"nonstrict"
	"nonstrict/internal/experiments"
	"nonstrict/internal/sim"
	"nonstrict/internal/transfer"
)

func usage() {
	fmt.Fprintln(os.Stderr, `usage: nonstrict <command> [arguments]

commands:
  list                 list the benchmark programs
  run <name> [-train]  execute one benchmark in the VM and report stats
  stats                print Tables 1-3 (program and base-case statistics)
  latency              print Table 4 (invocation latency)
  tables [-t N]        print evaluation tables 5-10 (default: all);
                       -par N sets the worker count, -stats adds counters
  figure6              print the Figure 6 summary chart
  ablate               print the ablation studies (heuristics, bandwidth,
                       block-level delimiters)
  jit                  print the JIT-compilation-overlap extension
  sim <name> [flags]   simulate one transfer configuration
  serve <name> [flags] publish every benchmark as non-strict HTTP streams
                       (multi-tenant under /apps/{name}/app, cached per
                       (app, order) key; <name> also aliased at /app;
                       -order scg|train|test, -cache-bytes N; with
                       -cluster -node-name N -peers name=url,... the
                       server joins a sharded tier: it builds only the
                       keys it owns and peer-fills the rest)
  router [flags]       route requests to a sharded cluster of serve
                       -cluster nodes by consistent hash of the
                       (app, order) key (-peers name=url,...,
                       -ring-seed N, -vnodes N, -order P, -cooldown D)
  fetch <url> -name N  load a served benchmark non-strictly and run it
  run-remote <url> -name N
                       execute a served benchmark WHILE it streams in,
                       measuring first-invocation latency and overlap
                       (-stats compares against simulator predictions,
                       -trace FILE exports a Chrome trace of the run,
                       -trace-summary prints the measured stall
                       attribution beside the simulator's predictions)
  trace <file>         summarize a trace exported by run-remote -trace
  synth [flags]        generate seeded synthetic apps and print their
                       measured shape (-seed, -n, plus structure knobs:
                       -classes, -methods, -fanout, -hot, -exec, -data)
  fleet [flags]        replay thousands of simulated clients against the
                       in-process server over seeded link models
                       (-apps, -clients, -links, -seed, -duration,
                       -order, -scale; -out FILE writes the JSON report)
  check [flags]        run the concurrency-soundness checker: exhaustive
                       interleaving enumeration of the cache and loader
                       state machines against their executable specs
                       (-ops, -keys, -stepped, -full), plus optional
                       seeded randomized stress (-stress N, -seed)`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := dispatch(ctx, os.Args[1], os.Args[2:], os.Stdout); err != nil {
		if err == errUsage {
			usage()
		}
		fmt.Fprintln(os.Stderr, "nonstrict:", err)
		os.Exit(1)
	}
}

// errUsage asks main to print usage and exit non-zero.
var errUsage = errors.New("usage")

// dispatch routes one subcommand; out receives all normal output.
// Interrupting the process cancels ctx, which aborts in-flight table
// generation, transfers, and the demo server.
func dispatch(ctx context.Context, cmd string, args []string, out io.Writer) error {
	switch cmd {
	case "list":
		return cmdList(out)
	case "run":
		return cmdRun(args, out)
	case "stats":
		return cmdStats(out)
	case "latency":
		return cmdLatency(out)
	case "tables":
		return cmdTables(ctx, args, out)
	case "figure6":
		return cmdFigure6(ctx, args, out)
	case "ablate":
		return cmdAblate(out)
	case "jit":
		return cmdJIT(out)
	case "sim":
		return cmdSim(args, out)
	case "serve":
		return cmdServe(ctx, args, out)
	case "router":
		return cmdRouter(ctx, args, out)
	case "fetch":
		return cmdFetch(ctx, args, out)
	case "run-remote":
		return cmdRunRemote(ctx, args, out)
	case "trace":
		return cmdTrace(args, out)
	case "synth":
		return cmdSynth(args, out)
	case "fleet":
		return cmdFleet(ctx, args, out)
	case "check":
		return cmdCheck(args, out)
	default:
		return errUsage
	}
}

func cmdList(out io.Writer) error {
	for _, a := range nonstrict.Benchmarks() {
		fmt.Fprintf(out, "%-9s %s\n", a.Name, a.Description)
	}
	return nil
}

func cmdRun(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	train := fs.Bool("train", false, "use the train input instead of test")
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return fmt.Errorf("run: usage: nonstrict run <name> [-train]")
	}
	name := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	app, err := nonstrict.Benchmark(name)
	if err != nil {
		return err
	}
	b, err := nonstrict.LoadBenchmark(app.Name)
	if err != nil {
		return err
	}
	prof := b.TestProfile
	if *train {
		prof = b.TrainProfile
	}
	fmt.Fprintf(out, "%s: %d classes, %d methods, %d bytes\n",
		app.Name, len(b.Prog.Classes), b.Prog.NumMethods(), b.Prog.TotalSize())
	fmt.Fprintf(out, "dynamic instructions: %d (%d methods executed)\n",
		prof.TotalInstrs, prof.Executed())
	fmt.Fprintf(out, "self-check: ok\n")
	return nil
}

func cmdStats(out io.Writer) error {
	s := nonstrict.Experiments()
	t1, err := s.Table1()
	if err != nil {
		return err
	}
	fmt.Fprintln(out, experiments.RenderTable1(t1))
	t2, err := s.Table2()
	if err != nil {
		return err
	}
	fmt.Fprintln(out, experiments.RenderTable2(t2))
	t3, err := s.Table3()
	if err != nil {
		return err
	}
	fmt.Fprintln(out, experiments.RenderTable3(t3))
	return nil
}

func cmdLatency(out io.Writer) error {
	s := nonstrict.Experiments()
	t4, err := s.Table4()
	if err != nil {
		return err
	}
	fmt.Fprintln(out, experiments.RenderTable4(t4))
	return nil
}

func cmdTables(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tables", flag.ContinueOnError)
	which := fs.String("t", "", "comma-separated table numbers (1-10; default all)")
	par := fs.Int("par", 0, "simulation workers (0 = one per CPU, 1 = serial)")
	stats := fs.Bool("stats", false, "print simulation counters after the tables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	want := map[string]bool{}
	if *which != "" {
		for _, t := range strings.Split(*which, ",") {
			want[strings.TrimSpace(t)] = true
		}
	}
	all := len(want) == 0
	s := nonstrict.Experiments()
	s.SetWorkers(*par)

	type gen struct {
		id  string
		run func() (string, error)
	}
	gens := []gen{
		{"1", func() (string, error) { r, err := s.Table1(); return experiments.RenderTable1(r), err }},
		{"2", func() (string, error) { r, err := s.Table2(); return experiments.RenderTable2(r), err }},
		{"3", func() (string, error) { r, err := s.Table3(); return experiments.RenderTable3(r), err }},
		{"4", func() (string, error) { r, err := s.Table4(); return experiments.RenderTable4(r), err }},
		{"5", func() (string, error) {
			r, err := s.TableParallelCtx(ctx, transfer.T1)
			return experiments.RenderParallel("Table 5: Normalized Execution Time, Parallel File Transfer, T1 (%)", r), err
		}},
		{"6", func() (string, error) {
			r, err := s.TableParallelCtx(ctx, transfer.Modem)
			return experiments.RenderParallel("Table 6: Normalized Execution Time, Parallel File Transfer, Modem (%)", r), err
		}},
		{"7", func() (string, error) { r, err := s.Table7Ctx(ctx); return experiments.RenderTable7(r), err }},
		{"8", func() (string, error) { r, err := s.Table8(); return experiments.RenderTable8(r), err }},
		{"9", func() (string, error) { r, err := s.Table9(); return experiments.RenderTable9(r), err }},
		{"10", func() (string, error) { r, err := s.Table10Ctx(ctx); return experiments.RenderTable10(r), err }},
	}
	for _, g := range gens {
		if !all && !want[g.id] {
			continue
		}
		text, err := g.run()
		if err != nil {
			return fmt.Errorf("table %s: %w", g.id, err)
		}
		fmt.Fprintln(out, text)
	}
	if *stats {
		printRunnerStats(out, s.RunnerStats())
	}
	return nil
}

// printRunnerStats reports the counters accumulated by the concurrent
// simulation runner.
func printRunnerStats(out io.Writer, st experiments.RunnerStats) {
	fmt.Fprintf(out, "runner: %d cells simulated; %d demand fetches, %d stalls (%d stall cycles), %d mispredicts\n",
		st.Cells, st.Demands, st.Stalls, st.StallCycles, st.Mispredicts)
}

func cmdFigure6(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("figure6", flag.ContinueOnError)
	par := fs.Int("par", 0, "simulation workers (0 = one per CPU, 1 = serial)")
	stats := fs.Bool("stats", false, "print simulation counters after the figure")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s := nonstrict.Experiments()
	s.SetWorkers(*par)
	f, err := s.Figure6Ctx(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, experiments.RenderFigure6(f))
	if *stats {
		printRunnerStats(out, s.RunnerStats())
	}
	return nil
}

func cmdAblate(out io.Writer) error {
	s := nonstrict.Experiments()
	h, err := s.AblationHeuristic()
	if err != nil {
		return err
	}
	fmt.Fprintln(out, experiments.RenderAblationHeuristic(h))
	sw, err := s.BandwidthSweep([]int64{100, 500, 1000, 3815, 15000, 60000, 134698, 500000, 2000000})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, experiments.RenderBandwidthSweep(sw))
	bd, err := s.AblationBlockDelimiters()
	if err != nil {
		return err
	}
	fmt.Fprintln(out, experiments.RenderBlockDelimiters(bd))
	sp, err := s.SplitStudy(12)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, experiments.RenderSplitStudy(12, sp))
	cm, err := s.CostModelStudy()
	if err != nil {
		return err
	}
	fmt.Fprintln(out, experiments.RenderCostModel(cm))
	cz, err := s.CompressionStudy(experiments.DefaultCompression)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, experiments.RenderCompression(experiments.DefaultCompression, cz))
	return nil
}

func cmdJIT(out io.Writer) error {
	s := nonstrict.Experiments()
	for _, cpb := range []int64{200, 1000, 5000} {
		cfg := sim.JITConfig{CompileCyclesPerByte: cpb}
		rows, err := s.TableJIT(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.RenderJIT(cfg, rows))
	}
	return nil
}

func cmdSim(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sim", flag.ContinueOnError)
	order := fs.String("order", "test", "first-use predictor: scg, train, test")
	engine := fs.String("engine", "interleaved", "transfer: sequential, parallel, interleaved")
	mode := fs.String("mode", "nonstrict", "availability: strict, nonstrict, partitioned")
	limit := fs.Int("limit", 4, "parallel transfer concurrency (0 = unlimited)")
	link := fs.String("link", "modem", "link: t1, modem")
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return fmt.Errorf("sim: usage: nonstrict sim <name> [flags]")
	}
	name := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	b, err := nonstrict.LoadBenchmark(name)
	if err != nil {
		return err
	}
	v := nonstrict.Variant{Limit: *limit}
	switch *order {
	case "scg":
		v.Order = nonstrict.SCG
	case "train":
		v.Order = nonstrict.Train
	case "test":
		v.Order = nonstrict.Test
	default:
		return fmt.Errorf("sim: unknown order %q", *order)
	}
	switch *engine {
	case "sequential":
		v.Engine = nonstrict.Sequential
	case "parallel":
		v.Engine = nonstrict.Parallel
	case "interleaved":
		v.Engine = nonstrict.Interleaved
	default:
		return fmt.Errorf("sim: unknown engine %q", *engine)
	}
	switch *mode {
	case "strict":
		v.Mode = nonstrict.Strict
	case "nonstrict":
		v.Mode = nonstrict.NonStrict
	case "partitioned":
		v.Mode = nonstrict.Partitioned
	default:
		return fmt.Errorf("sim: unknown mode %q", *mode)
	}
	switch *link {
	case "t1":
		v.Link = nonstrict.T1
	case "modem":
		v.Link = nonstrict.Modem
	default:
		return fmt.Errorf("sim: unknown link %q", *link)
	}

	res, err := b.Simulate(v)
	if err != nil {
		return err
	}
	strict := b.StrictTotal(v.Link)
	fmt.Fprintf(out, "benchmark:          %s\n", name)
	fmt.Fprintf(out, "configuration:      order=%s engine=%s mode=%s limit=%d link=%s\n",
		*order, *engine, *mode, *limit, v.Link.Name)
	fmt.Fprintf(out, "invocation latency: %d cycles\n", res.InvocationLatency)
	fmt.Fprintf(out, "execution cycles:   %d\n", res.ExecCycles)
	fmt.Fprintf(out, "stall cycles:       %d (%d stalls, %d mispredicts)\n",
		res.StallCycles, res.StallEvents, res.Mispredicts)
	fmt.Fprintf(out, "total cycles:       %d\n", res.TotalCycles)
	fmt.Fprintf(out, "strict baseline:    %d\n", strict)
	if strict > 0 {
		fmt.Fprintf(out, "normalized:         %.1f%% of strict (%.1f%% saved)\n",
			100*float64(res.TotalCycles)/float64(strict),
			100*(1-float64(res.TotalCycles)/float64(strict)))
	} else {
		fmt.Fprintf(out, "normalized:         n/a (strict baseline is zero)\n")
	}
	return nil
}

// cmdTrace summarizes a Chrome trace-event file exported by
// run-remote -trace: event and span totals plus the busiest lanes.
func cmdTrace(args []string, out io.Writer) error {
	if len(args) != 1 || strings.HasPrefix(args[0], "-") {
		return fmt.Errorf("trace: usage: nonstrict trace <file>")
	}
	f, err := os.Open(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	sum, err := nonstrict.ParseTrace(f)
	if err != nil {
		return fmt.Errorf("trace: %s: %w", args[0], err)
	}
	fmt.Fprintf(out, "%s: %d events spanning %.3fms (%d dropped at capture)\n",
		args[0], sum.Events, sum.SpanUS/1000, sum.Dropped)
	names := make([]string, 0, len(sum.ByName))
	for n := range sum.ByName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if sum.ByName[names[i]] != sum.ByName[names[j]] {
			return sum.ByName[names[i]] > sum.ByName[names[j]]
		}
		return names[i] < names[j]
	})
	if len(names) > 10 {
		names = names[:10]
	}
	for _, n := range names {
		fmt.Fprintf(out, "  %6d  %s\n", sum.ByName[n], n)
	}
	return nil
}
