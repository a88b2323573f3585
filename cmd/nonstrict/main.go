// Command nonstrict reproduces the evaluation of "Overlapping Execution
// with Transfer Using Non-Strict Execution for Mobile Programs"
// (ASPLOS 1998) and exposes the underlying pipeline. Run it with no
// arguments for the list of subcommands.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strings"
	"syscall"

	"nonstrict/internal/apps"
	"nonstrict/internal/experiments"
	"nonstrict/internal/obs"
	"nonstrict/internal/sim"
	"nonstrict/internal/transfer"
)

// commands is the one list of subcommands: usage prints the synopses,
// dispatch looks up the name.
var commands = []struct {
	name, synopsis string
	run            func(ctx context.Context, args []string, out io.Writer) error
}{
	{"list", `list                 list the benchmark programs`, cmdList},
	{"run", `run <name> [-train]  execute one benchmark in the VM and report stats`, cmdRun},
	{"tables", `tables [-t ids]      print the evaluation; ids are comma-separated:
                       1-10 (the paper's tables, the default), fig6
                       (the Figure 6 summary chart), ablate (the
                       ablation studies: heuristics, bandwidth,
                       block-level delimiters) and jit (the
                       JIT-compilation-overlap extension);
                       -par N sets the worker count, -stats adds counters`, cmdTables},
	{"sim", `sim <name> [flags]   simulate one transfer configuration`, cmdSim},
	{"serve", `serve <name> [flags] publish every benchmark as non-strict HTTP streams
                       (multi-tenant under /apps/{name}/app, cached per
                       (app, order) key; <name> also aliased at /app;
                       -order scg|train|test, -cache-bytes N; with
                       -cluster -node-name N -peers name=url,... the
                       server joins a sharded tier: it builds only the
                       keys it owns and peer-fills the rest)`, cmdServe},
	{"router", `router [flags]       route requests to a sharded cluster of serve
                       -cluster nodes by consistent hash of the
                       (app, order) key (-peers name=url,...,
                       -ring-seed N, -vnodes N, -order P, -cooldown D)`, cmdRouter},
	{"fetch", `fetch <url> -name N  load a served benchmark non-strictly and run it`, cmdFetch},
	{"run-remote", `run-remote <url> -name N
                       execute a served benchmark WHILE it streams in,
                       measuring first-invocation latency and overlap
                       (-stats compares against simulator predictions,
                       -trace FILE exports a Chrome trace of the run,
                       -trace-summary prints the measured stall
                       attribution beside the simulator's predictions)`, cmdRunRemote},
	{"trace", `trace <file>         summarize a trace exported by run-remote -trace`, cmdTrace},
	{"synth", `synth [flags]        generate seeded synthetic apps and print their
                       measured shape (-seed, -n, plus structure knobs:
                       -classes, -methods, -fanout, -hot, -exec, -data)`, cmdSynth},
}

func usage() {
	fmt.Fprint(os.Stderr, "usage: nonstrict <command> [arguments]\n\ncommands:\n")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %s\n", c.synopsis)
	}
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
	for _, c := range commands {
		if c.name == cmd {
			return c.run(ctx, args, out)
		}
	}
	return errUsage
}

func cmdList(_ context.Context, _ []string, out io.Writer) error {
	for _, a := range apps.All() {
		fmt.Fprintf(out, "%-9s %s\n", a.Name, a.Description)
	}
	return nil
}

func cmdRun(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	train := fs.Bool("train", false, "use the train input instead of test")
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return fmt.Errorf("run: usage: nonstrict run <name> [-train]")
	}
	name := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	app, err := apps.ByName(name)
	if err != nil {
		return err
	}
	b, err := experiments.LoadCtx(ctx, app)
	if err != nil {
		return err
	}
	prof := b.TestProfile
	if *train {
		prof = b.TrainProfile
	}
	fmt.Fprintf(out, "%s: %d classes, %d methods, %d bytes\n",
		b.App.Name, len(b.Prog.Classes), b.Prog.NumMethods(), b.Prog.TotalSize())
	fmt.Fprintf(out, "dynamic instructions: %d (%d methods executed)\n",
		prof.TotalInstrs, prof.Executed())
	fmt.Fprintf(out, "self-check: ok\n")
	return nil
}

// cmdTables prints the paper's tables and figure and the repository's
// extension studies, selected by id.
func cmdTables(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tables", flag.ContinueOnError)
	which := fs.String("t", "1,2,3,4,5,6,7,8,9,10", "comma-separated ids: 1-10, fig6, ablate, jit")
	par := fs.Int("par", 0, "simulation workers (0 = one per CPU, 1 = serial)")
	stats := fs.Bool("stats", false, "print simulation counters after the tables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s := &experiments.Suite{}
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
		{"fig6", func() (string, error) { r, err := s.Figure6Ctx(ctx); return experiments.RenderFigure6(r), err }},
		{"ablate", func() (string, error) { return renderAblations(s) }},
		{"jit", func() (string, error) { return renderJIT(s) }},
	}
	want := map[string]bool{}
	for _, id := range strings.Split(*which, ",") {
		id = strings.TrimSpace(id)
		if !slices.ContainsFunc(gens, func(g gen) bool { return g.id == id }) {
			return fmt.Errorf("tables: unknown id %q (want 1-10, fig6, ablate or jit)", id)
		}
		want[id] = true
	}
	// Load the suite once under ctx, before any generator: an interrupt
	// during the load aborts here, and the generators that take no ctx
	// find the suite loaded.
	if _, err := s.BenchesCtx(ctx); err != nil {
		return fmt.Errorf("tables: %w", err)
	}
	for _, g := range gens {
		if !want[g.id] {
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

// renderAblations runs the ablation and extension studies, one blank
// line between them.
func renderAblations(s *experiments.Suite) (string, error) {
	h, err := s.AblationHeuristic()
	if err != nil {
		return "", err
	}
	sw, err := s.BandwidthSweep([]int64{100, 500, 1000, 3815, 15000, 60000, 134698, 500000, 2000000})
	if err != nil {
		return "", err
	}
	bd, err := s.AblationBlockDelimiters()
	if err != nil {
		return "", err
	}
	sp, err := s.SplitStudy(12)
	if err != nil {
		return "", err
	}
	cm, err := s.CostModelStudy()
	if err != nil {
		return "", err
	}
	cz, err := s.CompressionStudy(experiments.DefaultCompression)
	if err != nil {
		return "", err
	}
	return strings.Join([]string{
		experiments.RenderAblationHeuristic(h),
		experiments.RenderBandwidthSweep(sw),
		experiments.RenderBlockDelimiters(bd),
		experiments.RenderSplitStudy(12, sp),
		experiments.RenderCostModel(cm),
		experiments.RenderCompression(experiments.DefaultCompression, cz),
	}, "\n"), nil
}

// renderJIT runs the JIT-compilation-overlap extension at three compile
// costs.
func renderJIT(s *experiments.Suite) (string, error) {
	var parts []string
	for _, cpb := range []int64{200, 1000, 5000} {
		cfg := sim.JITConfig{CompileCyclesPerByte: cpb}
		rows, err := s.TableJIT(cfg)
		if err != nil {
			return "", err
		}
		parts = append(parts, experiments.RenderJIT(cfg, rows))
	}
	return strings.Join(parts, "\n"), nil
}

func cmdSim(ctx context.Context, args []string, out io.Writer) error {
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
	app, err := apps.ByName(name)
	if err != nil {
		return err
	}
	b, err := experiments.LoadCtx(ctx, app)
	if err != nil {
		return err
	}
	v := experiments.Variant{Limit: *limit}
	switch *order {
	case "scg":
		v.Order = experiments.SCG
	case "train":
		v.Order = experiments.Train
	case "test":
		v.Order = experiments.Test
	default:
		return fmt.Errorf("sim: unknown order %q", *order)
	}
	switch *engine {
	case "sequential":
		v.Engine = experiments.Sequential
	case "parallel":
		v.Engine = experiments.Parallel
	case "interleaved":
		v.Engine = experiments.Interleaved
	default:
		return fmt.Errorf("sim: unknown engine %q", *engine)
	}
	switch *mode {
	case "strict":
		v.Mode = transfer.Strict
	case "nonstrict":
		v.Mode = transfer.NonStrict
	case "partitioned":
		v.Mode = transfer.Partitioned
	default:
		return fmt.Errorf("sim: unknown mode %q", *mode)
	}
	switch *link {
	case "t1":
		v.Link = transfer.T1
	case "modem":
		v.Link = transfer.Modem
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
func cmdTrace(_ context.Context, args []string, out io.Writer) error {
	if len(args) != 1 || strings.HasPrefix(args[0], "-") {
		return fmt.Errorf("trace: usage: nonstrict trace <file>")
	}
	f, err := os.Open(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	sum, err := obs.ParseTrace(f)
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
