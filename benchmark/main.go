// Command benchmark is the repository's one benchmark: five named
// workloads over the six paper apps, each measured from outside the
// layers it drives, with the end-to-end metrics a user of the system
// sees and — in a traced run — one number per layer. See README.md.
//
// It is a module of its own (go.mod replaces nonstrict with the parent
// directory), so it is run from inside this directory:
//
//	go run -C benchmark .                       every workload, end-to-end metrics
//	go run -C benchmark . -workload live-lan    one workload
//	go run -C benchmark . -trace 1              per-layer metrics and a span trace
//	go run -C benchmark . -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"nonstrict/internal/stream"
)

var workloads = []workload{
	{
		name:  "live-lan",
		why:   "Unshaped loopback: the fetch client, loader, gate and VM do all the work, so an optimisation of any of them must show here.",
		alias: liveAlias,
		setup: setupLive("live-lan", nil, 1),
	},
	{
		name:  "live-t1",
		why:   "The paper's regime: the T1-shaped link is ~95% of a session, so order, stream-format and protocol changes show and loader/VM changes must not.",
		alias: liveAlias,
		setup: setupLive("live-t1", &stream.LinkT1, runtime.GOMAXPROCS(0)),
	},
	{
		name:  "serve-warm",
		why:   "Warm server under a closed-loop mix of full streams, unit tables, single-unit ranges and revalidations: the handler and cache-hit path do everything.",
		alias: mixAlias,
		setup: setupWarm,
	},
	{
		name:  "serve-cold",
		why:   "Fresh servers over fresh store directories: the build pipeline and the disk store do all the work, the warm path almost none.",
		alias: coldAlias,
		setup: setupCold,
	},
	{
		name:  "cluster-route",
		why:   "The serve-warm mix through the router of a prewarmed 3-node cluster: the difference from serve-warm is the ring lookup and proxy hop.",
		alias: mixAlias,
		setup: setupRoute,
	},
}

// runSeconds is BENCHMARK.json's run_seconds: how long the driver has
// each workload measure.
const runSeconds = 15

// report is what -out writes and -compare reads.
type report struct {
	Fingerprint map[string]string `json:"fingerprint"`
	Seed        uint64            `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Traced      bool              `json:"traced"`
	Workloads   []*outcome        `json:"workloads"`
}

func fingerprint() map[string]string {
	fp := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"race":       "off",
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				fp["race"] = "on"
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		fp["commit"] = strings.TrimSpace(string(out))
	}
	return fp
}

func main() {
	if err := realMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	names := fs.String("workload", "", "comma-separated workloads to run (default: all five)")
	seed := fs.Uint64("seed", 1, "seeds link jitter and Range unit indices, nothing else")
	seconds := fs.Float64("seconds", runSeconds, "length of each workload's timed region")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a span trace instead of end-to-end metrics")
	traceOut := fs.String("trace-out", "", "Chrome trace file of a traced run (default .bench_build/trace-<workload>.json)")
	quick := fs.Bool("quick", false, "smoke run: one pass per workload, one set-up, scaled link delays")
	outPath := fs.String("out", "", "also write the full JSON report (fingerprint, sample counts) to this file")
	compare := fs.Bool("compare", false, "compare two -out reports given as arguments; fail if b is worse than a beyond a bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two report files")
		}
		return compareReports(fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	selected, err := selectWorkloads(*names)
	if err != nil {
		return err
	}
	if *quick {
		*seconds = 0
	}
	scratch := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	e := newEnv(*seed, *seconds, *quick, scratch)

	rep := &report{Fingerprint: fingerprint(), Seed: *seed, Seconds: *seconds, Traced: *trace != 0}
	for _, w := range selected {
		tracePath := *traceOut
		if tracePath == "" {
			tracePath = filepath.Join(".bench_build", "trace-"+w.name+".json")
		}
		out, err := run(e, w, rep.Traced, tracePath)
		if err != nil {
			return err
		}
		printOutcome(out, rep.Traced)
		if rep.Traced {
			fmt.Printf("%-14s spans written to %s\n", w.name, tracePath)
		}
		rep.Workloads = append(rep.Workloads, out)
	}
	if *outPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return printResult(rep)
}

func selectWorkloads(names string) ([]workload, error) {
	if names == "" {
		return workloads, nil
	}
	var out []workload
	for _, n := range strings.Split(names, ",") {
		found := false
		for _, w := range workloads {
			if w.name == n {
				out, found = append(out, w), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
	}
	return out, nil
}

// printOutcome lists one workload's metrics by name, with unit, sample
// count and what the role-named metric is in this workload.
func printOutcome(o *outcome, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		v := o.Metrics[d.Name]
		line := fmt.Sprintf("%-14s %-42s %14.4f %-8s", o.Workload, d.Name, v.Value, v.Unit)
		if v.N > 0 {
			line += fmt.Sprintf(" n=%d", v.N)
		}
		if v.Alias != "" {
			line += "  # " + v.Alias
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
	names := make([]string, 0, len(o.SelfMS))
	for n := range o.SelfMS {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return o.SelfMS[names[i]] > o.SelfMS[names[j]] })
	for _, n := range names {
		fmt.Printf("%-14s self time %-28s %12.3f ms\n", o.Workload, n, o.SelfMS[n])
	}
	fmt.Printf("%-14s attempted %d, failed %d (failed_share %.6f)\n", o.Workload, o.Attempted, o.Failed,
		float64(o.Failed)/float64(max(o.Attempted, 1)))
	for _, n := range o.Notes {
		fmt.Printf("%-14s FAILED %s\n", o.Workload, n)
	}
}

// printResult writes the last line of standard output: one JSON object
// with exactly the keys correct, attempted, failed and metrics. With
// one workload the metric names are bare; with several, name@workload.
// A failed check makes the exit code non-zero after the line is out.
func printResult(rep *report) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]metric)}
	for _, o := range rep.Workloads {
		res.Correct = res.Correct && o.Correct
		res.Attempted += o.Attempted
		res.Failed += o.Failed
		for name, v := range o.Metrics {
			if len(rep.Workloads) > 1 {
				name += "@" + o.Workload
			}
			res.Metrics[name] = metric{v.Value, v.Unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d checks failed", res.Failed, res.Attempted)
	}
	return nil
}

// compareReports prints each (metric, workload) row of two reports with
// both values and fails when b is worse than a by more than the
// metric's bound, or has failures a did not.
func compareReports(pathA, pathB string) error {
	var a, b report
	for _, in := range []struct {
		path string
		r    *report
	}{{pathA, &a}, {pathB, &b}} {
		data, err := os.ReadFile(in.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, in.r); err != nil {
			return fmt.Errorf("%s: %w", in.path, err)
		}
	}
	byName := make(map[string]*outcome)
	for _, o := range a.Workloads {
		byName[o.Workload] = o
	}
	worse := 0
	fmt.Printf("%-14s %-18s %14s %14s %8s %7s\n", "workload", "metric", "a", "b", "change", "bound")
	for _, ob := range b.Workloads {
		oa := byName[ob.Workload]
		if oa == nil {
			continue
		}
		for _, d := range endToEnd {
			va, okA := oa.Metrics[d.Name]
			vb, okB := ob.Metrics[d.Name]
			if !okA || !okB || va.Value == 0 {
				continue
			}
			change := vb.Value/va.Value - 1
			bad := change > d.Bound
			if d.Better == "higher" {
				bad = -change > d.Bound
			}
			verdict := ""
			if bad {
				verdict = "  WORSE"
				worse++
			}
			fmt.Printf("%-14s %-18s %14.4f %14.4f %+7.1f%% %6.0f%%%s\n",
				ob.Workload, d.Name, va.Value, vb.Value, 100*change, 100*d.Bound, verdict)
		}
		if ob.Failed > oa.Failed {
			fmt.Printf("%-14s failed %d -> %d  WORSE\n", ob.Workload, oa.Failed, ob.Failed)
			worse++
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d rows worse than their bound", worse)
	}
	return nil
}
