package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"nonstrict"
	"nonstrict/internal/live"
)

// cmdRunRemote downloads a served benchmark and executes it WHILE the
// bytes stream in — the paper's overlapped execution, measured on a real
// transfer instead of replayed in the cycle simulator. Methods invoked
// before their bytes arrive block at the VM's availability gate; methods
// wanted out of predicted order are demand-fetched by byte range using
// the server's unit table. The command reports wall-clock
// first-invocation latencies and overlap statistics, and -stats prints
// the cycle simulator's predictions for the same program next to them.
func cmdRunRemote(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("run-remote", flag.ContinueOnError)
	name := fs.String("name", "", "benchmark name (for input args and self-check)")
	train := fs.Bool("train", false, "run the train input instead of test")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request idle timeout")
	retries := fs.Int("retries", 8, "consecutive zero-progress attempts before giving up")
	backoff := fs.Duration("backoff", 100*time.Millisecond, "base retry backoff (doubles per failure, capped)")
	stats := fs.Bool("stats", false, "print the simulator's predicted overlap next to the measured run")
	nlat := fs.Int("latencies", 10, "first-invocation latencies to print (0 = none, -1 = all)")
	gate := fs.Duration("gate-timeout", 0, "availability-gate deadline per first invocation (0 = default 30s, negative = no deadline)")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON of the run to this file")
	traceSummary := fs.Bool("trace-summary", false, "print the per-method stall attribution beside the simulator's predicted stalls")
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return fmt.Errorf("run-remote: usage: nonstrict run-remote <url> -name <benchmark> [-train] [-stats] [-latencies N] [-timeout D] [-retries N] [-backoff D] [-gate-timeout D] [-trace FILE] [-trace-summary]")
	}
	url := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("run-remote: -name is required")
	}
	app, err := nonstrict.Benchmark(*name)
	if err != nil {
		return err
	}

	client := &nonstrict.FetchClient{
		RequestTimeout: *timeout,
		MaxRetries:     *retries,
		BackoffBase:    *backoff,
	}
	var rec *nonstrict.Recorder
	if *traceOut != "" || *traceSummary {
		rec = nonstrict.NewRecorder(0)
		client.Obs = rec
	}
	m, st, err := live.Run(ctx, live.Options{
		URL:         url,
		TOCURL:      url + ".toc",
		Name:        app.Name,
		MainClass:   app.IR.Main,
		Client:      client,
		GateTimeout: *gate,
		Obs:         rec,
		Run:         nonstrict.RunOptions{Args: app.Args(*train)},
	})
	if err != nil {
		return err
	}
	if *traceOut != "" {
		if werr := writeTraceFile(*traceOut, rec); werr != nil {
			return werr
		}
		fmt.Fprintf(out, "trace: %d events written to %s (%d dropped)\n", rec.Len(), *traceOut, rec.Dropped())
	}
	if err := app.Check(m, *train); err != nil {
		return fmt.Errorf("run-remote: self-check failed: %w", err)
	}

	fmt.Fprintf(out, "executed %d instructions while %d classes / %d methods streamed in; self-check: ok\n",
		m.Steps(), st.Classes, st.Methods)
	fmt.Fprintf(out, "first method runnable after %v; execution done at %v; transfer done at %v\n",
		st.FirstRunnable.Round(time.Microsecond), st.ExecDone.Round(time.Microsecond),
		st.TransferDone.Round(time.Microsecond))
	fmt.Fprintf(out, "measured overlap: %.1f%% of execution ran during transfer (stalled %v across %d first invocations)\n",
		100*st.Overlap(), st.StallTime.Round(time.Microsecond), len(st.Waits))
	fmt.Fprintf(out, "demand fetches: %d (%d mispredicts, %d bytes); main stream: %d bytes\n",
		st.DemandFetches, st.Mispredicts, st.DemandBytes, st.StreamBytes)
	fmt.Fprintf(out, "transfer: %d bytes in %d requests (%d retries, %d resumes)\n",
		st.Transfer.BytesTransferred, st.Transfer.Requests, st.Transfer.Retries, st.Transfer.Resumes)
	fmt.Fprintf(out, "integrity: %d corrupt units, %d repaired, %d quarantined, %d re-fetches; stream digest verified: %v\n",
		st.Integrity.CorruptUnits, st.Integrity.Repaired, st.Integrity.Outstanding,
		st.Refetches, st.Integrity.DigestVerified)
	if st.Degraded != "" {
		fmt.Fprintf(out, "degraded: %s (finished by demand-fetching every remaining unit)\n", st.Degraded)
	}

	if *nlat != 0 {
		n := len(st.Waits)
		if *nlat > 0 && n > *nlat {
			n = *nlat
		}
		fmt.Fprintf(out, "first-invocation latencies (first %d of %d):\n", n, len(st.Waits))
		for _, w := range st.Waits[:n] {
			mark := ""
			if w.Demand {
				mark = "  [demand]"
			}
			fmt.Fprintf(out, "  %-28s at %10v  waited %10v%s\n",
				fmt.Sprintf("%s.%s", w.Method.Class, w.Method.Name),
				w.At.Round(time.Microsecond), w.Wait.Round(time.Microsecond), mark)
		}
	}

	if !*traceSummary && !*stats {
		return nil
	}
	// Both reports simulate the same loaded benchmark: load it once.
	b, err := nonstrict.LoadBenchmark(app.Name)
	if err != nil {
		return err
	}
	if *traceSummary {
		if err := printStallAttribution(out, b, st); err != nil {
			return err
		}
	}
	if *stats {
		if err := printSimPrediction(out, b, st); err != nil {
			return err
		}
	}
	return nil
}

// writeTraceFile exports the run's recorded events as Chrome
// trace-event JSON (load via chrome://tracing or https://ui.perfetto.dev).
func writeTraceFile(path string, rec *nonstrict.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := nonstrict.WriteTrace(f, rec.Events(), rec.Dropped()); err != nil {
		f.Close()
		return fmt.Errorf("run-remote: writing trace: %w", err)
	}
	return f.Close()
}

// printStallAttribution decomposes every measured first-invocation
// latency into execute / transfer-wait / repair-wait / gate-wait — the
// components sum to the latency exactly, by construction — and prints
// the simulator's predicted stall for the same method (SCG prediction,
// interleaved transfer, modem link) beside each row that has one.
func printStallAttribution(out io.Writer, b *nonstrict.Bench, st *live.Stats) error {
	res, err := b.Simulate(nonstrict.Variant{
		Order:  nonstrict.SCG,
		Engine: nonstrict.Interleaved,
		Mode:   nonstrict.NonStrict,
		Link:   nonstrict.Modem,
	})
	if err != nil {
		return err
	}
	predicted := make(map[nonstrict.Ref]int64, len(res.Stalls))
	for _, s := range res.Stalls {
		predicted[s.Method] = s.Cycles
	}

	attrs := st.Attributions()
	fmt.Fprintf(out, "stall attribution (measured; sim prediction: order=scg engine=interleaved link=modem):\n")
	fmt.Fprintf(out, "  %-28s %12s %12s %12s %12s %12s  %s\n",
		"method", "latency", "execute", "transfer", "repair", "gate", "sim-stall")
	var worst time.Duration
	for _, a := range attrs {
		sum := a.Execute + a.Transfer + a.Repair + a.Gate
		if d := sum - a.Latency; d > worst {
			worst = d
		} else if d := a.Latency - sum; d > worst {
			worst = d
		}
		sim := "-"
		if cyc, ok := predicted[a.Method]; ok {
			sim = fmt.Sprintf("%d cyc", cyc)
		}
		mark := ""
		if a.Demand {
			mark = "  [demand]"
		}
		fmt.Fprintf(out, "  %-28s %12v %12v %12v %12v %12v  %s%s\n",
			a.Method.String(), round(a.Latency), round(a.Execute), round(a.Transfer),
			round(a.Repair), round(a.Gate), sim, mark)
	}
	fmt.Fprintf(out, "  attribution check: components sum to latency within %v across %d methods (sim: %d predicted stalls, %d cycles total)\n",
		worst, len(attrs), res.StallEvents, res.StallCycles)
	return nil
}

func round(d time.Duration) time.Duration { return d.Round(time.Microsecond) }

// printSimPrediction runs the cycle simulator on the same benchmark in
// the configuration run-remote mirrors — static prediction, interleaved
// transfer, non-strict availability — and prints its predicted overlap
// beside the measured one.
func printSimPrediction(out io.Writer, b *nonstrict.Bench, st *live.Stats) error {
	fmt.Fprintf(out, "simulator prediction (order=scg engine=interleaved mode=nonstrict):\n")
	for _, link := range []nonstrict.Link{nonstrict.T1, nonstrict.Modem} {
		res, err := b.Simulate(nonstrict.Variant{
			Order:  nonstrict.SCG,
			Engine: nonstrict.Interleaved,
			Mode:   nonstrict.NonStrict,
			Link:   link,
		})
		if err != nil {
			return err
		}
		strict := b.StrictTotal(link)
		norm := "  n/a"
		if strict > 0 {
			norm = fmt.Sprintf("%5.1f%%", 100*float64(res.TotalCycles)/float64(strict))
		}
		fmt.Fprintf(out, "  %-6s predicted overlap %5.1f%%, %s of strict, %d mispredicts\n",
			link.Name+":", 100*res.Overlap(), norm, res.Mispredicts)
	}
	fmt.Fprintf(out, "  measured: overlap %.1f%%, %d mispredicts (wall-clock, link-speed dependent)\n",
		100*st.Overlap(), st.Mispredicts)
	return nil
}
