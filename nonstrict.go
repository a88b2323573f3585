// Package nonstrict is a library reproduction of "Overlapping Execution
// with Transfer Using Non-Strict Execution for Mobile Programs" (Krintz,
// Calder, Lee, Zorn — ASPLOS 1998).
//
// Strict execution of mobile programs — the whole class file must arrive
// before any method in it may run — serializes network transfer and
// execution. This library implements the paper's alternative end to end:
//
//   - a Java-like class-file substrate (constant pools, method bodies,
//     wire format with per-method delimiters) plus a bytecode VM that
//     executes programs and profiles their first-use behaviour;
//   - first-use prediction, both static (a loop-prioritizing DFS over the
//     interprocedural control-flow graph, §4.1) and profile-guided
//     (§4.2), and class-file restructuring into predicted order;
//   - global-data partitioning into per-method GlobalMethodData (§7.3);
//   - transfer engines: strict sequential, scheduled parallel file
//     transfer with demand-fetch misprediction correction (§5.1), and
//     interleaved single-virtual-file transfer (§5.2);
//   - an incremental verifier that checks classes as global data arrives
//     and methods as their delimiters arrive (§3.1.1);
//   - a cycle-level simulator overlapping execution with transfer, and
//     the six benchmark workloads of the paper's evaluation, re-authored
//     and checked against native Go reference implementations;
//   - generators for every table and figure in the paper's evaluation.
//
// # Quick start
//
//	bench, err := nonstrict.LoadBenchmark("Jess")
//	if err != nil { ... }
//	res, err := bench.Simulate(nonstrict.Variant{
//		Order:  nonstrict.Test,
//		Engine: nonstrict.Interleaved,
//		Mode:   nonstrict.NonStrict,
//		Link:   nonstrict.Modem,
//	})
//	fmt.Printf("total %d cycles (%.0f%% of strict)\n",
//		res.TotalCycles, 100*float64(res.TotalCycles)/float64(bench.StrictTotal(nonstrict.Modem)))
//
// The cmd/nonstrict tool prints every table; see EXPERIMENTS.md for the
// measured reproduction against the paper's numbers.
package nonstrict

import (
	"context"
	"io"

	"nonstrict/internal/apps"
	"nonstrict/internal/classfile"
	"nonstrict/internal/datapart"
	"nonstrict/internal/experiments"
	"nonstrict/internal/live"
	"nonstrict/internal/obs"
	"nonstrict/internal/pipeline"
	"nonstrict/internal/reorder"
	"nonstrict/internal/restructure"
	"nonstrict/internal/sim"
	"nonstrict/internal/stream"
	"nonstrict/internal/transfer"
	"nonstrict/internal/verify"
	"nonstrict/internal/vm"
)

// Core model types.
type (
	// Program is a mobile application: a set of class files and an
	// entry point.
	Program = classfile.Program
	// Class is one class file.
	Class = classfile.Class
	// Ref names a method as Class.Name.
	Ref = classfile.Ref
	// MethodID is a dense program-wide method identifier.
	MethodID = classfile.MethodID
	// Index maps between Refs and MethodIDs.
	Index = classfile.Index
)

// Execution and profiling.
type (
	// Machine is a finished VM run with its profile and trace.
	Machine = vm.Machine
	// Profile carries first-use order, per-method dynamic counts, and
	// covered bytes.
	Profile = vm.Profile
	// Segment is one run of instructions between control transfers.
	Segment = vm.Segment
	// RunOptions configures Execute.
	RunOptions = vm.Options
)

// Prediction, restructuring, partitioning.
type (
	// Order is a predicted first-use permutation of methods.
	Order = reorder.Order
	// Layouts carries per-class stream offsets of a restructured
	// program.
	Layouts = restructure.Layouts
	// Partition is the per-method GlobalMethodData split.
	Partition = datapart.Partition
)

// Transfer and simulation.
type (
	// Link is a fixed-bandwidth network link in cycles per byte.
	Link = transfer.Link
	// Engine delivers class-file bytes against a cycle clock.
	Engine = transfer.Engine
	// Mode selects strict, non-strict, or partitioned availability.
	Mode = transfer.Mode
	// Schedule is the greedy parallel-transfer plan.
	Schedule = transfer.Schedule
	// Result is one simulation outcome.
	Result = sim.Result
)

// Benchmark access and the evaluation harness.
type (
	// App is one of the paper's six workloads.
	App = apps.App
	// Bench is a loaded, profiled, restructured workload ready to
	// simulate.
	Bench = experiments.Bench
	// Suite caches all six loaded workloads.
	Suite = experiments.Suite
	// Variant selects a simulated configuration.
	Variant = experiments.Variant
	// OrderKind selects the first-use predictor.
	OrderKind = experiments.OrderKind
	// EngineKind selects the transfer methodology.
	EngineKind = experiments.EngineKind
	// Runner fans simulation grids across a worker pool with
	// deterministic, serial-identical result collection.
	Runner = experiments.Runner
	// RunnerStats snapshots the counters a Runner accumulates.
	RunnerStats = experiments.RunnerStats
	// Cell is one benchmark × variant point of an evaluation grid.
	Cell = experiments.Cell
)

// Links from the paper: a T1 line and a 28.8K modem, expressed as cycles
// per byte on the 500 MHz processor model.
var (
	T1    = transfer.T1
	Modem = transfer.Modem
)

// Availability modes.
const (
	Strict      = transfer.Strict
	NonStrict   = transfer.NonStrict
	Partitioned = transfer.Partitioned
)

// First-use predictors.
const (
	SCG   = experiments.SCG
	Train = experiments.Train
	Test  = experiments.Test
)

// Transfer methodologies.
const (
	Sequential  = experiments.Sequential
	Parallel    = experiments.Parallel
	Interleaved = experiments.Interleaved
)

// Benchmarks returns the paper's six workloads in Table 1 order. Each
// App struct is the caller's own; the IR it points to is built once per
// process, shared by every caller, and read-only.
func Benchmarks() []*App { return apps.All() }

// Benchmark returns one workload by name (e.g. "Jess"): a fresh App
// struct around the shared, read-only IR, as for Benchmarks.
func Benchmark(name string) (*App, error) { return apps.ByName(name) }

// LoadBenchmark compiles, profiles, and prepares one workload for
// simulation under all three predictors.
func LoadBenchmark(name string) (*Bench, error) {
	app, err := apps.ByName(name)
	if err != nil {
		return nil, err
	}
	return experiments.Load(app)
}

// Execute links and runs a program in the VM.
func Execute(p *Program, opts RunOptions) (*Machine, error) {
	ln, err := vm.Link(p)
	if err != nil {
		return nil, err
	}
	return ln.Run(opts)
}

// Verify checks every class of p: structural and constant-pool checks
// plus per-method bytecode verification, as the non-strict loader would
// perform them incrementally.
func Verify(p *Program) error { return verify.VerifyProgram(p) }

// PredictStatic computes the static call-graph first-use order (§4.1).
func PredictStatic(p *Program) (*Order, *Index, error) {
	ix := p.IndexMethods()
	_, o, err := pipeline.Static(ix)
	if err != nil {
		return nil, nil, err
	}
	return o, ix, nil
}

// PredictFromProfile orders methods by observed first use, falling back
// to the static order for methods the profile never saw (§4.2).
func PredictFromProfile(ix *Index, prof *Profile, fallback *Order) *Order {
	return reorder.FromProfile(ix, prof.FirstUse, fallback)
}

// Restructure rewrites p's class files into the order's first-use
// sequence and returns the copy plus its stream layouts.
func Restructure(p *Program, ix *Index, o *Order) (*Program, *Layouts) {
	rp := restructure.Apply(p, ix, o)
	return rp, restructure.ComputeLayouts(rp)
}

// PartitionGlobals computes per-method GlobalMethodData for a
// restructured program (§7.3).
func PartitionGlobals(rp *Program) (*Partition, error) {
	pt, err := datapart.Compute(rp)
	if err != nil {
		return nil, err
	}
	if err := pt.Check(rp); err != nil {
		return nil, err
	}
	return pt, nil
}

// Simulate replays an execution trace against a transfer engine,
// charging cpi cycles per instruction.
func Simulate(trace []Segment, ix *Index, eng Engine, cpi int64) (Result, error) {
	return sim.Run(trace, ix, eng, cpi)
}

// Experiments is a fresh evaluation suite; its methods generate every
// table and figure of the paper.
func Experiments() *Suite { return &Suite{} }

// Streaming loader types: the non-strict class loader consumes an
// interleaved unit stream, verifying classes and methods as their bytes
// arrive (§3.1.1 + §5.2); cmd/nonstrict's fetch uses it over HTTP.
type (
	// StreamWriter emits a restructured program as an interleaved
	// virtual file.
	StreamWriter = stream.Writer
	// StreamLoader assembles and verifies a program from such a stream.
	StreamLoader = stream.Loader
	// StreamEvent is one loader progress notification.
	StreamEvent = stream.Event
	// FetchClient downloads streams over HTTP with per-request
	// timeouts, capped exponential backoff, and Range-based resume
	// after dropped connections.
	FetchClient = stream.FetchClient
	// FetchStats snapshots a FetchClient's transfer counters.
	FetchStats = stream.FetchStats
	// Fault injects a deterministic, seeded schedule of transport
	// failures into an HTTP handler — drops, latency, silent bit
	// corruption, mid-body stalls, truncation, garbage Range replies,
	// flaky unit tables — for tests, demos, and the chaos harness.
	Fault = stream.Fault
	// IntegrityStats counts per-unit checksum verification outcomes:
	// corrupt units seen, repair round trips, quarantined units.
	IntegrityStats = stream.IntegrityStats
)

// NewStreamWriter plans the interleaved stream of a restructured program.
func NewStreamWriter(rp *Program, ix *Index, o *Order) (*StreamWriter, error) {
	return stream.NewWriter(rp, ix, o)
}

// NewStreamLoader builds a non-strict loader for the named program.
func NewStreamLoader(name, mainClass string) *StreamLoader {
	return stream.NewLoader(name, mainClass, nil)
}

// Live overlapped execution: run a program while its stream arrives,
// blocking at a method-availability gate on first invocations and
// demand-fetching methods wanted out of predicted order (the measured
// counterpart of the simulator's overlap predictions).
type (
	// LiveOptions configures one overlapped run.
	LiveOptions = live.Options
	// LiveStats is the measured outcome: first-invocation latencies,
	// stall time, overlap, and demand-fetch counters.
	LiveStats = live.Stats
	// LiveWait records one first-invocation gate crossing.
	LiveWait = live.Wait
	// UnitInfo locates one stream unit for byte-range demand fetches.
	UnitInfo = stream.UnitInfo
)

// Observability: a low-overhead event recorder threaded through the
// transfer → loader → gate → VM pipeline, its Chrome trace-event
// export, and the stall-attribution report derived from a live run.
type (
	// Recorder is a fixed-capacity, concurrency-safe event ring. Hand
	// one to FetchClient.Obs and LiveOptions.Obs to capture a run.
	Recorder = obs.Recorder
	// ObsEvent is one recorded pipeline event.
	ObsEvent = obs.Event
	// ObsKind discriminates recorded event types.
	ObsKind = obs.Kind
	// TraceSummary is the parsed digest of an exported trace file.
	TraceSummary = obs.TraceSummary
	// Attribution decomposes one first-invocation latency into
	// execute / transfer-wait / repair-wait / gate-wait components that
	// sum to the latency exactly.
	Attribution = live.Attribution
	// MethodStall is one of the simulator's predicted first-use stalls,
	// the prediction an Attribution is compared against.
	MethodStall = sim.MethodStall
)

// NewRecorder returns a recorder holding up to capacity events
// (capacity <= 0 selects the default). Oldest events are dropped, and
// counted, once the ring fills.
func NewRecorder(capacity int) *Recorder { return obs.NewRecorder(capacity) }

// WriteTrace emits events as Chrome trace-event JSON, loadable in
// chrome://tracing or Perfetto.
func WriteTrace(w io.Writer, events []ObsEvent, dropped uint64) error {
	return obs.WriteTrace(w, events, dropped)
}

// ParseTrace reads a trace written by WriteTrace and summarizes it.
func ParseTrace(r io.Reader) (*TraceSummary, error) { return obs.ParseTrace(r) }

// ErrGateTimeout reports a first invocation whose method never became
// available within the gate deadline — the clean, diagnosable outcome
// of a transfer that hangs without ever failing.
var ErrGateTimeout = live.ErrGateTimeout

// DefaultGateTimeout is the availability-gate deadline used when
// LiveOptions.GateTimeout is zero.
const DefaultGateTimeout = live.DefaultGateTimeout

// RunLive executes the program served at opts.URL while it streams in.
func RunLive(ctx context.Context, opts LiveOptions) (*Machine, *LiveStats, error) {
	return live.Run(ctx, opts)
}
