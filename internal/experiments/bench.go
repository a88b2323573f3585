// Package experiments reproduces the paper's evaluation: one generator
// per table and figure (Tables 1–10, Figure 6), each driving the full
// pipeline — compile the workload, profile it in the VM, predict
// first-use orders (static call graph, train profile, test profile),
// restructure, partition, schedule, and co-simulate transfer with
// execution over the T1 and modem links.
//
// As in the paper, all simulation results replay the test input; the
// Train configuration differs only in which profile guided the
// restructuring and transfer schedule.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"nonstrict/internal/apps"
	"nonstrict/internal/classfile"
	"nonstrict/internal/datapart"
	"nonstrict/internal/pipeline"
	"nonstrict/internal/reorder"
	"nonstrict/internal/restructure"
	"nonstrict/internal/sim"
	"nonstrict/internal/transfer"
	"nonstrict/internal/vm"
)

// OrderKind selects the first-use predictor (paper §4).
type OrderKind int

const (
	SCG   OrderKind = iota // static call-graph estimation
	Train                  // profile from the train input
	Test                   // profile from the test input (perfect)
)

func (k OrderKind) String() string {
	switch k {
	case SCG:
		return "SCG"
	case Train:
		return "Train"
	case Test:
		return "Test"
	}
	return fmt.Sprintf("OrderKind(%d)", int(k))
}

// EngineKind selects the transfer methodology (paper §5).
type EngineKind int

const (
	Sequential  EngineKind = iota // one file at a time, in first-use order
	Parallel                      // scheduled parallel file transfer
	Interleaved                   // single virtual interleaved file
)

// Variant is one simulated configuration.
type Variant struct {
	Order  OrderKind
	Engine EngineKind
	Mode   transfer.Mode
	Limit  int // parallel concurrency cap; 0 = unlimited
	Link   transfer.Link
}

// prepared caches the restructured program and derived structures for
// one predictor order.
type prepared struct {
	order *reorder.Order
	prog  *classfile.Program
	lay   *restructure.Layouts
	part  *datapart.Partition
	// plan and partPlan are the virtual file's units without and with
	// part: every engine prices one of them.
	plan, partPlan []restructure.Unit
}

// Bench is one workload, fully measured and ready to simulate.
type Bench struct {
	App  *apps.App
	Prog *classfile.Program
	Ix   *classfile.Index

	TestProfile  *vm.Profile
	TrainProfile *vm.Profile
	TestTrace    []vm.Segment

	// TestMachine gives access to run results (for Table 2).
	TestMachine, TrainMachine *vm.Machine

	byOrder map[OrderKind]*prepared
}

// LoadCtx compiles, links, profiles (both inputs), and prepares all
// three predictor orders for one benchmark. Every pipeline stage checks
// ctx before it starts and abandons the load once ctx is done.
//
// The stages are the serving path's (pipeline.Build), so a served stream
// and a paper table derive an order from one definition. What the
// evaluation adds on top: the second profiled run, the segment trace of
// the test run, and the partition and layouts of each predictor's
// restructured program.
func LoadCtx(ctx context.Context, app *apps.App) (*Bench, error) {
	r, err := pipeline.Compile(ctx, app)
	if err != nil {
		return nil, err
	}
	if err := r.Link(ctx); err != nil {
		return nil, err
	}
	testM, err := r.Profile(ctx, false, true)
	if err != nil {
		return nil, err
	}
	trainM, err := r.Profile(ctx, true, false)
	if err != nil {
		return nil, err
	}
	if err := r.Static(ctx); err != nil {
		return nil, err
	}
	b := &Bench{
		App:          app,
		Prog:         r.Prog,
		Ix:           r.Ix,
		TestProfile:  testM.Profile(),
		TrainProfile: trainM.Profile(),
		TestTrace:    testM.Trace(),
		TestMachine:  testM,
		TrainMachine: trainM,
		byOrder:      make(map[OrderKind]*prepared, 3),
	}
	for kind, prof := range []*vm.Profile{SCG: nil, Train: b.TrainProfile, Test: b.TestProfile} {
		ord, err := r.Order(ctx, prof)
		if err != nil {
			return nil, err
		}
		rp, err := r.Restructure(ctx, ord)
		if err != nil {
			return nil, err
		}
		p, err := prepare(r.Ix, ord, rp)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s %v: %w", app.Name, OrderKind(kind), err)
		}
		b.byOrder[OrderKind(kind)] = p
	}
	return b, nil
}

// prepare derives what the transfer engines need from a restructured
// program: its data partition (checked), its layouts, and its plan with
// and without the partition.
func prepare(ix *classfile.Index, ord *reorder.Order, rp *classfile.Program) (*prepared, error) {
	part, err := datapart.Compute(rp)
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	if err := part.Check(rp); err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	plan, err := restructure.Plan(rp, ix, ord, nil)
	if err != nil {
		return nil, err
	}
	partPlan, err := restructure.Plan(rp, ix, ord, part)
	if err != nil {
		return nil, err
	}
	return &prepared{order: ord, prog: rp, lay: restructure.ComputeLayouts(rp), part: part, plan: plan, partPlan: partPlan}, nil
}

// Prepared exposes the restructured artifacts for one predictor.
func (b *Bench) Prepared(k OrderKind) (*reorder.Order, *classfile.Program, *restructure.Layouts, *datapart.Partition) {
	p := b.byOrder[k]
	return p.order, p.prog, p.lay, p.part
}

// covered returns the profiled unique executed code bytes used by the
// transfer schedule, or nil for the static variant.
func (b *Bench) covered(k OrderKind) []int {
	switch k {
	case Train:
		return b.TrainProfile.CoveredBytes
	case Test:
		return b.TestProfile.CoveredBytes
	default:
		return nil
	}
}

// TestInstrs is the dynamic instruction count of the test input.
func (b *Bench) TestInstrs() int64 { return b.TestProfile.TotalInstrs }

// ExecCycles is the pure execution time of the test input.
func (b *Bench) ExecCycles() int64 { return b.TestInstrs() * b.App.CPI }

// StrictTotal is the paper's baseline: full transfer followed by full
// execution, with no overlap (Table 3).
func (b *Bench) StrictTotal(link transfer.Link) int64 {
	_, total := sim.StrictBaseline(b.Prog.TotalSize(), b.TestInstrs(), b.App.CPI, link)
	return total
}

// TransferCycles is the time to transfer the whole program.
func (b *Bench) TransferCycles(link transfer.Link) int64 {
	tr, _ := sim.StrictBaseline(b.Prog.TotalSize(), b.TestInstrs(), b.App.CPI, link)
	return tr
}

// Simulate runs one configuration against the test trace.
func (b *Bench) Simulate(v Variant) (sim.Result, error) {
	return b.SimulateCtx(context.Background(), v)
}

// SimulateCtx is Simulate with cancellation. A Bench is safe for
// concurrent SimulateCtx calls: every call builds its own engine and the
// prepared artifacts are read-only after Load.
func (b *Bench) SimulateCtx(ctx context.Context, v Variant) (sim.Result, error) {
	p, ok := b.byOrder[v.Order]
	if !ok {
		return sim.Result{}, fmt.Errorf("experiments: unknown order %v", v.Order)
	}
	return b.simulate(ctx, p, b.covered(v.Order), v)
}

// prepareOrder builds the restructured artifacts for an arbitrary
// first-use order (used by the ablation studies).
func (b *Bench) prepareOrder(ord *reorder.Order) (*prepared, error) {
	if err := ord.Validate(b.Ix); err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", b.App.Name, err)
	}
	p, err := prepare(b.Ix, ord, restructure.Apply(b.Prog, b.Ix, ord))
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", b.App.Name, err)
	}
	return p, nil
}

// SimulateOrder runs one configuration under an explicit first-use order
// (v.Order is ignored). covered may carry profiled unique bytes for the
// transfer schedule, or nil for static estimates.
func (b *Bench) SimulateOrder(ord *reorder.Order, covered []int, v Variant) (sim.Result, error) {
	p, err := b.prepareOrder(ord)
	if err != nil {
		return sim.Result{}, err
	}
	return b.simulate(context.Background(), p, covered, v)
}

func (b *Bench) simulate(ctx context.Context, p *prepared, covered []int, v Variant) (sim.Result, error) {
	plan := p.plan
	if v.Mode == transfer.Partitioned {
		plan = p.partPlan
	}
	files, err := transfer.BuildFiles(p.prog, plan, v.Mode)
	if err != nil {
		return sim.Result{}, err
	}
	var eng transfer.Engine
	switch v.Engine {
	case Sequential:
		eng, err = transfer.NewSequential(p.order.ClassOrder(b.Ix), files, v.Link)
	case Parallel:
		var sched *transfer.Schedule
		sched, err = transfer.BuildSchedule(p.order, b.Ix, files, plan, covered)
		if err == nil {
			eng, err = transfer.NewParallel(sched, files, v.Link, v.Limit)
		}
	case Interleaved:
		eng = transfer.NewInterleaved(plan, v.Link)
	default:
		err = fmt.Errorf("experiments: unknown engine %d", v.Engine)
	}
	if err != nil {
		return sim.Result{}, err
	}
	return sim.RunContext(ctx, b.TestTrace, b.Ix, eng, b.App.CPI)
}

// Normalized returns the percent-of-strict execution time for one
// configuration (Tables 5–7 and 10 report this number).
func (b *Bench) Normalized(v Variant) (float64, error) {
	res, err := b.Simulate(v)
	if err != nil {
		return 0, err
	}
	return 100 * float64(res.TotalCycles) / float64(b.StrictTotal(v.Link)), nil
}

// Suite loads every benchmark once and caches it. The zero value is
// ready to use; loads and grid evaluations fan out across the embedded
// runner's worker pool (GOMAXPROCS workers by default).
type Suite struct {
	mu      sync.Mutex
	loaded  bool
	benches []*Bench
	err     error
	runner  Runner
}

// SetWorkers caps the evaluation pool: 0 means GOMAXPROCS, 1 forces the
// serial path. Call before the first table generation.
func (s *Suite) SetWorkers(n int) { s.runner.Workers = n }

// RunnerStats snapshots the counters accumulated across every simulation
// the suite has run.
func (s *Suite) RunnerStats() RunnerStats { return s.runner.Stats() }

// Benches returns all six workloads, loading them on first use.
func (s *Suite) Benches() ([]*Bench, error) {
	return s.BenchesCtx(context.Background())
}

// BenchesCtx loads the workloads in parallel across the suite's worker
// pool, collecting them in Table 1 order. A canceled load does not latch:
// a later call with a live ctx retries.
func (s *Suite) BenchesCtx(ctx context.Context) ([]*Bench, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.loaded {
		return s.benches, s.err
	}
	all := apps.All()
	out := make([]*Bench, len(all))
	err := s.runner.ForEach(ctx, len(all), func(ctx context.Context, i int) error {
		b, err := LoadCtx(ctx, all[i])
		if err != nil {
			return err
		}
		out[i] = b
		return nil
	})
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return nil, err
	}
	s.loaded = true
	if err != nil {
		s.err = err
		return nil, err
	}
	s.benches = out
	return s.benches, nil
}

// Bench returns one workload by name.
func (s *Suite) Bench(name string) (*Bench, error) {
	bs, err := s.Benches()
	if err != nil {
		return nil, err
	}
	for _, b := range bs {
		if b.App.Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown benchmark %q", name)
}
