package sim

import (
	"math"
	"strings"
	"testing"

	"nonstrict/internal/cfg"
	"nonstrict/internal/classfile"
	"nonstrict/internal/datapart"
	"nonstrict/internal/jir"
	"nonstrict/internal/reorder"
	"nonstrict/internal/restructure"
	"nonstrict/internal/transfer"
	"nonstrict/internal/vm"
)

// fakeEngine serves canned availability times.
type fakeEngine struct {
	avail   map[classfile.Ref]int64
	demands []classfile.Ref
}

func (f *fakeEngine) Demand(m classfile.Ref, now int64) int64 {
	f.demands = append(f.demands, m)
	if t, ok := f.avail[m]; ok && t > now {
		return t
	}
	return now
}
func (f *fakeEngine) Mispredicts() int { return 0 }

func fixture(t *testing.T) (*classfile.Program, *classfile.Index, []vm.Segment) {
	t.Helper()
	p := &jir.Program{Name: "sx", Main: "M", Classes: []*jir.Class{
		{Name: "M", Fields: []string{"out"}, Funcs: []*jir.Func{
			{Name: "main", Body: jir.Block(
				jir.Let("s", jir.I(0)),
				jir.For(jir.Let("i", jir.I(0)), jir.Lt(jir.L("i"), jir.I(5)), jir.Inc("i"), jir.Block(
					jir.Let("s", jir.Add(jir.L("s"), jir.Call("M", "f", jir.L("i")))),
				)),
				jir.SetG("M", "out", jir.L("s")),
				jir.Halt(),
			)},
			{Name: "f", Params: []string{"x"}, NRet: 1, Body: jir.Block(
				jir.Ret(jir.Mul(jir.L("x"), jir.I(2))),
			)},
		}},
	}}
	cp, err := jir.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := vm.Link(cp)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ln.Run(vm.Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	return cp, ln.Index(), m.Trace()
}

func TestRunAccounting(t *testing.T) {
	_, ix, trace := fixture(t)
	mainRef := classfile.Ref{Class: "M", Name: "main"}
	fRef := classfile.Ref{Class: "M", Name: "f"}

	eng := &fakeEngine{avail: map[classfile.Ref]int64{mainRef: 1000}}
	const cpi = 7
	res, err := Run(trace, ix, eng, cpi)
	if err != nil {
		t.Fatal(err)
	}
	if res.InvocationLatency != 1000 {
		t.Errorf("invocation latency %d, want 1000", res.InvocationLatency)
	}
	var instrs int64
	for _, s := range trace {
		instrs += s.N
	}
	if res.ExecCycles != instrs*cpi {
		t.Errorf("exec cycles %d, want %d", res.ExecCycles, instrs*cpi)
	}
	// f became available while main executed, so the only stall is the
	// initial one.
	if res.StallCycles != 1000 || res.StallEvents != 1 {
		t.Errorf("stalls = %d cycles / %d events, want 1000 / 1", res.StallCycles, res.StallEvents)
	}
	if res.TotalCycles != res.ExecCycles+res.StallCycles {
		t.Errorf("total %d != exec %d + stall %d", res.TotalCycles, res.ExecCycles, res.StallCycles)
	}
	// Each method is demanded exactly once.
	counts := map[classfile.Ref]int{}
	for _, d := range eng.demands {
		counts[d]++
	}
	if counts[mainRef] != 1 || counts[fRef] != 1 {
		t.Errorf("demand counts = %v", counts)
	}
}

func TestRunMidExecutionStall(t *testing.T) {
	_, ix, trace := fixture(t)
	fRef := classfile.Ref{Class: "M", Name: "f"}
	// f arrives very late: the stall is charged when f is first called.
	eng := &fakeEngine{avail: map[classfile.Ref]int64{fRef: 500000}}
	res, err := Run(trace, ix, eng, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.InvocationLatency != 0 {
		t.Errorf("latency %d, want 0", res.InvocationLatency)
	}
	if res.StallEvents != 1 || res.StallCycles == 0 {
		t.Errorf("stalls = %d/%d", res.StallEvents, res.StallCycles)
	}
	if res.TotalCycles != res.ExecCycles+res.StallCycles {
		t.Error("accounting identity broken")
	}
	if res.Overlap() <= 0 || res.Overlap() >= 1 {
		t.Errorf("overlap = %v", res.Overlap())
	}
}

func TestRunErrors(t *testing.T) {
	_, ix, trace := fixture(t)
	if _, err := Run(nil, ix, &fakeEngine{}, 1); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := Run(trace, ix, &fakeEngine{}, 0); err == nil {
		t.Error("zero CPI accepted")
	}
	bad := []vm.Segment{{M: 99, N: 5}}
	if _, err := Run(bad, ix, &fakeEngine{}, 1); err == nil {
		t.Error("out-of-range method accepted")
	}
}

func TestStrictBaseline(t *testing.T) {
	tr, total := StrictBaseline(1000, 500, 10, transfer.Link{Name: "t", CyclesPerByte: 100})
	if tr != 100000 {
		t.Errorf("transfer = %d", tr)
	}
	if total != 100000+5000 {
		t.Errorf("total = %d", total)
	}
}

// TestEndToEndOrdering runs the full pipeline on a real program and
// verifies the paper's qualitative claims on this instance:
// non-strict < strict, partitioned <= non-strict, interleaved competitive
// with parallel, invocation latency reduced.
func TestEndToEndOrdering(t *testing.T) {
	cp, ix, trace := fixture(t)
	gs, err := cfg.BuildAll(ix)
	if err != nil {
		t.Fatal(err)
	}
	order, err := reorder.Static(ix, gs)
	if err != nil {
		t.Fatal(err)
	}
	rp := restructure.Apply(cp, ix, order)
	part, err := datapart.Compute(rp)
	if err != nil {
		t.Fatal(err)
	}
	link := transfer.Link{Name: "t", CyclesPerByte: 500}
	const cpi = 3

	run := func(mode transfer.Mode, pt *datapart.Partition, engine string) Result {
		plan, err := restructure.Plan(rp, ix, order, pt)
		if err != nil {
			t.Fatal(err)
		}
		files, err := transfer.BuildFiles(rp, plan, mode)
		if err != nil {
			t.Fatal(err)
		}
		var eng transfer.Engine
		switch engine {
		case "seq":
			eng, err = transfer.NewSequential(order.ClassOrder(ix), files, link)
		case "par":
			var sched *transfer.Schedule
			sched, err = transfer.BuildSchedule(order, ix, files, plan, nil)
			if err == nil {
				eng, err = transfer.NewParallel(sched, files, link, 4)
			}
		case "ilv":
			eng = transfer.NewInterleaved(plan, link)
		}
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(trace, ix, eng, cpi)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	var instrs int64
	for _, s := range trace {
		instrs += s.N
	}
	_, strictTotal := StrictBaseline(rp.TotalSize(), instrs, cpi, link)

	strictSeq := run(transfer.Strict, nil, "seq")
	ns := run(transfer.NonStrict, nil, "seq")
	nsPar := run(transfer.NonStrict, nil, "par")
	nsIlv := run(transfer.NonStrict, nil, "ilv")
	dpIlv := run(transfer.Partitioned, part, "ilv")

	if strictSeq.TotalCycles > strictTotal {
		t.Errorf("overlapped strict %d exceeds serial baseline %d", strictSeq.TotalCycles, strictTotal)
	}
	if ns.TotalCycles > strictSeq.TotalCycles {
		t.Errorf("non-strict %d worse than strict %d", ns.TotalCycles, strictSeq.TotalCycles)
	}
	if ns.InvocationLatency >= strictSeq.InvocationLatency {
		t.Errorf("non-strict latency %d not below strict %d", ns.InvocationLatency, strictSeq.InvocationLatency)
	}
	if dpIlv.TotalCycles > nsIlv.TotalCycles {
		t.Errorf("partitioned interleaved %d worse than whole-pool %d", dpIlv.TotalCycles, nsIlv.TotalCycles)
	}
	for _, r := range []Result{strictSeq, ns, nsPar, nsIlv, dpIlv} {
		if r.TotalCycles != r.ExecCycles+r.StallCycles {
			t.Errorf("accounting identity broken: %+v", r)
		}
		if r.TotalCycles > strictTotal {
			t.Errorf("config total %d exceeds strict baseline %d", r.TotalCycles, strictTotal)
		}
	}
}

func TestRunRejectsTimeTravel(t *testing.T) {
	_, ix, trace := fixture(t)
	eng := &timeTravelEngine{}
	_, err := Run(trace, ix, eng, 1)
	if err == nil || !strings.Contains(err.Error(), "before now") {
		t.Fatalf("err = %v", err)
	}
}

type timeTravelEngine struct{ calls int }

func (e *timeTravelEngine) Demand(m classfile.Ref, now int64) int64 {
	e.calls++
	if e.calls > 1 {
		return now - 10
	}
	return now
}
func (e *timeTravelEngine) Mispredicts() int { return 0 }

// TestStallRecords: the per-method stall list must agree with the
// aggregate counters — same event count, cycles summing to StallCycles,
// in execution order, and the first record matching the invocation
// latency when main stalled at cycle zero.
func TestStallRecords(t *testing.T) {
	_, ix, trace := fixture(t)
	mainRef := classfile.Ref{Class: "M", Name: "main"}
	fRef := classfile.Ref{Class: "M", Name: "f"}
	eng := &fakeEngine{avail: map[classfile.Ref]int64{mainRef: 1000, fRef: 5000}}
	res, err := Run(trace, ix, eng, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.StallEvents != 2 {
		t.Fatalf("StallEvents = %d, want 2 (main and f both late)", res.StallEvents)
	}
	if len(res.Stalls) != res.StallEvents {
		t.Fatalf("len(Stalls) = %d, want StallEvents %d", len(res.Stalls), res.StallEvents)
	}
	var sum int64
	for i, s := range res.Stalls {
		if s.Cycles <= 0 {
			t.Fatalf("stall %d for %v has non-positive length %d", i, s.Method, s.Cycles)
		}
		if i > 0 && s.AtCycle < res.Stalls[i-1].AtCycle {
			t.Fatalf("stalls out of order: %d at %d after %d", i, s.AtCycle, res.Stalls[i-1].AtCycle)
		}
		sum += s.Cycles
	}
	if sum != res.StallCycles {
		t.Fatalf("stall records sum to %d cycles, want StallCycles %d", sum, res.StallCycles)
	}
	first := res.Stalls[0]
	if first.Method != mainRef || first.AtCycle != 0 || first.Cycles != res.InvocationLatency {
		t.Fatalf("first stall %+v, want main stalling %d cycles at 0", first, res.InvocationLatency)
	}
	if res.Stalls[1].Method != fRef {
		t.Fatalf("second stall names %v, want %v", res.Stalls[1].Method, fRef)
	}
}

// TestOverlapClamped mirrors the live-side fix: a degenerate Result
// must report a fraction, never NaN/Inf or a value outside [0, 1].
func TestOverlapClamped(t *testing.T) {
	cases := []struct {
		r    Result
		want float64
	}{
		{Result{}, 0},
		{Result{TotalCycles: 10, StallCycles: 20}, 0},
		{Result{TotalCycles: -5, StallCycles: 1}, 0},
		{Result{TotalCycles: 10, StallCycles: -1}, 1},
		{Result{TotalCycles: 10, StallCycles: 5}, 0.5},
	}
	for _, c := range cases {
		if got := c.r.Overlap(); got != c.want ||
			math.IsNaN(got) || math.IsInf(got, 0) {
			t.Errorf("Overlap(%+v) = %v, want %v", c.r, got, c.want)
		}
	}
}
