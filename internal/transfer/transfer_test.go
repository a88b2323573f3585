package transfer

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"nonstrict/internal/cfg"
	"nonstrict/internal/classfile"
	"nonstrict/internal/datapart"
	"nonstrict/internal/jir"
	"nonstrict/internal/reorder"
	"nonstrict/internal/restructure"
)

func ref(c, m string) classfile.Ref { return classfile.Ref{Class: c, Name: m} }

// --- Engine unit tests on hand-built files -------------------------------

func twoFiles() map[string]*File {
	return map[string]*File{
		"A": {Name: "A", Size: 1000, Avail: map[classfile.Ref]int{ref("A", "m"): 1000, ref("A", "half"): 500}},
		"B": {Name: "B", Size: 1000, Avail: map[classfile.Ref]int{ref("B", "m"): 1000}},
	}
}

func TestSequentialEngine(t *testing.T) {
	files := twoFiles()
	link := Link{Name: "test", CyclesPerByte: 10}
	e, err := NewSequential([]string{"A", "B"}, files, link)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Demand(ref("A", "half"), 0); got != 5000 {
		t.Errorf("A.half at %d, want 5000", got)
	}
	if got := e.Demand(ref("A", "m"), 0); got != 10000 {
		t.Errorf("A.m at %d, want 10000", got)
	}
	if got := e.Demand(ref("B", "m"), 0); got != 20000 {
		t.Errorf("B.m at %d, want 20000", got)
	}
	// now dominates when past availability.
	if got := e.Demand(ref("A", "m"), 99999); got != 99999 {
		t.Errorf("Demand with later now = %d", got)
	}
	if e.Mispredicts() != 0 {
		t.Errorf("sequential mispredicts = %d", e.Mispredicts())
	}
}

func TestSequentialValidation(t *testing.T) {
	files := twoFiles()
	if _, err := NewSequential([]string{"A"}, files, T1); err == nil {
		t.Error("short class order accepted")
	}
	if _, err := NewSequential([]string{"A", "Z"}, files, T1); err == nil {
		t.Error("unknown class accepted")
	}
}

func TestParallelSingleFile(t *testing.T) {
	files := map[string]*File{
		"A": {Name: "A", Size: 1000, Avail: map[classfile.Ref]int{ref("A", "m"): 600}},
	}
	sched := &Schedule{ClassOrder: []string{"A"}, Deps: map[string][]Dep{}}
	e, err := NewParallel(sched, files, Link{Name: "t", CyclesPerByte: 10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Demand(ref("A", "m"), 0); got != 6000 {
		t.Errorf("avail at %d, want 6000", got)
	}
}

func TestParallelBandwidthSharing(t *testing.T) {
	// A and B both start at 0 and split bandwidth; each 1000 bytes at
	// 10 cycles/byte shared two ways finishes at 20000.
	files := twoFiles()
	sched := &Schedule{ClassOrder: []string{"A", "B"}, Deps: map[string][]Dep{}}
	e, err := NewParallel(sched, files, Link{Name: "t", CyclesPerByte: 10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Active() != 2 {
		t.Fatalf("active = %d, want 2", e.Active())
	}
	if got := e.Demand(ref("B", "m"), 0); got != 20000 {
		t.Errorf("B.m at %d, want 20000", got)
	}
}

func TestParallelDepTrigger(t *testing.T) {
	// B starts when A has delivered 500 bytes (at cycle 5000). Then the
	// two share bandwidth: A finishes its remaining 500 at 15000; B has
	// 500 by then and finishes the rest alone at 20000.
	files := twoFiles()
	sched := &Schedule{
		ClassOrder: []string{"A", "B"},
		Deps:       map[string][]Dep{"B": {{Class: "A", Bytes: 500}}},
	}
	e, err := NewParallel(sched, files, Link{Name: "t", CyclesPerByte: 10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Active() != 1 {
		t.Fatalf("active at start = %d, want 1 (only A)", e.Active())
	}
	if got := e.Demand(ref("A", "m"), 0); got != 15000 {
		t.Errorf("A.m at %d, want 15000", got)
	}
	if got := e.Demand(ref("B", "m"), 15000); got != 20000 {
		t.Errorf("B.m at %d, want 20000", got)
	}
	if e.Mispredicts() != 0 {
		t.Errorf("mispredicts = %d (schedule covered everything)", e.Mispredicts())
	}
}

func TestParallelLimitAndDemandQueue(t *testing.T) {
	files := map[string]*File{
		"X": {Name: "X", Size: 100, Avail: map[classfile.Ref]int{ref("X", "m"): 100}},
		"Y": {Name: "Y", Size: 100, Avail: map[classfile.Ref]int{ref("Y", "m"): 100}},
		"Z": {Name: "Z", Size: 100, Avail: map[classfile.Ref]int{ref("Z", "m"): 100}},
	}
	sched := &Schedule{ClassOrder: []string{"X", "Y", "Z"}, Deps: map[string][]Dep{}}
	e, err := NewParallel(sched, files, Link{Name: "t", CyclesPerByte: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e.Active() != 1 {
		t.Fatalf("active = %d, want 1 under limit 1", e.Active())
	}
	// Demanding Z while X transfers is a misprediction; Z queues ahead
	// of Y and transfers second.
	if got := e.Demand(ref("Z", "m"), 0); got != 200 {
		t.Errorf("Z.m at %d, want 200", got)
	}
	if e.Mispredicts() != 1 {
		t.Errorf("mispredicts = %d, want 1", e.Mispredicts())
	}
	// Y is displaced to third.
	if got := e.Demand(ref("Y", "m"), 200); got != 300 {
		t.Errorf("Y.m at %d, want 300", got)
	}
}

func TestParallelDemandStartsWhenSlotFree(t *testing.T) {
	files := map[string]*File{
		"X": {Name: "X", Size: 100, Avail: map[classfile.Ref]int{ref("X", "m"): 100}},
		"W": {Name: "W", Size: 100, Avail: map[classfile.Ref]int{ref("W", "m"): 100}},
	}
	// W has an impossible-to-predict start (depends on all of X).
	sched := &Schedule{
		ClassOrder: []string{"X", "W"},
		Deps:       map[string][]Dep{"W": {{Class: "X", Bytes: 100}}},
	}
	e, err := NewParallel(sched, files, Link{Name: "t", CyclesPerByte: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Demand W immediately: slot free, so it starts now (mispredict) and
	// shares bandwidth with X: both finish at 200.
	if got := e.Demand(ref("W", "m"), 0); got != 200 {
		t.Errorf("W.m at %d, want 200", got)
	}
	if e.Mispredicts() != 1 {
		t.Errorf("mispredicts = %d, want 1", e.Mispredicts())
	}
}

func TestParallelNonStrictOffsets(t *testing.T) {
	// A method in the middle of a file becomes available before the
	// file completes.
	files := map[string]*File{
		"A": {Name: "A", Size: 1000, Avail: map[classfile.Ref]int{
			ref("A", "early"): 100,
			ref("A", "late"):  1000,
		}},
	}
	sched := &Schedule{ClassOrder: []string{"A"}, Deps: map[string][]Dep{}}
	e, err := NewParallel(sched, files, Link{Name: "t", CyclesPerByte: 10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Demand(ref("A", "early"), 0); got != 1000 {
		t.Errorf("early at %d, want 1000", got)
	}
	if got := e.Demand(ref("A", "late"), 5000); got != 10000 {
		t.Errorf("late at %d, want 10000", got)
	}
}

func TestParallelDemandAfterAvailable(t *testing.T) {
	files := map[string]*File{
		"A": {Name: "A", Size: 100, Avail: map[classfile.Ref]int{ref("A", "m"): 100}},
	}
	sched := &Schedule{ClassOrder: []string{"A"}, Deps: map[string][]Dep{}}
	e, _ := NewParallel(sched, files, Link{Name: "t", CyclesPerByte: 1}, 0)
	if got := e.Demand(ref("A", "m"), 500); got != 500 {
		t.Errorf("Demand past availability = %d, want 500 (no stall)", got)
	}
}

// --- Pipeline-level tests -------------------------------------------------

type pipeline struct {
	prog  *classfile.Program // restructured
	ix    *classfile.Index
	order *reorder.Order
	lay   *restructure.Layouts
	// plan and partPlan are restructure.Plan without and with part.
	plan, partPlan []restructure.Unit
}

func buildPipeline(t *testing.T) *pipeline {
	t.Helper()
	p := &jir.Program{Name: "pl", Main: "M", Classes: []*jir.Class{
		{Name: "M", Fields: []string{"out"}, Funcs: []*jir.Func{
			{Name: "late", Body: jir.Block(
				jir.Let("s", jir.Str("constants private to the late method, deferrable via GMD")),
				jir.RetV(),
			), LocalData: 40},
			{Name: "main", Body: jir.Block(
				jir.Do(jir.Call("A", "work", jir.I(3))),
				jir.Do(jir.Call("M", "late")),
				jir.SetG("M", "out", jir.I(1)),
				jir.Halt(),
			), LocalData: 25},
		}},
		{Name: "A", Funcs: []*jir.Func{
			{Name: "work", Params: []string{"n"}, Body: jir.Block(
				jir.For(jir.Let("i", jir.I(0)), jir.Lt(jir.L("i"), jir.L("n")), jir.Inc("i"), jir.Block(
					jir.Do(jir.Call("A", "inner", jir.L("i"))),
				)),
				jir.RetV(),
			), LocalData: 30},
			{Name: "inner", Params: []string{"x"}, Body: jir.Block(jir.RetV()), LocalData: 10},
		}},
	}}
	cp, err := jir.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	ix := cp.IndexMethods()
	gs, err := cfg.BuildAll(ix)
	if err != nil {
		t.Fatal(err)
	}
	o, err := reorder.Static(ix, gs)
	if err != nil {
		t.Fatal(err)
	}
	rp := restructure.Apply(cp, ix, o)
	part, err := datapart.Compute(rp)
	if err != nil {
		t.Fatal(err)
	}
	if err := part.Check(rp); err != nil {
		t.Fatal(err)
	}
	plan, err := restructure.Plan(rp, ix, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	partPlan, err := restructure.Plan(rp, ix, o, part)
	if err != nil {
		t.Fatal(err)
	}
	return &pipeline{prog: rp, ix: ix, order: o, lay: restructure.ComputeLayouts(rp), plan: plan, partPlan: partPlan}
}

func TestBuildFilesModes(t *testing.T) {
	pl := buildPipeline(t)

	strict, err := BuildFiles(pl.prog, pl.plan, Strict)
	if err != nil {
		t.Fatal(err)
	}
	nonstrict, err := BuildFiles(pl.prog, pl.plan, NonStrict)
	if err != nil {
		t.Fatal(err)
	}
	parted, err := BuildFiles(pl.prog, pl.partPlan, Partitioned)
	if err != nil {
		t.Fatal(err)
	}

	for cls, sf := range strict {
		nf, pf := nonstrict[cls], parted[cls]
		if sf.Size != nf.Size || sf.Size != pf.Size {
			t.Errorf("class %s sizes differ: %d/%d/%d", cls, sf.Size, nf.Size, pf.Size)
		}
		for r, sA := range sf.Avail {
			if sA != sf.Size {
				t.Errorf("strict avail of %v = %d, want file size %d", r, sA, sf.Size)
			}
			if nf.Avail[r] > sA {
				t.Errorf("non-strict avail of %v (%d) exceeds strict (%d)", r, nf.Avail[r], sA)
			}
			if pf.Avail[r] > nf.Avail[r] {
				t.Errorf("partitioned avail of %v (%d) exceeds non-strict (%d)", r, pf.Avail[r], nf.Avail[r])
			}
		}
	}

	// Partitioned first method beats non-strict when unused or
	// later-method globals exist.
	mainRef := ref("M", "main")
	if parted["M"].Avail[mainRef] >= nonstrict["M"].Avail[mainRef] {
		t.Errorf("partitioned main avail %d not below non-strict %d",
			parted["M"].Avail[mainRef], nonstrict["M"].Avail[mainRef])
	}

	if _, err := BuildFiles(pl.prog, pl.plan, Partitioned); err == nil {
		t.Error("Partitioned without partition accepted")
	}
	if _, err := BuildFiles(pl.prog, pl.partPlan, NonStrict); err == nil {
		t.Error("NonStrict over a partitioned plan accepted")
	}
}

func TestBuildSchedule(t *testing.T) {
	pl := buildPipeline(t)
	files, err := BuildFiles(pl.prog, pl.plan, NonStrict)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := BuildSchedule(pl.order, pl.ix, files, pl.plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sched.ClassOrder[0] != "M" {
		t.Errorf("first class %q, want M", sched.ClassOrder[0])
	}
	if len(sched.Deps["M"]) != 0 {
		t.Errorf("main class has deps %v", sched.Deps["M"])
	}
	deps := sched.Deps["A"]
	if len(deps) != 1 || deps[0].Class != "M" {
		t.Fatalf("A deps = %v, want one dep on M", deps)
	}
	// A's trigger: M's bytes consumed before A.work first runs — the
	// global data plus main's body (main is M's only method ranked
	// before A.work).
	want := pl.lay.GlobalEnd["M"] + pl.lay.BodySize[ref("M", "main")]
	if deps[0].Bytes != want {
		t.Errorf("A trigger = %d bytes, want %d", deps[0].Bytes, want)
	}
	// Thresholds never exceed the dependency's file size.
	for cls, ds := range sched.Deps {
		for _, d := range ds {
			if d.Bytes > files[d.Class].Size {
				t.Errorf("class %s trigger on %s of %d exceeds size %d",
					cls, d.Class, d.Bytes, files[d.Class].Size)
			}
		}
	}
}

func TestBuildScheduleWithCoverage(t *testing.T) {
	pl := buildPipeline(t)
	files, err := BuildFiles(pl.prog, pl.plan, NonStrict)
	if err != nil {
		t.Fatal(err)
	}
	// Pretend profiling saw only half of each method's code bytes.
	covered := make([]int, pl.ix.Len())
	for id := range covered {
		covered[id] = len(pl.ix.Method(classfile.MethodID(id)).Code) / 2
	}
	static, err := BuildSchedule(pl.order, pl.ix, files, pl.plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := BuildSchedule(pl.order, pl.ix, files, pl.plan, covered)
	if err != nil {
		t.Fatal(err)
	}
	// Profiled unique bytes are smaller, so triggers fire earlier.
	sB, pB := static.Deps["A"][0].Bytes, prof.Deps["A"][0].Bytes
	if pB >= sB {
		t.Errorf("profiled trigger %d not below static %d", pB, sB)
	}
}

func TestInterleavedEngine(t *testing.T) {
	pl := buildPipeline(t)
	link := Link{Name: "t", CyclesPerByte: 100}
	e := NewInterleaved(pl.plan, link)

	// main is the first unit after its class's global data.
	mainRef := ref("M", "main")
	want := int64(pl.lay.GlobalEnd["M"]+pl.lay.BodySize[mainRef]) * link.CyclesPerByte
	if got := e.Demand(mainRef, 0); got != want {
		t.Errorf("main at %d, want %d", got, want)
	}

	// Availability respects the global first-use order, and every
	// class's global data precedes its first method.
	var prev int64
	for _, id := range pl.order.Methods {
		r := pl.ix.Ref(id)
		at := e.Demand(r, 0)
		if at < prev {
			t.Errorf("%v available at %d, before preceding method at %d", r, at, prev)
		}
		prev = at
	}

	// M.late is used after class A's methods; interleaving must place it
	// after A.work even though it lives in the first class file.
	late := e.Demand(ref("M", "late"), 0)
	work := e.Demand(ref("A", "work"), 0)
	if late <= work {
		t.Errorf("M.late at %d not after A.work at %d", late, work)
	}
}

func TestInterleavedPartitionedBeatsWhole(t *testing.T) {
	pl := buildPipeline(t)
	link := Link{Name: "t", CyclesPerByte: 100}
	whole := NewInterleaved(pl.plan, link)
	parted := NewInterleaved(pl.partPlan, link)
	for _, id := range pl.order.Methods {
		r := pl.ix.Ref(id)
		if parted.Demand(r, 0) > whole.Demand(r, 0) {
			t.Errorf("%v: partitioned avail %d exceeds whole-pool %d",
				r, parted.Demand(r, 0), whole.Demand(r, 0))
		}
	}
}

func TestModeString(t *testing.T) {
	if Strict.String() != "strict" || NonStrict.String() != "non-strict" || Partitioned.String() != "partitioned" {
		t.Error("mode names wrong")
	}
}

// TestParallelLimitOneMatchesSequential: with one connection, no
// dependencies, and the same order, the parallel engine must behave
// exactly like the sequential engine — a cross-engine consistency
// property checked on randomized file sets.
func TestParallelLimitOneMatchesSequential(t *testing.T) {
	f := func(seed int64, nFiles uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nFiles)%6 + 2
		files := make(map[string]*File, n)
		var order []string
		var refs []classfile.Ref
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("C%d", i)
			size := r.Intn(5000) + 100
			fl := &File{Name: name, Size: size, Avail: map[classfile.Ref]int{}}
			for m := 0; m <= r.Intn(4); m++ {
				off := r.Intn(size) + 1
				rf := classfile.Ref{Class: name, Name: fmt.Sprintf("m%d", m)}
				fl.Avail[rf] = off
				refs = append(refs, rf)
			}
			files[name] = fl
			order = append(order, name)
		}
		link := Link{Name: "t", CyclesPerByte: int64(r.Intn(1000) + 1)}

		seq, err := NewSequential(order, files, link)
		if err != nil {
			t.Log(err)
			return false
		}
		sched := &Schedule{ClassOrder: order, Deps: map[string][]Dep{}}
		par, err := NewParallel(sched, files, link, 1)
		if err != nil {
			t.Log(err)
			return false
		}
		// Demand in a global order consistent with file order: class by
		// class (the sequential engine transfers in that order anyway).
		var now int64
		for _, rf := range refs {
			a := seq.Demand(rf, now)
			b := par.Demand(rf, now)
			if a != b {
				t.Logf("seed %d: %v: sequential %d, parallel-1 %d", seed, rf, a, b)
				return false
			}
			now = a
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestInterleavedMonotoneInOffsets: availability respects stream order
// for any link speed.
func TestInterleavedMonotone(t *testing.T) {
	pl := buildPipeline(t)
	f := func(cpbRaw uint32) bool {
		cpb := int64(cpbRaw%1000000) + 1
		link := Link{Name: "q", CyclesPerByte: cpb}
		e := NewInterleaved(pl.plan, link)
		var prev int64
		for _, id := range pl.order.Methods {
			at := e.Demand(pl.ix.Ref(id), 0)
			if at < prev {
				return false
			}
			prev = at
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestParallelDemandUnknownRef is the regression test for the panic on
// a method ref no schedule or file claims: the engine must degrade
// conservatively — count a mispredict and wait out the whole transfer —
// exactly as the sequential engine does, not crash the run.
func TestParallelDemandUnknownRef(t *testing.T) {
	files := twoFiles()
	sched := &Schedule{ClassOrder: []string{"A", "B"}, Deps: map[string][]Dep{}}
	e, err := NewParallel(sched, files, Link{Name: "t", CyclesPerByte: 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 2000 bytes at 10 cycles/byte over a single slot: everything has
	// arrived at cycle 20000.
	if got := e.Demand(ref("Z", "phantom"), 0); got != 20000 {
		t.Errorf("unknown ref available at %d, want 20000 (full transfer)", got)
	}
	if e.Mispredicts() != 1 {
		t.Errorf("mispredicts = %d, want 1", e.Mispredicts())
	}
	// The engine must remain consistent afterwards.
	if got := e.Demand(ref("B", "m"), 20000); got != 20000 {
		t.Errorf("B.m after degrade at %d, want 20000", got)
	}
	var delivered float64
	for _, pf := range e.files {
		delivered += pf.delivered
	}
	if delivered != 2000 || e.Active() != 0 {
		t.Errorf("delivered %g bytes with %d files active, want 2000 and none", delivered, e.Active())
	}
}

// TestLinkConstants pins the paper's two links as cycles per byte on the
// 500 MHz processor model: every table of the evaluation is in them.
func TestLinkConstants(t *testing.T) {
	if T1.CyclesPerByte != 3815 || Modem.CyclesPerByte != 134698 {
		t.Errorf("link constants drifted: %+v %+v", T1, Modem)
	}
}
