// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus micro-benchmarks of the substrate. Run with:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkTableN/BenchmarkFigure6 measures the cost of producing
// that artifact from the shared loaded suite; the suite itself (compile,
// profile, restructure for all six workloads) is measured by
// BenchmarkLoadSuite.
package nonstrict

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"nonstrict/internal/apps"
	"nonstrict/internal/cfg"
	"nonstrict/internal/classfile"
	"nonstrict/internal/jir"
	"nonstrict/internal/pipeline"
	"nonstrict/internal/reorder"
	"nonstrict/internal/sim"
	"nonstrict/internal/stream"
	"nonstrict/internal/transfer"
	"nonstrict/internal/verify"
	"nonstrict/internal/vm"
)

var (
	benchSuite     Suite
	benchSuiteOnce sync.Once
)

func loadedSuite(b *testing.B) *Suite {
	b.Helper()
	benchSuiteOnce.Do(func() { _, _ = benchSuite.Benches() })
	if _, err := benchSuite.Benches(); err != nil {
		b.Fatal(err)
	}
	return &benchSuite
}

// BenchmarkLoadSuite measures the full pipeline for all six workloads:
// compile, link, run both inputs, build CFGs, predict, restructure,
// partition.
func BenchmarkLoadSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var s Suite
		if _, err := s.Benches(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	s := loadedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	s := loadedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	s := loadedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	s := loadedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Table4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5(b *testing.B) {
	s := loadedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.TableParallel(transfer.T1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6(b *testing.B) {
	s := loadedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.TableParallel(transfer.Modem); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable7(b *testing.B) {
	s := loadedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Table7(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable8(b *testing.B) {
	s := loadedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Table8(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable9(b *testing.B) {
	s := loadedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Table9(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable10(b *testing.B) {
	s := loadedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Table10(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	s := loadedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Figure6(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate micro-benchmarks ------------------------------------------

// BenchmarkCompileJess measures compiling the largest workload (93
// classes, ~1450 methods) from IR to class files.
func BenchmarkCompileJess(b *testing.B) {
	app, err := apps.ByName("Jess")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := jir.Compile(app.IR); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVMHanoi measures raw interpreter throughput (~500K dynamic
// instructions per run).
func BenchmarkVMHanoi(b *testing.B) {
	app, err := apps.ByName("Hanoi")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := jir.Compile(app.IR)
	if err != nil {
		b.Fatal(err)
	}
	ln, err := vm.Link(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		m, err := ln.Run(vm.Options{Args: app.TestArgs})
		if err != nil {
			b.Fatal(err)
		}
		instrs = m.Steps()
	}
	b.ReportMetric(float64(instrs*int64(b.N))/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// compiledApps compiles the six workloads, for the client receive-path
// benchmarks below.
func compiledApps(b *testing.B) []*classfile.Program {
	b.Helper()
	var progs []*classfile.Program
	for _, app := range apps.All() {
		prog, err := jir.Compile(app.IR)
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, prog)
	}
	return progs
}

// BenchmarkVerifyProgram measures whole-program verification of the six
// workloads — the verifier's share of the client receive path.
func BenchmarkVerifyProgram(b *testing.B) {
	progs := compiledApps(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			if err := verify.VerifyProgram(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkLinkProgram measures eager linking of the six workloads —
// the same per-method linkCode the live linker runs at first use.
func BenchmarkLinkProgram(b *testing.B) {
	progs := compiledApps(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			if _, err := vm.Link(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkLoaderLoad measures the non-strict loader end to end (unit
// CRC, global parse, per-method verify, whole-stream digest) over the
// six workloads' train-ordered streams.
func BenchmarkLoaderLoad(b *testing.B) {
	type served struct {
		name, main string
		data       []byte
	}
	var streams []served
	var total int64
	for _, app := range apps.All() {
		st, err := pipeline.Build(context.Background(), app, pipeline.OrderTrain)
		if err != nil {
			b.Fatal(err)
		}
		streams = append(streams, served{app.Name, app.IR.Main, st.Data})
		total += int64(len(st.Data))
	}
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range streams {
			if err := stream.NewLoader(s.name, s.main, nil).Load(bytes.NewReader(s.data), nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStaticOrderJess measures the §4.1 estimator on the largest
// call graph.
func BenchmarkStaticOrderJess(b *testing.B) {
	app, err := apps.ByName("Jess")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := jir.Compile(app.IR)
	if err != nil {
		b.Fatal(err)
	}
	ix := prog.IndexMethods()
	graphs, err := cfg.BuildAll(ix)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reorder.Static(ix, graphs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateInterleaved measures one end-to-end overlap
// simulation on the largest trace (Jess, ~600K segments).
func BenchmarkSimulateInterleaved(b *testing.B) {
	s := loadedSuite(b)
	bench, err := s.Bench("Jess")
	if err != nil {
		b.Fatal(err)
	}
	v := Variant{Order: Test, Engine: Interleaved, Mode: NonStrict, Link: Modem}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Simulate(v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateParallel measures the event-driven parallel engine on
// the many-class workload.
func BenchmarkSimulateParallel(b *testing.B) {
	s := loadedSuite(b)
	bench, err := s.Bench("Jess")
	if err != nil {
		b.Fatal(err)
	}
	v := Variant{Order: SCG, Engine: Parallel, Mode: NonStrict, Limit: 4, Link: Modem}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Simulate(v); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks ---------------------------------------------------

// BenchmarkAblationHeuristic measures the loop-heuristic comparison
// (includes restructuring under the plain order on the fly).
func BenchmarkAblationHeuristic(b *testing.B) {
	s := loadedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.AblationHeuristic(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBandwidthSweep measures a nine-point link-speed sweep.
func BenchmarkBandwidthSweep(b *testing.B) {
	s := loadedSuite(b)
	points := []int64{100, 500, 1000, 3815, 15000, 60000, 134698, 500000, 2000000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.BandwidthSweep(points); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlockDelimiters measures the block-granularity study.
func BenchmarkBlockDelimiters(b *testing.B) {
	s := loadedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.AblationBlockDelimiters(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJITOverlap measures the transfer+compile+execute pipeline
// study at one compiler cost.
func BenchmarkJITOverlap(b *testing.B) {
	s := loadedSuite(b)
	cfg := sim.JITConfig{CompileCyclesPerByte: 1000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.TableJIT(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
