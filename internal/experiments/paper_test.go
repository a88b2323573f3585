package experiments

import (
	"context"
	"strings"
	"sync"
	"testing"

	"nonstrict/internal/transfer"
)

// The suite is expensive (compiles, runs, and prepares all six
// workloads), so tests share one instance.
var (
	sharedSuite Suite
	suiteOnce   sync.Once
)

func suite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() { _, _ = sharedSuite.Benches() })
	if _, err := sharedSuite.Benches(); err != nil {
		t.Fatal(err)
	}
	return &sharedSuite
}

func TestSuiteLoadsAllSix(t *testing.T) {
	bs, err := suite(t).Benches()
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 6 {
		t.Fatalf("loaded %d benchmarks, want 6", len(bs))
	}
	want := []string{"BIT", "Hanoi", "JavaCup", "Jess", "JHLZip", "TestDes"}
	for i, b := range bs {
		if b.App.Name != want[i] {
			t.Errorf("bench %d = %s, want %s", i, b.App.Name, want[i])
		}
	}
	if _, err := suite(t).Bench("Jess"); err != nil {
		t.Error(err)
	}
	if _, err := suite(t).Bench("Nope"); err == nil {
		t.Error("unknown bench loaded")
	}
}

// TestTable2Regression locks the workload statistics so accidental
// changes to the generators are caught.
func TestTable2Regression(t *testing.T) {
	rows, err := suite(t).Table2()
	if err != nil {
		t.Fatal(err)
	}
	wantFiles := map[string]int{
		"BIT": 55, "Hanoi": 3, "JavaCup": 34, "Jess": 93, "JHLZip": 7, "TestDes": 3,
	}
	for _, r := range rows {
		if got := wantFiles[r.Name]; r.Files != got {
			t.Errorf("%s: %d files, want %d", r.Name, r.Files, got)
		}
		if r.DynTestK < r.DynTrainK {
			t.Errorf("%s: test input (%vK) smaller than train (%vK)", r.Name, r.DynTestK, r.DynTrainK)
		}
		if r.PctExecuted <= 0 || r.PctExecuted > 100 {
			t.Errorf("%s: %%executed = %v", r.Name, r.PctExecuted)
		}
	}
	// The paper's distinguishing shapes: Jess executes under half its
	// methods; JHLZip and BIT leave a cold tail; the rest run hot.
	byName := map[string]Table2Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if r := byName["Jess"]; r.PctExecuted > 55 {
		t.Errorf("Jess executes %.0f%% of methods, want under 55%%", r.PctExecuted)
	}
	if r := byName["TestDes"]; r.PctExecuted < 75 {
		t.Errorf("TestDes executes %.0f%%, want hot", r.PctExecuted)
	}
	if r := byName["Jess"]; r.Methods < 1000 {
		t.Errorf("Jess has %d methods, want over 1000", r.Methods)
	}
}

func TestTable3Identities(t *testing.T) {
	rows, err := suite(t).Table3()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		for li := 0; li < 2; li++ {
			if got := r.ExecM + r.TransferM[li]; !close(got, r.StrictM[li], 0.01) {
				t.Errorf("%s link %d: exec %v + transfer %v != strict %v",
					r.Name, li, r.ExecM, r.TransferM[li], r.StrictM[li])
			}
			if r.PctTransfer[li] <= 0 || r.PctTransfer[li] >= 100 {
				t.Errorf("%s: %%transfer = %v", r.Name, r.PctTransfer[li])
			}
		}
		// Modem transfer dominates more than T1 (the paper's Table 3).
		if r.PctTransfer[1] <= r.PctTransfer[0] {
			t.Errorf("%s: modem %%transfer %v not above T1 %v", r.Name, r.PctTransfer[1], r.PctTransfer[0])
		}
	}
}

func close(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol*(1+b)
}

// TestInvocationLatencyClaim checks the paper's headline latency claim:
// non-strict execution reduces invocation latency substantially, and
// data partitioning reduces it further (paper: 31%-56% on average).
func TestInvocationLatencyClaim(t *testing.T) {
	rows, err := suite(t).Table4()
	if err != nil {
		t.Fatal(err)
	}
	var nsSum, dpSum float64
	for _, r := range rows {
		for li := 0; li < 2; li++ {
			if r.NonStrictM[li] > r.StrictM[li] {
				t.Errorf("%s: non-strict latency above strict", r.Name)
			}
			if r.DataPartM[li] > r.NonStrictM[li] {
				t.Errorf("%s: partitioned latency above non-strict", r.Name)
			}
		}
		nsSum += r.NonStrictPct[0]
		dpSum += r.DataPartPct[0]
	}
	n := float64(len(rows))
	if avg := nsSum / n; avg < 25 {
		t.Errorf("average non-strict latency reduction %.0f%%, want at least 25%%", avg)
	}
	if avg := dpSum / n; avg < nsSum/n {
		t.Errorf("partitioning did not improve average latency (%.0f%% vs %.0f%%)", avg, nsSum/n)
	}
}

// TestOrderingQuality checks Test <= Train <= SCG on the averages, the
// paper's central claim about profile quality (small tolerance for ties).
func TestOrderingQuality(t *testing.T) {
	s := suite(t)
	for _, link := range Links {
		rows, err := s.TableParallelCtx(context.Background(), link)
		if err != nil {
			t.Fatal(err)
		}
		avg := rows[len(rows)-1]
		if avg.Name != "AVG" {
			t.Fatal("missing AVG row")
		}
		for li := 0; li < 4; li++ {
			scg, train, test := avg.Pct[0][li], avg.Pct[1][li], avg.Pct[2][li]
			if test > train+1 {
				t.Errorf("%s limit %d: Test %.1f worse than Train %.1f", link.Name, li, test, train)
			}
			if train > scg+1 {
				t.Errorf("%s limit %d: Train %.1f worse than SCG %.1f", link.Name, li, train, scg)
			}
			if scg > 100.5 {
				t.Errorf("%s limit %d: SCG average %.1f worse than strict", link.Name, li, scg)
			}
		}
	}
}

// TestInterleavedBeatsParallel checks §7.2's observation that the single
// virtual file gains over parallel transfer. Under the static order a
// misprediction in the fixed interleaved stream cannot be corrected while
// the parallel engine demand-fetches, so the claim is asserted for the
// profile-guided orders only.
func TestInterleavedBeatsParallel(t *testing.T) {
	s := suite(t)
	t7, err := s.Table7Ctx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ilvAvg := t7[len(t7)-1]
	for li, link := range Links {
		par, err := s.TableParallelCtx(context.Background(), link)
		if err != nil {
			t.Fatal(err)
		}
		parAvg := par[len(par)-1]
		for oi, ord := range Orders {
			if ord == SCG {
				continue
			}
			if ilvAvg.Pct[li][oi] > parAvg.Pct[oi][2]+1 { // vs limit 4
				t.Errorf("%s order %v: interleaved %.1f worse than parallel %.1f",
					link.Name, ord, ilvAvg.Pct[li][oi], parAvg.Pct[oi][2])
			}
		}
	}
}

// TestDataPartitioningHelps checks §7.3: partitioned global data is at
// least as good as whole-pool transfer, per benchmark, interleaved.
func TestDataPartitioningHelps(t *testing.T) {
	s := suite(t)
	whole, err := s.Table7Ctx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	parted, err := s.interleaved(context.Background(), transfer.Partitioned)
	if err != nil {
		t.Fatal(err)
	}
	for i := range whole {
		for li := 0; li < 2; li++ {
			for oi := 0; oi < 3; oi++ {
				if parted[i].Pct[li][oi] > whole[i].Pct[li][oi]+0.5 {
					t.Errorf("%s link %d order %d: partitioned %.1f worse than whole %.1f",
						whole[i].Name, li, oi, parted[i].Pct[li][oi], whole[i].Pct[li][oi])
				}
			}
		}
	}
}

// TestJessSignatureResult checks the sparse-execution flagship: Jess on
// the modem with the test profile cuts execution time roughly in half
// (the paper reports 51-54%).
func TestJessSignatureResult(t *testing.T) {
	b, err := suite(t).Bench("Jess")
	if err != nil {
		t.Fatal(err)
	}
	pct, err := b.Normalized(Variant{Order: Test, Engine: Interleaved, Mode: transfer.NonStrict, Link: transfer.Modem})
	if err != nil {
		t.Fatal(err)
	}
	if pct > 60 || pct < 30 {
		t.Errorf("Jess modem Test interleaved = %.1f%%, want roughly half of strict", pct)
	}
}

// TestPerfectOrderNeverMispredicts: the Test profile drives both the
// restructuring and the simulated input, so demand corrections must be
// zero for every benchmark.
func TestPerfectOrderNeverMispredicts(t *testing.T) {
	bs, err := suite(t).Benches()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bs {
		res, err := b.Simulate(Variant{Order: Test, Engine: Parallel, Mode: transfer.NonStrict, Limit: 4, Link: transfer.T1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Mispredicts != 0 {
			t.Errorf("%s: %d mispredicts under the perfect order", b.App.Name, res.Mispredicts)
		}
	}
}

// TestVariantMatrix drives every configuration combination on one small
// workload and checks the accounting identity and strict dominance.
func TestVariantMatrix(t *testing.T) {
	b, err := suite(t).Bench("Hanoi")
	if err != nil {
		t.Fatal(err)
	}
	for _, ord := range Orders {
		for _, eng := range []EngineKind{Sequential, Parallel, Interleaved} {
			for _, mode := range []transfer.Mode{transfer.Strict, transfer.NonStrict, transfer.Partitioned} {
				for _, limit := range []int{1, 4, 0} {
					for _, link := range Links {
						if eng != Parallel && limit != 1 {
							continue // limit only matters for parallel
						}
						v := Variant{Order: ord, Engine: eng, Mode: mode, Limit: limit, Link: link}
						res, err := b.Simulate(v)
						if err != nil {
							t.Fatalf("%+v: %v", v, err)
						}
						if res.TotalCycles != res.ExecCycles+res.StallCycles {
							t.Errorf("%+v: accounting identity broken", v)
						}
						if res.TotalCycles > b.StrictTotal(link) {
							t.Errorf("%+v: total %d exceeds strict baseline %d", v, res.TotalCycles, b.StrictTotal(link))
						}
						if res.InvocationLatency <= 0 {
							t.Errorf("%+v: non-positive invocation latency", v)
						}
					}
				}
			}
		}
	}
}

// TestTable9Shares checks the partition tiling and the paper's shape:
// most global data moves into per-method GMDs.
func TestTable9Shares(t *testing.T) {
	rows, err := suite(t).Table9()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		sum := r.PctNeededFirst + r.PctInMethods + r.PctUnused
		if sum < 99.5 || sum > 100.5 {
			t.Errorf("%s: shares sum to %.1f", r.Name, sum)
		}
		if r.PctInMethods < r.PctNeededFirst {
			t.Errorf("%s: in-methods share %.0f below needed-first %.0f", r.Name, r.PctInMethods, r.PctNeededFirst)
		}
	}
}

// TestTable8Shape checks the paper's observation that the constant pool
// dominates global data and Utf8 dominates the pool for most programs.
func TestTable8Shape(t *testing.T) {
	rows, err := suite(t).Table8()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.CPool < 50 {
			t.Errorf("%s: constant pool is %.0f%% of global data, want majority", r.Name, r.CPool)
		}
		if r.Utf8 < 30 {
			t.Errorf("%s: Utf8 is %.0f%% of pool", r.Name, r.Utf8)
		}
	}
}

func TestFigure6Shape(t *testing.T) {
	f, err := suite(t).Figure6Ctx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for li := 0; li < 2; li++ {
		for oi := 0; oi < 3; oi++ {
			// PFT vs PFT+DP and IFT vs IFT+DP: partitioning never hurts.
			if f.Bars[li][oi][1] > f.Bars[li][oi][0]+0.5 {
				t.Errorf("link %d order %d: PFT+DP worse than PFT", li, oi)
			}
			if f.Bars[li][oi][3] > f.Bars[li][oi][2]+0.5 {
				t.Errorf("link %d order %d: IFT+DP worse than IFT", li, oi)
			}
			for ti := 0; ti < 4; ti++ {
				if v := f.Bars[li][oi][ti]; v <= 0 || v > 101 {
					t.Errorf("bar [%d][%d][%d] = %v", li, oi, ti, v)
				}
			}
		}
	}
}

// TestRenderersProduceTables sanity-checks every renderer.
func TestRenderersProduceTables(t *testing.T) {
	s := suite(t)
	var outs []string
	t1, _ := s.Table1()
	outs = append(outs, RenderTable1(t1))
	t2, _ := s.Table2()
	outs = append(outs, RenderTable2(t2))
	t3, _ := s.Table3()
	outs = append(outs, RenderTable3(t3))
	t4, _ := s.Table4()
	outs = append(outs, RenderTable4(t4))
	p5, _ := s.TableParallelCtx(context.Background(), transfer.T1)
	outs = append(outs, RenderParallel("Table 5", p5))
	t7, _ := s.Table7Ctx(context.Background())
	outs = append(outs, RenderTable7(t7))
	t8, _ := s.Table8()
	outs = append(outs, RenderTable8(t8))
	t9, _ := s.Table9()
	outs = append(outs, RenderTable9(t9))
	t10, _ := s.Table10Ctx(context.Background())
	outs = append(outs, RenderTable10(t10))
	f6, _ := s.Figure6Ctx(context.Background())
	outs = append(outs, RenderFigure6(f6))
	for i, out := range outs {
		if len(out) < 100 {
			t.Errorf("render %d suspiciously short:\n%s", i, out)
		}
		if !strings.Contains(out, "\n") {
			t.Errorf("render %d is one line", i)
		}
	}
	for _, name := range []string{"BIT", "Hanoi", "JavaCup", "Jess", "JHLZip", "TestDes"} {
		if !strings.Contains(outs[1], name) {
			t.Errorf("Table 2 missing %s", name)
		}
	}
}

func TestKindStrings(t *testing.T) {
	if SCG.String() != "SCG" || Train.String() != "Train" || Test.String() != "Test" {
		t.Error("OrderKind names wrong")
	}
	if OrderKind(9).String() == "" {
		t.Error("unknown OrderKind has empty name")
	}
}

// TestSuiteDeterminism: two independently loaded suites must produce
// byte-identical evaluation tables — everything from workload generation
// to simulation is deterministic.
func TestSuiteDeterminism(t *testing.T) {
	var s2 Suite
	if _, err := s2.Benches(); err != nil {
		t.Fatal(err)
	}
	a, err := suite(t).TableParallelCtx(context.Background(), transfer.T1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s2.TableParallelCtx(context.Background(), transfer.T1)
	if err != nil {
		t.Fatal(err)
	}
	if RenderParallel("x", a) != RenderParallel("x", b) {
		t.Error("two suite loads disagree on Table 5")
	}
	a4, err := suite(t).Table4()
	if err != nil {
		t.Fatal(err)
	}
	b4, err := s2.Table4()
	if err != nil {
		t.Fatal(err)
	}
	if RenderTable4(a4) != RenderTable4(b4) {
		t.Error("two suite loads disagree on Table 4")
	}
}

// TestBenchAccessors covers the remaining Bench surface.
func TestBenchAccessors(t *testing.T) {
	b, err := suite(t).Bench("Hanoi")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range Orders {
		ord, rp, lay, part := b.Prepared(k)
		if ord == nil || rp == nil || lay == nil || part == nil {
			t.Fatalf("Prepared(%v) incomplete", k)
		}
		// The restructured program's main leads its class file.
		main := rp.Class(rp.MainClass)
		if main.MethodName(main.Methods[0]) != "main" {
			t.Errorf("%v: main not first in its restructured file", k)
		}
	}
	if b.TransferCycles(transfer.T1) >= b.StrictTotal(transfer.T1) {
		t.Error("transfer alone not below strict total")
	}
	if _, err := b.Simulate(Variant{Order: OrderKind(9)}); err == nil {
		t.Error("unknown order simulated")
	}
	if _, err := b.Simulate(Variant{Order: Test, Engine: EngineKind(9), Link: transfer.T1}); err == nil {
		t.Error("unknown engine simulated")
	}
}
