package experiments

import (
	"strings"
	"testing"

	"nonstrict/internal/sim"
	"nonstrict/internal/transfer"
)

func TestTableJIT(t *testing.T) {
	s := suite(t)
	cfg := sim.JITConfig{CompileCyclesPerByte: 1000}
	rows, err := s.TableJIT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 || rows[6].Name != "AVG" {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		for li := 0; li < 2; li++ {
			if r.Pct[li] <= 0 || r.Pct[li] > 101 {
				t.Errorf("%s link %d: %.1f%%", r.Name, li, r.Pct[li])
			}
			if r.CompileShare[li] < 0 || r.CompileShare[li] > 100 {
				t.Errorf("%s: compile share %.1f%%", r.Name, r.CompileShare[li])
			}
		}
		// The modem drowns the compiler (134,698 cycles/byte vs 1,000),
		// so the compile share must be tiny there.
		if r.CompileShare[1] > 2 {
			t.Errorf("%s: modem compile share %.1f%%, want under 2%%", r.Name, r.CompileShare[1])
		}
	}
	if out := RenderJIT(cfg, rows); !strings.Contains(out, "compile") {
		t.Error("render broken")
	}
}

// TestJITOverlapHides: with a compiler much cheaper than the link, the
// pipelined total must sit well below the strict-JIT baseline — the
// compile stage disappears into the transfer.
func TestJITOverlapHides(t *testing.T) {
	b, err := suite(t).Bench("Jess")
	if err != nil {
		t.Fatal(err)
	}
	_, _, lay, _ := b.Prepared(Test)
	eng := transfer.NewInterleaved(b.byOrder[Test].plan, transfer.Modem)
	arr := eng.(transfer.ArrivalSchedule).Arrivals()

	cfg := sim.JITConfig{CompileCyclesPerByte: 1000}
	res, err := sim.RunJIT(b.TestTrace, b.Ix, arr, cfg, b.App.CPI)
	if err != nil {
		t.Fatal(err)
	}
	var bodyBytes int
	for _, sz := range lay.BodySize {
		bodyBytes += sz
	}
	base := sim.StrictJITBaseline(b.Prog.TotalSize(), bodyBytes, b.TestInstrs(), b.App.CPI, transfer.Modem, cfg)
	if 100*float64(res.TotalCycles)/float64(base) > 55 {
		t.Errorf("pipelined Jess = %.1f%% of strict-JIT, want under 55%%",
			100*float64(res.TotalCycles)/float64(base))
	}
	// The compile stage is slower than free but hides almost entirely:
	// compile-attributable stalls must be a tiny share of total stalls.
	if res.CompileStallCycles > res.StallCycles/10 {
		t.Errorf("compile stalls %d are a large share of %d", res.CompileStallCycles, res.StallCycles)
	}
	// A pure-transfer run must not be slower than the JIT run.
	pure, err := b.Simulate(Variant{Order: Test, Engine: Interleaved, Mode: transfer.NonStrict, Link: transfer.Modem})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles < pure.TotalCycles {
		t.Errorf("adding a compile stage sped things up: %d < %d", res.TotalCycles, pure.TotalCycles)
	}
}

// TestJITExpensiveCompilerDominates: when compilation costs more than
// the link, the compiler becomes the bottleneck and the benefit shrinks.
func TestJITExpensiveCompilerDominates(t *testing.T) {
	b, err := suite(t).Bench("Hanoi")
	if err != nil {
		t.Fatal(err)
	}
	eng := transfer.NewInterleaved(b.byOrder[Test].plan, transfer.T1)
	arr := eng.(transfer.ArrivalSchedule).Arrivals()

	cheap, err := sim.RunJIT(b.TestTrace, b.Ix, arr, sim.JITConfig{CompileCyclesPerByte: 100}, b.App.CPI)
	if err != nil {
		t.Fatal(err)
	}
	dear, err := sim.RunJIT(b.TestTrace, b.Ix, arr, sim.JITConfig{CompileCyclesPerByte: 50000}, b.App.CPI)
	if err != nil {
		t.Fatal(err)
	}
	if dear.TotalCycles <= cheap.TotalCycles {
		t.Errorf("expensive compiler not slower: %d <= %d", dear.TotalCycles, cheap.TotalCycles)
	}
	if dear.CompileStallCycles <= cheap.CompileStallCycles {
		t.Errorf("expensive compiler did not add compile stalls")
	}
}

func TestRunJITValidation(t *testing.T) {
	b, err := suite(t).Bench("Hanoi")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunJIT(b.TestTrace, b.Ix, nil, sim.JITConfig{CompileCyclesPerByte: -1}, 1); err == nil {
		t.Error("negative compile cost accepted")
	}
}
