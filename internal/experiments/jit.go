package experiments

import (
	"fmt"
	"strings"

	"nonstrict/internal/sim"
	"nonstrict/internal/transfer"
)

// JIT-overlap extension (paper §8): pipeline a just-in-time compiler
// behind interleaved transfer so compilation latency hides inside
// transfer latency.

// JITRow is one benchmark's result at one compile cost.
type JITRow struct {
	Name string
	// Pct is the overlapped pipeline's total as a percent of the
	// strict-JIT baseline (transfer, then compile, then execute),
	// per link.
	Pct [2]float64
	// CompileShare is compile busy time over the strict-JIT baseline
	// (how much work the pipeline must hide), per link.
	CompileShare [2]float64
}

// TableJIT evaluates transfer+compile+execute overlap under the test
// profile for every benchmark.
func (s *Suite) TableJIT(cfg sim.JITConfig) ([]JITRow, error) {
	bs, err := s.Benches()
	if err != nil {
		return nil, err
	}
	var rows []JITRow
	for _, b := range bs {
		_, _, lay, _ := b.Prepared(Test)
		var bodyBytes int
		for _, sz := range lay.BodySize {
			bodyBytes += sz
		}
		r := JITRow{Name: b.App.Name}
		for li, link := range Links {
			eng := transfer.NewInterleaved(b.byOrder[Test].plan, link)
			sched, ok := eng.(transfer.ArrivalSchedule)
			if !ok {
				return nil, fmt.Errorf("experiments: interleaved engine lost its arrival schedule")
			}
			res, err := sim.RunJIT(b.TestTrace, b.Ix, sched.Arrivals(), cfg, b.App.CPI)
			if err != nil {
				return nil, err
			}
			base := sim.StrictJITBaseline(b.Prog.TotalSize(), bodyBytes, b.TestInstrs(), b.App.CPI, link, cfg)
			r.Pct[li] = 100 * float64(res.TotalCycles) / float64(base)
			r.CompileShare[li] = 100 * float64(res.CompileCycles) / float64(base)
		}
		rows = append(rows, r)
	}
	// AVG row.
	avg := JITRow{Name: "AVG"}
	for li := 0; li < 2; li++ {
		for _, r := range rows {
			avg.Pct[li] += r.Pct[li]
			avg.CompileShare[li] += r.CompileShare[li]
		}
		avg.Pct[li] /= float64(len(rows))
		avg.CompileShare[li] /= float64(len(rows))
	}
	return append(rows, avg), nil
}

// RenderJIT formats the JIT-overlap study.
func RenderJIT(cfg sim.JITConfig, rows []JITRow) string {
	var b strings.Builder
	b.WriteString(header(fmt.Sprintf(
		"Extension: JIT compilation overlapped with transfer (compiler at %d cycles/byte)",
		cfg.CompileCyclesPerByte)))
	fmt.Fprintf(&b, "%-9s | %9s %11s | %9s %11s\n",
		"", "T1 (%)", "compile(%)", "Modem (%)", "compile(%)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s | %9.0f %11.1f | %9.0f %11.1f\n",
			r.Name, r.Pct[0], r.CompileShare[0], r.Pct[1], r.CompileShare[1])
	}
	return b.String()
}
