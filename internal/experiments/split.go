package experiments

import (
	"context"
	"fmt"
	"strings"

	"nonstrict/internal/jir"
	"nonstrict/internal/transfer"
)

// Procedure-splitting study (paper §4: "large procedures can still
// benefit by using the compiler to break the procedure up into smaller
// procedures"). jir.SplitLarge derives a split program from each
// workload's IR (which it leaves alone); that program is re-profiled (the
// workload self-checks prove the transform preserved semantics) and
// re-simulated.

// SplitRow compares one benchmark before and after splitting.
type SplitRow struct {
	Name                                        string
	Continuations                               int
	MethodsBefore, MethodsAfter                 int
	InstrsPerMethodBefore, InstrsPerMethodAfter float64
	// TimePct is the normalized interleaved (test profile) execution
	// time, [link][before/after].
	TimePct [2][2]float64
	// LatencyPct is the non-strict invocation latency as a percent of
	// strict (link-independent).
	LatencyPctBefore, LatencyPctAfter float64
}

// SplitStudy applies procedure splitting at the given top-level
// statement budget and measures the effect across the suite.
func (s *Suite) SplitStudy(budget int) ([]SplitRow, error) {
	base, err := s.Benches()
	if err != nil {
		return nil, err
	}
	var rows []SplitRow
	for _, b := range base {
		ir, n, err := jir.SplitLarge(b.App.IR, budget)
		if err != nil {
			return nil, err
		}
		app := *b.App
		app.IR = ir
		sb, err := LoadCtx(context.Background(), &app) // re-runs the workload self-checks
		if err != nil {
			return nil, fmt.Errorf("experiments: %s after splitting: %w", app.Name, err)
		}
		r := SplitRow{
			Name:                  b.App.Name,
			Continuations:         n,
			MethodsBefore:         b.Prog.NumMethods(),
			MethodsAfter:          sb.Prog.NumMethods(),
			InstrsPerMethodBefore: float64(b.Prog.StaticInstrs()) / float64(b.Prog.NumMethods()),
			InstrsPerMethodAfter:  float64(sb.Prog.StaticInstrs()) / float64(sb.Prog.NumMethods()),
		}
		for li, link := range Links {
			before, err := b.Normalized(Variant{Order: Test, Engine: Interleaved, Mode: transfer.NonStrict, Link: link})
			if err != nil {
				return nil, err
			}
			after, err := sb.Normalized(Variant{Order: Test, Engine: Interleaved, Mode: transfer.NonStrict, Link: link})
			if err != nil {
				return nil, err
			}
			r.TimePct[li] = [2]float64{before, after}
		}
		lat := func(x *Bench) float64 {
			_, rp, lay, _ := x.Prepared(SCG)
			mainRef := rp.Main()
			return 100 * float64(lay.Avail[mainRef]) / float64(lay.FileSize[mainRef.Class])
		}
		r.LatencyPctBefore = lat(b)
		r.LatencyPctAfter = lat(sb)
		rows = append(rows, r)
	}
	return rows, nil
}

// RenderSplitStudy formats the study.
func RenderSplitStudy(budget int, rows []SplitRow) string {
	var b strings.Builder
	b.WriteString(header(fmt.Sprintf("Extension: procedure splitting (top-level budget %d statements)", budget)))
	fmt.Fprintf(&b, "%-9s %6s %9s %9s %8s %8s | %7s %7s | %7s %7s | %7s %7s\n",
		"", "conts", "methods", "after", "i/m", "after",
		"T1 pre", "post", "Mo pre", "post", "lat pre", "post")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %6d %9d %9d %8.0f %8.0f | %7.0f %7.0f | %7.0f %7.0f | %6.0f%% %6.0f%%\n",
			r.Name, r.Continuations, r.MethodsBefore, r.MethodsAfter,
			r.InstrsPerMethodBefore, r.InstrsPerMethodAfter,
			r.TimePct[0][0], r.TimePct[0][1],
			r.TimePct[1][0], r.TimePct[1][1],
			r.LatencyPctBefore, r.LatencyPctAfter)
	}
	return b.String()
}
