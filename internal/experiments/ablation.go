package experiments

import (
	"fmt"
	"strings"

	"nonstrict/internal/cfg"
	"nonstrict/internal/reorder"
	"nonstrict/internal/transfer"
)

// Ablation studies beyond the paper's tables: each isolates one design
// choice DESIGN.md calls out.

// HeuristicRow compares the §4.1 estimator's loop heuristics against a
// plain textual-order DFS, per benchmark: normalized execution time and
// demand-fetch corrections under each static order.
type HeuristicRow struct {
	Name string
	// FullPct / PlainPct: interleaved normalized time per link.
	FullPct, PlainPct [2]float64
	// FullMiss / PlainMiss: parallel (limit 4, T1) misprediction counts.
	FullMiss, PlainMiss int
	// Agreement is the fraction of executed methods whose predicted rank
	// matches the runtime first-use order position.
	FullAgree, PlainAgree float64
}

// AblationHeuristic quantifies what the loop-priority and loop-exit-
// deferral heuristics buy over a naive static traversal.
func (s *Suite) AblationHeuristic() ([]HeuristicRow, error) {
	bs, err := s.Benches()
	if err != nil {
		return nil, err
	}
	var rows []HeuristicRow
	for _, b := range bs {
		full, _, _, _ := b.Prepared(SCG)
		graphs, err := cfg.BuildAll(b.Ix)
		if err != nil {
			return nil, err
		}
		plain, err := reorder.StaticPlain(b.Ix, graphs)
		if err != nil {
			return nil, err
		}
		r := HeuristicRow{Name: b.App.Name}
		r.FullAgree = orderAgreement(b, full)
		r.PlainAgree = orderAgreement(b, plain)
		for li, link := range Links {
			fp, err := b.Normalized(Variant{Order: SCG, Engine: Interleaved, Mode: transfer.NonStrict, Link: link})
			if err != nil {
				return nil, err
			}
			pres, err := b.SimulateOrder(plain, nil, Variant{Engine: Interleaved, Mode: transfer.NonStrict, Link: link})
			if err != nil {
				return nil, err
			}
			r.FullPct[li] = fp
			r.PlainPct[li] = 100 * float64(pres.TotalCycles) / float64(b.StrictTotal(link))
		}
		fm, err := b.Simulate(Variant{Order: SCG, Engine: Parallel, Mode: transfer.NonStrict, Limit: 4, Link: transfer.T1})
		if err != nil {
			return nil, err
		}
		pm, err := b.SimulateOrder(plain, nil, Variant{Engine: Parallel, Mode: transfer.NonStrict, Limit: 4, Link: transfer.T1})
		if err != nil {
			return nil, err
		}
		r.FullMiss = fm.Mispredicts
		r.PlainMiss = pm.Mispredicts
		rows = append(rows, r)
	}
	return rows, nil
}

// orderAgreement measures how many executed methods the order places at
// exactly their runtime first-use position.
func orderAgreement(b *Bench, o *reorder.Order) float64 {
	fu := b.TestProfile.FirstUse
	if len(fu) == 0 {
		return 0
	}
	agree := 0
	for pos, id := range fu {
		if o.Rank[id] == pos {
			agree++
		}
	}
	return float64(agree) / float64(len(fu))
}

// RenderAblationHeuristic formats the heuristic study.
func RenderAblationHeuristic(rows []HeuristicRow) string {
	var bld strings.Builder
	bld.WriteString(header("Ablation: static-estimator loop heuristics (full vs plain DFS)"))
	fmt.Fprintf(&bld, "%-9s | %7s %7s | %7s %7s | %7s %7s | %8s %8s\n",
		"", "T1 full", "plain", "Mo full", "plain", "agree-f", "agree-p", "miss-f", "miss-p")
	for _, r := range rows {
		fmt.Fprintf(&bld, "%-9s | %7.0f %7.0f | %7.0f %7.0f | %6.0f%% %6.0f%% | %8d %8d\n",
			r.Name, r.FullPct[0], r.PlainPct[0], r.FullPct[1], r.PlainPct[1],
			100*r.FullAgree, 100*r.PlainAgree, r.FullMiss, r.PlainMiss)
	}
	return bld.String()
}

// SweepPoint is one bandwidth setting in the crossover study.
type SweepPoint struct {
	CyclesPerByte int64
	// AvgPct is the suite-average normalized execution time for
	// interleaved transfer under the test profile.
	AvgPct float64
	// AvgLatencyPct is the average invocation-latency reduction.
	AvgLatencyPct float64
}

// BandwidthSweep evaluates non-strict interleaved transfer across link
// speeds, from far faster than a T1 to far slower than the modem. It
// exposes the crossover structure: at very high bandwidth transfer is
// free and nothing matters; at very low bandwidth the savings converge
// to the fraction of bytes execution never needs.
func (s *Suite) BandwidthSweep(cyclesPerByte []int64) ([]SweepPoint, error) {
	bs, err := s.Benches()
	if err != nil {
		return nil, err
	}
	var out []SweepPoint
	for _, cpb := range cyclesPerByte {
		link := transfer.Link{Name: fmt.Sprintf("cpb%d", cpb), CyclesPerByte: cpb}
		var sumPct, sumLat float64
		for _, b := range bs {
			res, err := b.Simulate(Variant{Order: Test, Engine: Interleaved, Mode: transfer.NonStrict, Link: link})
			if err != nil {
				return nil, err
			}
			sumPct += 100 * float64(res.TotalCycles) / float64(b.StrictTotal(link))
			_, rp, lay, _ := b.Prepared(Test)
			mainRef := rp.Main()
			strictLat := int64(lay.FileSize[mainRef.Class]) * cpb
			sumLat += 100 * (1 - float64(res.InvocationLatency)/float64(strictLat))
		}
		out = append(out, SweepPoint{
			CyclesPerByte: cpb,
			AvgPct:        sumPct / float64(len(bs)),
			AvgLatencyPct: sumLat / float64(len(bs)),
		})
	}
	return out, nil
}

// RenderBandwidthSweep formats the sweep.
func RenderBandwidthSweep(points []SweepPoint) string {
	var bld strings.Builder
	bld.WriteString(header("Ablation: bandwidth sweep (interleaved, test profile; avg of suite)"))
	fmt.Fprintf(&bld, "%14s %12s %14s\n", "cycles/byte", "time (%)", "latency cut(%)")
	for _, p := range points {
		marker := ""
		if p.CyclesPerByte == transfer.T1.CyclesPerByte {
			marker = "  <- T1"
		}
		if p.CyclesPerByte == transfer.Modem.CyclesPerByte {
			marker = "  <- modem"
		}
		fmt.Fprintf(&bld, "%14d %12.1f %14.1f%s\n", p.CyclesPerByte, p.AvgPct, p.AvgLatencyPct, marker)
	}
	return bld.String()
}

// BlockDelimRow quantifies the paper's §4 rejection of basic-block-level
// non-strictness: per-block delimiters inflate every class file, and
// per-block availability checks tax execution, while the availability
// win over method-level delimiters is marginal.
type BlockDelimRow struct {
	Name    string
	Methods int
	Blocks  int
	// SizeIncreasePct: extra wire bytes from a delimiter per block
	// instead of per method.
	SizeIncreasePct float64
	// CheckOverheadPct: added execution cycles from one availability
	// check per dynamic block entry (approximated as dynamic
	// instructions divided by mean static block length), at 2 cycles
	// per check, relative to base execution cycles.
	CheckOverheadPct float64
	// LatencyGainPct: how much sooner main could start if only its
	// first block (rather than its whole body) had to arrive — the
	// upper bound on what finer granularity buys at invocation.
	LatencyGainPct float64
}

// AblationBlockDelimiters computes the block-granularity trade-off.
func (s *Suite) AblationBlockDelimiters() ([]BlockDelimRow, error) {
	bs, err := s.Benches()
	if err != nil {
		return nil, err
	}
	var rows []BlockDelimRow
	for _, b := range bs {
		graphs, err := cfg.BuildAll(b.Ix)
		if err != nil {
			return nil, err
		}
		totalBlocks := 0
		totalInstrs := 0
		for _, g := range graphs {
			totalBlocks += len(g.Blocks)
			totalInstrs += len(g.Instrs)
		}
		meanBlockLen := float64(totalInstrs) / float64(totalBlocks)
		extraBytes := (totalBlocks - b.Prog.NumMethods()) * 4 // one delimiter per extra boundary
		dynChecks := float64(b.TestInstrs()) / meanBlockLen
		checkCycles := 2 * dynChecks

		_, rp, lay, _ := b.Prepared(SCG)
		mainRef := rp.Main()
		mainID := b.Ix.ID(mainRef)
		g := graphs[mainID]
		firstBlockInstrs := g.Blocks[0].End - g.Blocks[0].Start
		mainBody := lay.BodySize[mainRef]
		// First-block share of main's code bytes, applied to the body.
		firstBlockBytes := int(float64(mainBody) * float64(firstBlockInstrs) / float64(len(g.Instrs)))
		nsLatency := lay.Avail[mainRef]
		blockLatency := lay.GlobalEnd[mainRef.Class] + firstBlockBytes + 4

		rows = append(rows, BlockDelimRow{
			Name:             b.App.Name,
			Methods:          b.Prog.NumMethods(),
			Blocks:           totalBlocks,
			SizeIncreasePct:  100 * float64(extraBytes) / float64(b.Prog.TotalSize()),
			CheckOverheadPct: 100 * checkCycles / float64(b.ExecCycles()),
			LatencyGainPct:   100 * (1 - float64(blockLatency)/float64(nsLatency)),
		})
	}
	return rows, nil
}

// RenderBlockDelimiters formats the block-granularity study.
func RenderBlockDelimiters(rows []BlockDelimRow) string {
	var bld strings.Builder
	bld.WriteString(header("Ablation: basic-block-level delimiters (cost vs marginal benefit)"))
	fmt.Fprintf(&bld, "%-9s %8s %8s %10s %11s %11s\n",
		"Program", "methods", "blocks", "size +%", "check +%", "latency -%")
	for _, r := range rows {
		fmt.Fprintf(&bld, "%-9s %8d %8d %10.1f %11.2f %11.1f\n",
			r.Name, r.Methods, r.Blocks, r.SizeIncreasePct, r.CheckOverheadPct, r.LatencyGainPct)
	}
	return bld.String()
}
