package experiments

import (
	"fmt"
	"strings"

	"nonstrict/internal/bytecode"
	"nonstrict/internal/classfile"
	"nonstrict/internal/sim"
	"nonstrict/internal/transfer"
)

// Per-opcode cost model (paper §6.1 future work): instead of one average
// CPI per program, weight each method by its opcode mix and rescale so
// the trace-weighted mean cost stays equal to the program CPI. The study
// reports how much the headline results move — a robustness check on the
// paper's flat-CPI methodology.

// opcodeWeight gives relative costs per instruction class: memory and
// control cost more than register arithmetic, calls far more than both.
func opcodeWeight(op bytecode.Op) float64 {
	info := op.Info()
	switch {
	case op == bytecode.INVOKE:
		return 10
	case op == bytecode.GETSTATIC || op == bytecode.PUTSTATIC:
		return 3
	case op == bytecode.NEWARRAY:
		return 8
	case op == bytecode.ALOAD || op == bytecode.ASTORE || op == bytecode.ARRAYLEN:
		return 3
	case info.Branch:
		return 2
	case op == bytecode.LDC:
		return 2
	case op == bytecode.IDIV || op == bytecode.IREM:
		return 4
	case op == bytecode.RETURN || op == bytecode.IRETURN || op == bytecode.HALT:
		return 5
	default:
		return 1
	}
}

// methodWeights computes each method's mean opcode weight.
func methodWeights(ix *classfile.Index) ([]float64, error) {
	w := make([]float64, ix.Len())
	for id := classfile.MethodID(0); int(id) < ix.Len(); id++ {
		instrs, err := bytecode.Decode(ix.Method(id).Code)
		if err != nil {
			return nil, err
		}
		var sum float64
		for _, in := range instrs {
			sum += opcodeWeight(in.Op)
		}
		if len(instrs) > 0 {
			w[id] = sum / float64(len(instrs))
		} else {
			w[id] = 1
		}
	}
	return w, nil
}

// PerMethodCPI derives per-method CPIs whose trace-weighted mean equals
// the program CPI, so total execution cycles are preserved up to
// rounding.
func (b *Bench) PerMethodCPI() ([]int64, error) {
	w, err := methodWeights(b.Ix)
	if err != nil {
		return nil, err
	}
	var weighted, instrs float64
	for id, n := range b.TestProfile.MethodInstrs {
		weighted += float64(n) * w[id]
		instrs += float64(n)
	}
	if weighted == 0 {
		return nil, fmt.Errorf("experiments: %s: empty profile", b.App.Name)
	}
	scale := float64(b.App.CPI) * instrs / weighted
	out := make([]int64, b.Ix.Len())
	for id := range out {
		c := int64(w[id]*scale + 0.5)
		if c < 1 {
			c = 1
		}
		out[id] = c
	}
	return out, nil
}

// CostModelRow compares flat-CPI and per-method-CPI results.
type CostModelRow struct {
	Name string
	// FlatPct and MixPct are the normalized interleaved (test profile)
	// results per link under each cost model, each against its own
	// strict baseline.
	FlatPct, MixPct [2]float64
	// CPISpread is max/min per-method CPI across executed methods.
	CPISpread float64
}

// CostModelStudy re-runs the headline configuration under the
// opcode-mix cost model.
func (s *Suite) CostModelStudy() ([]CostModelRow, error) {
	bs, err := s.Benches()
	if err != nil {
		return nil, err
	}
	var rows []CostModelRow
	for _, b := range bs {
		cpis, err := b.PerMethodCPI()
		if err != nil {
			return nil, err
		}
		r := CostModelRow{Name: b.App.Name}
		minC, maxC := int64(1<<62), int64(0)
		var execFlat int64
		for id, n := range b.TestProfile.MethodInstrs {
			if n == 0 {
				continue
			}
			if cpis[id] < minC {
				minC = cpis[id]
			}
			if cpis[id] > maxC {
				maxC = cpis[id]
			}
			execFlat += n
		}
		r.CPISpread = float64(maxC) / float64(minC)

		for li, link := range Links {
			flat, err := b.Normalized(Variant{Order: Test, Engine: Interleaved, Mode: transfer.NonStrict, Link: link})
			if err != nil {
				return nil, err
			}
			eng := transfer.NewInterleaved(b.byOrder[Test].plan, link)
			res, err := sim.RunCosted(b.TestTrace, b.Ix, eng, func(id classfile.MethodID) int64 { return cpis[id] })
			if err != nil {
				return nil, err
			}
			// Strict baseline under the same cost model.
			strict := int64(b.Prog.TotalSize())*link.CyclesPerByte + res.ExecCycles
			r.FlatPct[li] = flat
			r.MixPct[li] = 100 * float64(res.TotalCycles) / float64(strict)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// RenderCostModel formats the study.
func RenderCostModel(rows []CostModelRow) string {
	var b strings.Builder
	b.WriteString(header("Extension: per-opcode cost model vs flat CPI (interleaved, test profile)"))
	fmt.Fprintf(&b, "%-9s | %8s %8s | %8s %8s | %10s\n",
		"", "T1 flat", "mix", "Mo flat", "mix", "CPI spread")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s | %8.0f %8.0f | %8.0f %8.0f | %9.1fx\n",
			r.Name, r.FlatPct[0], r.MixPct[0], r.FlatPct[1], r.MixPct[1], r.CPISpread)
	}
	return b.String()
}
