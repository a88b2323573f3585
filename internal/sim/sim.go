// Package sim is the cycle-level overlap simulator.
//
// It replays a VM segment trace — the exact sequence of (method,
// instruction-count) runs between control transfers — against a transfer
// engine. Execution advances the clock by CPI cycles per instruction;
// when control first reaches a method, the engine is asked when that
// method's bytes arrive, and the difference is a stall. The result
// carries the paper's two headline metrics: invocation latency (cycles
// until the first instruction of main can execute) and total cycles
// (transfer-overlapped execution time).
package sim

import (
	"context"
	"fmt"

	"nonstrict/internal/classfile"
	"nonstrict/internal/transfer"
	"nonstrict/internal/vm"
)

// Result summarizes one simulation.
type Result struct {
	// InvocationLatency is the cycle at which main's first instruction
	// executes.
	InvocationLatency int64
	// TotalCycles is the cycle at which the program finishes. Transfer
	// still in flight at that point is terminated, as in the paper.
	TotalCycles int64
	// ExecCycles is instructions times CPI — the pure compute time.
	ExecCycles int64
	// StallCycles is time spent waiting for method bytes (includes the
	// invocation latency, which is the first stall).
	StallCycles int64
	// StallEvents counts first-use arrivals that had to wait.
	StallEvents int
	// Demands counts engine queries — one per method first-use.
	Demands int
	// Mispredicts is the engine's demand-correction count.
	Mispredicts int
	// Stalls lists every first-use arrival that had to wait, in
	// execution order — the simulator's predicted stall breakdown that
	// the live runtime's measured attribution is compared against.
	Stalls []MethodStall
}

// MethodStall is one predicted first-use stall: execution demanded
// Method at AtCycle and waited Cycles for its bytes.
type MethodStall struct {
	Method  classfile.Ref
	AtCycle int64
	Cycles  int64
}

// Overlap returns the fraction of transfer-bound time hidden behind
// execution: 1 - StallCycles/TotalCycles, clamped to [0, 1] so a
// degenerate replay (zero or negative totals) reports a fraction, not
// NaN or ±Inf.
func (r Result) Overlap() float64 {
	if r.TotalCycles <= 0 {
		return 0
	}
	o := 1 - float64(r.StallCycles)/float64(r.TotalCycles)
	switch {
	case o < 0:
		return 0
	case o > 1:
		return 1
	}
	return o
}

// Run replays trace against eng. ix must index the program the trace was
// collected from; cpi is the cycles-per-bytecode-instruction cost.
func Run(trace []vm.Segment, ix *classfile.Index, eng transfer.Engine, cpi int64) (Result, error) {
	return RunContext(context.Background(), trace, ix, eng, cpi)
}

// RunContext is Run with cancellation: it checks ctx periodically and
// abandons the replay with ctx's error once it is done.
func RunContext(ctx context.Context, trace []vm.Segment, ix *classfile.Index, eng transfer.Engine, cpi int64) (Result, error) {
	if cpi <= 0 {
		return Result{}, fmt.Errorf("sim: non-positive CPI %d", cpi)
	}
	return runCosted(ctx, trace, ix, eng, func(classfile.MethodID) int64 { return cpi })
}

// RunCosted is Run with a per-method cycle cost — the refinement the
// paper names as future work ("a more accurate measurement of the cycles
// required for each of the individual bytecode instructions"): per-method
// CPIs derived from each method's opcode mix replace the single
// program-wide average.
func RunCosted(trace []vm.Segment, ix *classfile.Index, eng transfer.Engine, cpiOf func(classfile.MethodID) int64) (Result, error) {
	return runCosted(context.Background(), trace, ix, eng, cpiOf)
}

// ctxCheckEvery is how many trace segments replay between cancellation
// checks; a power of two keeps the check a mask test.
const ctxCheckEvery = 1 << 14

// runCosted is RunCosted with cancellation, which RunContext needs too.
func runCosted(ctx context.Context, trace []vm.Segment, ix *classfile.Index, eng transfer.Engine, cpiOf func(classfile.MethodID) int64) (Result, error) {
	if len(trace) == 0 {
		return Result{}, fmt.Errorf("sim: empty trace")
	}
	var res Result
	seen := make([]bool, ix.Len())
	var now int64
	for i, seg := range trace {
		if i&(ctxCheckEvery-1) == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		if int(seg.M) < 0 || int(seg.M) >= ix.Len() {
			return Result{}, fmt.Errorf("sim: trace segment %d references method %d of %d", i, seg.M, ix.Len())
		}
		if !seen[seg.M] {
			seen[seg.M] = true
			res.Demands++
			avail := eng.Demand(ix.Ref(seg.M), now)
			if avail < now {
				return Result{}, fmt.Errorf("sim: engine returned availability %d before now %d", avail, now)
			}
			if avail > now {
				res.StallCycles += avail - now
				res.StallEvents++
				res.Stalls = append(res.Stalls, MethodStall{
					Method: ix.Ref(seg.M), AtCycle: now, Cycles: avail - now,
				})
				now = avail
			}
			if i == 0 {
				res.InvocationLatency = now
			}
		}
		cpi := cpiOf(seg.M)
		if cpi <= 0 {
			return Result{}, fmt.Errorf("sim: non-positive CPI %d for method %v", cpi, ix.Ref(seg.M))
		}
		now += seg.N * cpi
		res.ExecCycles += seg.N * cpi
	}
	res.TotalCycles = now
	res.Mispredicts = eng.Mispredicts()
	return res, nil
}

// StrictBaseline computes the paper's strict-execution reference point
// (Table 3): the whole program transfers, then executes, with no overlap.
// It returns the transfer cycles and the total (transfer plus execution).
func StrictBaseline(totalBytes int, instrs int64, cpi int64, link transfer.Link) (transferCycles, totalCycles int64) {
	transferCycles = int64(totalBytes) * link.CyclesPerByte
	return transferCycles, transferCycles + instrs*cpi
}
