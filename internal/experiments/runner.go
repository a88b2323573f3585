package experiments

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"nonstrict/internal/sim"
)

// Runner fans simulation work out across a bounded worker pool with
// deterministic result collection: every cell of a grid writes only its
// own result slot, so the assembled tables are byte-identical to a
// serial evaluation regardless of worker count or scheduling. The zero
// value is ready to use and sizes the pool to GOMAXPROCS.
type Runner struct {
	// Workers caps the pool; 0 means GOMAXPROCS, 1 forces the serial
	// path (no goroutines are spawned).
	Workers int

	cells       atomic.Int64
	demands     atomic.Int64
	stalls      atomic.Int64
	stallCycles atomic.Int64
	mispredicts atomic.Int64
}

// RunnerStats is a snapshot of the counters accumulated across every
// simulation the runner has executed.
type RunnerStats struct {
	// Cells is the number of benchmark × variant simulations completed.
	Cells int64
	// Demands counts transfer-engine queries (method first-uses).
	Demands int64
	// Stalls counts first-uses that had to wait for bytes.
	Stalls int64
	// StallCycles is the total cycles spent waiting across all cells.
	StallCycles int64
	// Mispredicts counts demand-fetch corrections across all cells.
	Mispredicts int64
}

// Stats returns a snapshot of the accumulated counters.
func (r *Runner) Stats() RunnerStats {
	return RunnerStats{
		Cells:       r.cells.Load(),
		Demands:     r.demands.Load(),
		Stalls:      r.stalls.Load(),
		StallCycles: r.stallCycles.Load(),
		Mispredicts: r.mispredicts.Load(),
	}
}

// record accumulates one simulation's counters.
func (r *Runner) record(res sim.Result) {
	r.cells.Add(1)
	r.demands.Add(int64(res.Demands))
	r.stalls.Add(int64(res.StallEvents))
	r.stallCycles.Add(res.StallCycles)
	r.mispredicts.Add(int64(res.Mispredicts))
}

func (r *Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(ctx, i) for every i in [0, n) across the pool. The
// first failure (by lowest index, for reproducibility) cancels the
// remaining work and is returned; a done ctx is returned as its error.
// A failure cancels only the cells above it: a lower cell already
// claimed runs to completion, so its own failure, not a cancellation,
// is the one reported. fn must confine writes to per-index state for
// results to be deterministic.
func (r *Runner) ForEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	w := r.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		mu      sync.Mutex
		lowest  = n // the lowest failing index so far
		first   error
		running = make(map[int]context.CancelFunc)
	)
	// begin gives cell i its own context, cancelled by a failure below
	// it or by ctx; false means a lower cell has failed already.
	begin := func(i int) (context.Context, bool) {
		mu.Lock()
		defer mu.Unlock()
		if i > lowest {
			return nil, false
		}
		cctx, cancel := context.WithCancel(ctx)
		running[i] = cancel
		return cctx, true
	}
	end := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		running[i]()
		delete(running, i)
		if err == nil || i > lowest {
			return
		}
		lowest, first = i, err
		for k, cancel := range running {
			if k > i {
				cancel()
			}
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				cctx, ok := begin(i)
				if !ok {
					return
				}
				end(i, fn(cctx, i))
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return first
	}
	return ctx.Err()
}

// Cell is one point of the evaluation grid: a benchmark simulated under
// one configuration.
type Cell struct {
	Bench *Bench
	V     Variant
}

// EvalGrid simulates every cell and returns the normalized
// percent-of-strict execution times in cell order. Cells are evaluated
// concurrently; the output is identical to evaluating them serially.
func (r *Runner) EvalGrid(ctx context.Context, cells []Cell) ([]float64, error) {
	out := make([]float64, len(cells))
	err := r.ForEach(ctx, len(cells), func(ctx context.Context, i int) error {
		c := cells[i]
		res, err := c.Bench.SimulateCtx(ctx, c.V)
		if err != nil {
			return err
		}
		r.record(res)
		out[i] = 100 * float64(res.TotalCycles) / float64(c.Bench.StrictTotal(c.V.Link))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
