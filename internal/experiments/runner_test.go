package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"nonstrict/internal/transfer"
)

// TestPaperTables is the CI bench-smoke gate: the concurrent runner must
// produce byte-identical rendered tables to the serial path. -short
// compares the cheapest simulated tables; the full run covers the
// partitioned grid and the summary figure too.
func TestPaperTables(t *testing.T) {
	par := suite(t) // shared suite: default pool (GOMAXPROCS workers)
	var ser Suite
	ser.SetWorkers(1)
	if _, err := ser.Benches(); err != nil {
		t.Fatal(err)
	}

	type gen struct {
		name string
		run  func(s *Suite) (string, error)
	}
	gens := []gen{
		{"Table5", func(s *Suite) (string, error) {
			r, err := s.TableParallelCtx(context.Background(), transfer.T1)
			return RenderParallel("Table 5", r), err
		}},
		{"Table7", func(s *Suite) (string, error) {
			r, err := s.Table7Ctx(context.Background())
			return RenderTable7(r), err
		}},
	}
	if !testing.Short() {
		gens = append(gens,
			gen{"Table6", func(s *Suite) (string, error) {
				r, err := s.TableParallelCtx(context.Background(), transfer.Modem)
				return RenderParallel("Table 6", r), err
			}},
			gen{"Table10", func(s *Suite) (string, error) {
				r, err := s.Table10Ctx(context.Background())
				return RenderTable10(r), err
			}},
			gen{"Figure6", func(s *Suite) (string, error) {
				r, err := s.Figure6Ctx(context.Background())
				return RenderFigure6(r), err
			}},
		)
	}
	for _, g := range gens {
		want, err := g.run(&ser)
		if err != nil {
			t.Fatalf("%s serial: %v", g.name, err)
		}
		got, err := g.run(par)
		if err != nil {
			t.Fatalf("%s parallel: %v", g.name, err)
		}
		if got != want {
			t.Errorf("%s: parallel rendering differs from serial:\n--- parallel ---\n%s\n--- serial ---\n%s", g.name, got, want)
		}
	}
	if st := par.RunnerStats(); st.Cells == 0 || st.Demands == 0 {
		t.Errorf("parallel suite recorded no work: %+v", st)
	}
}

// TestEvalGridWorkerEquivalence: the same grid under different pool
// sizes yields exactly equal values in exactly the same order.
func TestEvalGridWorkerEquivalence(t *testing.T) {
	b, err := suite(t).Bench("Hanoi")
	if err != nil {
		t.Fatal(err)
	}
	var cells []Cell
	for _, ord := range Orders {
		for _, limit := range ParallelLimits {
			cells = append(cells, Cell{Bench: b, V: Variant{
				Order: ord, Engine: Parallel, Mode: transfer.NonStrict,
				Limit: limit, Link: transfer.Modem,
			}})
		}
	}
	var want []float64
	for _, w := range []int{1, 2, 3, 16} {
		r := &Runner{Workers: w}
		got, err := r.EvalGrid(context.Background(), cells)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("workers=%d cell %d: %v != %v", w, i, got[i], want[i])
			}
		}
	}
}

// TestRunnerCancellation: a canceled context aborts grid evaluation and
// table generation with the context's error.
func TestRunnerCancellation(t *testing.T) {
	s := suite(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.TableParallelCtx(ctx, transfer.T1); !errors.Is(err, context.Canceled) {
		t.Errorf("TableParallelCtx under canceled ctx: %v", err)
	}
	if _, err := s.Table7Ctx(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Table7Ctx under canceled ctx: %v", err)
	}
	if _, err := s.Table10Ctx(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Table10Ctx under canceled ctx: %v", err)
	}
	if _, err := s.Figure6Ctx(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Figure6Ctx under canceled ctx: %v", err)
	}

	// A canceled load must not latch the suite into a permanent error.
	var fresh Suite
	if _, err := fresh.BenchesCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("BenchesCtx under canceled ctx: %v", err)
	}
	if fresh.loaded {
		t.Error("canceled load latched the suite")
	}

	// Mid-flight cancellation: cancel from inside a cell.
	b, err := s.Bench("Hanoi")
	if err != nil {
		t.Fatal(err)
	}
	mctx, mcancel := context.WithCancel(context.Background())
	defer mcancel()
	r := &Runner{Workers: 2}
	var ran atomic.Int64
	err = r.ForEach(mctx, 64, func(ctx context.Context, i int) error {
		ran.Add(1)
		if i == 0 {
			mcancel()
		}
		_, err := b.SimulateCtx(ctx, Variant{Order: Test, Engine: Interleaved, Mode: transfer.NonStrict, Link: transfer.T1})
		return err
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("mid-flight cancel: err = %v", err)
	}
	if n := ran.Load(); n >= 64 {
		t.Errorf("cancellation did not stop the pool: %d of 64 cells started", n)
	}
}

// TestForEachFirstErrorWins: with several failing indices, the lowest
// index's error is reported, deterministically, at any worker count.
func TestForEachFirstErrorWins(t *testing.T) {
	for _, w := range []int{1, 4} {
		r := &Runner{Workers: w}
		err := r.ForEach(context.Background(), 32, func(ctx context.Context, i int) error {
			if i%5 == 3 {
				return fmt.Errorf("cell %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "cell 3 failed" {
			t.Errorf("workers=%d: err = %v, want cell 3 failed", w, err)
		}
	}
}

// TestForEachLowerCellOutlivesHigherFailure: a failure cancels only the
// cells above it. Cell 1 fails while cell 0 is still running; cell 0's
// context stays live, so cell 0's own failure is the one reported, and
// cell 2, above the failure, never runs.
func TestForEachLowerCellOutlivesHigherFailure(t *testing.T) {
	failed := make(chan struct{}, 1)
	var ran2 atomic.Bool
	err := (&Runner{Workers: 2}).ForEach(context.Background(), 3, func(ctx context.Context, i int) error {
		switch i {
		case 0:
			<-failed
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(50 * time.Millisecond):
				return errors.New("cell 0 failed")
			}
		case 1:
			failed <- struct{}{}
			return errors.New("cell 1 failed")
		}
		ran2.Store(true)
		return nil
	})
	if err == nil || err.Error() != "cell 0 failed" {
		t.Errorf("err = %v, want cell 0 failed", err)
	}
	if ran2.Load() {
		t.Error("cell 2 ran after cell 1 failed")
	}
}

// TestRunnerStatsAccumulate: counters reflect the simulations run, and
// the perfect order records zero mispredicts while SCG records some.
func TestRunnerStatsAccumulate(t *testing.T) {
	b, err := suite(t).Bench("Hanoi")
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Workers: 2}
	cells := []Cell{
		{Bench: b, V: Variant{Order: Test, Engine: Parallel, Mode: transfer.NonStrict, Limit: 4, Link: transfer.T1}},
		{Bench: b, V: Variant{Order: Test, Engine: Interleaved, Mode: transfer.NonStrict, Link: transfer.Modem}},
	}
	if _, err := r.EvalGrid(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Cells != 2 {
		t.Errorf("Cells = %d, want 2", st.Cells)
	}
	if st.Demands <= 0 || st.Stalls <= 0 || st.StallCycles <= 0 {
		t.Errorf("expected positive demand/stall counters: %+v", st)
	}
	if st.Mispredicts != 0 {
		t.Errorf("perfect order recorded %d mispredicts", st.Mispredicts)
	}
}
