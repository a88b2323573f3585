package live

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"nonstrict/internal/classfile"
	"nonstrict/internal/stream"
	"nonstrict/internal/vm"
)

// needTrace is the method first-use order of a strict test-input run:
// what the VM would ask the gate for, in the order it would ask.
func needTrace(t *testing.T, p planned) []classfile.Ref {
	t.Helper()
	ln, err := vm.Link(p.rp)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ln.Run(vm.Options{Args: p.app.TestArgs, MaxSteps: 5e8})
	if err != nil {
		t.Fatal(err)
	}
	ix := ln.Index()
	var needs []classfile.Ref
	for _, id := range m.Profile().FirstUse {
		needs = append(needs, ix.Ref(id))
	}
	return needs
}

// replay drives a session the way the fleet does: no VM, no install
// step, just the need trace through the gate.
func replay(t *testing.T, p planned, needs []classfile.Ref, srv *httptest.Server, timeout time.Duration) (*Stats, error, time.Duration) {
	t.Helper()
	s, err := Open(context.Background(), Options{
		URL:         srv.URL + "/app",
		TOCURL:      srv.URL + "/app.toc",
		Name:        p.app.Name,
		MainClass:   p.rp.MainClass,
		Client:      fastClient(),
		GateTimeout: timeout,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range needs {
		if err := s.AwaitMethod(ref); err != nil {
			s.Close()
			t.Fatalf("need %v: %v", ref, err)
		}
	}
	began := time.Now()
	st, err := s.Close()
	return st, err, time.Since(began)
}

// TestSessionReplayWithoutVM pins the seam the fleet stands on: a
// Session with no executor behind it releases every need of a trace,
// heals a corrupt main-stream unit through the repair hook, accounts a
// mispredict for exactly the crossings it demand-fetched, and ends when
// the trace does: a never-needed tail of the stream that stalls for
// good costs Close nothing.
func TestSessionReplayWithoutVM(t *testing.T) {
	p := plan(t, "Hanoi")
	needs := needTrace(t, p)

	t.Run("corruption", func(t *testing.T) {
		// The stream crawls, so the replay outruns it and demand-fetches.
		srv := crawlServer(t, p, stream.Fault{CorruptEvery: corruptTarget(t, p, needs), Seed: 31})
		st, err, _ := replay(t, p, needs, srv, 10*time.Second)
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
		if len(st.Waits) != len(needs) {
			t.Fatalf("%d crossings recorded for %d needs", len(st.Waits), len(needs))
		}
		demanded := 0
		for i, w := range st.Waits {
			if w.Method != needs[i] {
				t.Fatalf("crossing %d is %v, want %v", i, w.Method, needs[i])
			}
			if w.Transfer+w.Repair+w.Gate != w.Wait {
				t.Errorf("%v: %v+%v+%v does not sum to the wait %v", w.Method, w.Transfer, w.Repair, w.Gate, w.Wait)
			}
			if w.Demand {
				demanded++
			}
		}
		if demanded == 0 || st.DemandFetches < demanded {
			t.Errorf("the replay outran a crawling stream with %d demanded crossings and %d range requests", demanded, st.DemandFetches)
		}
		if st.Mispredicts != demanded {
			t.Errorf("Mispredicts = %d, but %d crossings were demand-fetched", st.Mispredicts, demanded)
		}
		if st.Integrity.Repaired == 0 || st.Integrity.Outstanding != 0 {
			t.Errorf("corrupt unit not healed: %+v", st.Integrity)
		}
		// The crawling stream is cut wherever it stands when the trace
		// ends; only a stream that completed first had its digest checked.
		if st.StreamBytes > int64(len(p.data)) ||
			st.Integrity.DigestVerified && st.StreamBytes != int64(len(p.data)) {
			t.Errorf("%d stream bytes of %d, digest verified %v", st.StreamBytes, len(p.data), st.Integrity.DigestVerified)
		}
		if st.Degraded != "" {
			t.Errorf("degraded: %s", st.Degraded)
		}
		if st.Classes == 0 || st.Methods < len(needs) {
			t.Errorf("%d classes, %d methods arrived for %d needs", st.Classes, st.Methods, len(needs))
		}
	})

	t.Run("stalled-tail", func(t *testing.T) {
		// The stream stalls for good just past the last unit the trace
		// needs (further in than any unit is long, so range replies never
		// reach the stall): execution finishes, and Close cuts the stalled
		// tail at once — it neither waits out the stall nor reports it.
		var stall int64
		for _, u := range parseTOC(t, p) {
			for _, n := range needs {
				if u.Method == n {
					stall = max(stall, u.Off+int64(u.Len)+1)
				}
			}
		}
		if stall >= int64(len(p.data)) {
			t.Fatal("the trace needs the stream's last unit; there is no tail to stall")
		}
		st, err, took := replay(t, p, needs, serve(t, p, stream.Fault{StallAfter: stall, Seed: 32}), 300*time.Millisecond)
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
		if took >= 100*time.Millisecond {
			t.Errorf("Close took %v after the trace ended, want the cut to cost nothing", took)
		}
		if len(st.Waits) != len(needs) || st.StreamBytes >= int64(len(p.data)) {
			t.Errorf("%d of %d needs crossed, %d of %d stream bytes", len(st.Waits), len(needs), st.StreamBytes, len(p.data))
		}
	})
}
