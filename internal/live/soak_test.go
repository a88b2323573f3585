package live

import (
	"context"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"nonstrict/internal/stream"
	"nonstrict/internal/vm"
)

// TestGateSoakSeeded is the availability gate's randomized soak — the
// internal/live arm of the internal/check stress discipline: seeded
// fault cocktails (disconnects and corruption, read through a T1-shaped
// connection on even seeds) against overlapped runs, asserting the gate
// invariants the checker pins. Every gate wait must eventually unblock
// (a context deadline converts a lost wakeup into a failure instead of
// a hung suite), each recorded wait's Transfer/Repair/Gate
// decomposition must sum exactly, and the run must be bit-identical to
// the strict reference. Failures name the seed.
func TestGateSoakSeeded(t *testing.T) {
	p := plan(t, "Hanoi")
	want := reference(t, p)
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		fault := stream.Fault{
			Seed:         uint64(seed),
			DropEvery:    400 + 300*seed,
			CorruptEvery: 900 + 500*seed,
		}
		client := fastClient()
		if seed%2 == 0 {
			client.HTTP = shapedHTTP(stream.LinkT1, uint64(seed))
		}
		srv := serve(t, p, fault)
		// The watchdog: a lost wakeup at the gate surfaces as this
		// deadline, with the seed, not as a hung test binary.
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		m, st, err := Run(ctx, Options{
			URL:       srv.URL + "/app",
			TOCURL:    srv.URL + "/app.toc",
			Name:      p.app.Name,
			MainClass: p.rp.MainClass,
			Client:    client,
			Run:       vm.Options{Args: p.app.TestArgs, MaxSteps: 5e8},
		})
		cancel()
		if err != nil {
			t.Fatalf("seed %d: overlapped run failed (a timeout here is a lost wakeup at the gate): %v", seed, err)
		}
		checkRun(t, p, m, want)
		for _, w := range st.Waits {
			if w.Transfer+w.Repair+w.Gate != w.Wait {
				t.Fatalf("seed %d: wait for %v decomposes to %v+%v+%v != %v",
					seed, w.Method, w.Transfer, w.Repair, w.Gate, w.Wait)
			}
		}
		// Every corrupt unit was repaired, or the session degraded — or
		// the cut at Close canceled the last repair of a stream that
		// was still running.
		unrepaired := st.Integrity.CorruptUnits - st.Integrity.Repaired
		if unrepaired > 1 || unrepaired == 1 && st.Degraded == "" && st.TransferDone < st.ExecDone {
			t.Fatalf("seed %d: %d corrupt units, %d repaired, and the session did not degrade",
				seed, st.Integrity.CorruptUnits, st.Integrity.Repaired)
		}
	}
}

// shapedHTTP is an HTTP client whose every connection reads through
// link's schedule, each drawing its jitter from the next seed after
// seed<<32.
func shapedHTTP(link stream.LinkClass, seed uint64) *http.Client {
	var conns atomic.Uint64
	dialer := &net.Dialer{}
	return &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return link.Shape(conn, seed<<32+conns.Add(1), 1), nil
		},
	}}
}
