package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"nonstrict/internal/vm"
)

// corruptUnit returns a copy of a well-formed stream with one payload
// byte of unit i flipped. The unit header stays intact, so the checksum
// — not the framing — must catch it.
func corruptUnit(t *testing.T, good []byte, i int) []byte {
	t.Helper()
	off, _, n := unitAt(t, good, i)
	mut := append([]byte(nil), good...)
	mut[off+headerSize+n/2] ^= 0x20
	return mut
}

// TestRepairHealsCorruptUnit flips a payload byte and checks the Repair
// hook is asked for exactly that unit, the repaired stream installs
// completely, and the counters record the round trip.
func TestRepairHealsCorruptUnit(t *testing.T) {
	app, rp, _, w := plan(t, "Hanoi")
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	toc := w.TOC()

	for i, name := range map[int]string{0: "global", 1: "body"} {
		t.Run(name, func(t *testing.T) {
			mut := corruptUnit(t, good, i)
			l := NewLoader(rp.Name, rp.MainClass, nil)
			var reqs []RepairRequest
			l.Repair = func(req RepairRequest) ([]byte, error) {
				reqs = append(reqs, req)
				// Serve the true payload out of the pristine copy, as a
				// byte-range re-fetch would.
				u := toc[i]
				return good[u.Off : u.Off+int64(u.Len)], nil
			}
			if err := l.Load(bytes.NewReader(mut), nil); err != nil {
				t.Fatal(err)
			}
			if len(reqs) != 1 {
				t.Fatalf("repair hook called %d times, want 1", len(reqs))
			}
			if reqs[0].Class != toc[i].Class || reqs[0].Kind != toc[i].Kind ||
				reqs[0].Body != toc[i].Body || reqs[0].Len != toc[i].Len || reqs[0].CRC != toc[i].CRC {
				t.Errorf("repair request %+v does not match unit table entry %+v", reqs[0], toc[i])
			}
			st := l.Integrity()
			if st.CorruptUnits != 1 || st.Repaired != 1 || st.Quarantined != 0 {
				t.Errorf("counters = %+v, want 1 corrupt / 1 repaired / 0 quarantined", st)
			}
			if !st.DigestVerified {
				t.Error("whole-stream digest not verified after successful repair")
			}
			got, err := l.Program()
			if err != nil {
				t.Fatal(err)
			}
			ln, err := vm.Link(got)
			if err != nil {
				t.Fatal(err)
			}
			m, err := ln.Run(vm.Options{Args: app.TestArgs, MaxSteps: 1e8})
			if err != nil {
				t.Fatal(err)
			}
			if err := app.Check(m, false); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRepairAskedOnceThenQuarantined feeds the hook garbage: the hook
// owns retrying, so the loader must ask it exactly once, re-verify the
// reply (it is outside input), quarantine the unit, keep going, and
// report the incomplete program from Program().
func TestRepairAskedOnceThenQuarantined(t *testing.T) {
	_, rp, _, w := plan(t, "Hanoi")
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Corrupt a body unit (unit 1: the main class's first body).
	mut := corruptUnit(t, good, 1)
	l := NewLoader(rp.Name, rp.MainClass, nil)
	calls := 0
	l.Repair = func(req RepairRequest) ([]byte, error) {
		calls++
		return []byte("still garbage"), nil
	}
	if err := l.Load(bytes.NewReader(mut), nil); err != nil {
		t.Fatalf("quarantine should not fail the stream: %v", err)
	}
	if calls != 1 {
		t.Errorf("repair hook called %d times, want 1", calls)
	}
	st := l.Integrity()
	if st.Quarantined != 1 || st.Outstanding != 1 || st.Repaired != 0 {
		t.Errorf("counters = %+v, want 1 quarantined outstanding", st)
	}
	if st.DigestVerified {
		t.Error("digest claimed verified with a quarantined unit")
	}
	q := l.Quarantined()
	if len(q) != 1 || q[0].Kind != KindBody {
		t.Fatalf("quarantine list = %+v, want the one corrupt body", q)
	}
	if _, err := l.Program(); err == nil {
		t.Fatal("assembled a program with a quarantined body")
	} else if want := "quarantined"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Errorf("Program() error %q does not mention quarantine", err)
	}
}

// TestCanceledRepairEndsLoad: a repair the hook's caller canceled — a
// client session cut when its program finished — ends the load with
// the cancellation instead of quarantining a unit nobody will run.
func TestCanceledRepairEndsLoad(t *testing.T) {
	_, rp, _, w := plan(t, "Hanoi")
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	l := NewLoader(rp.Name, rp.MainClass, nil)
	l.Repair = func(RepairRequest) ([]byte, error) {
		return nil, fmt.Errorf("repair fetch: %w", context.Canceled)
	}
	if err := l.Load(bytes.NewReader(corruptUnit(t, buf.Bytes(), 1)), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Load = %v, want the repair's cancellation", err)
	}
	if st := l.Integrity(); st.CorruptUnits != 1 || st.Quarantined != 0 || st.Outstanding != 0 || st.DigestVerified {
		t.Errorf("counters = %+v, want 1 corrupt unit and nothing quarantined", st)
	}
}

// TestDemandHealsQuarantine quarantines a corrupt global (no repair
// hook would fire — Repair re-fetches garbage), then delivers clean
// copies through FeedDemand, as the live runtime's demand path would.
// The bodies that followed the corrupt global must have been quarantined
// with it, and the program must assemble completely afterwards.
func TestDemandHealsQuarantine(t *testing.T) {
	app, rp, _, w := plan(t, "Hanoi")
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	toc := w.TOC()

	mut := corruptUnit(t, good, 0) // the first global
	l := NewLoader(rp.Name, rp.MainClass, nil)
	l.Repair = func(RepairRequest) ([]byte, error) { return nil, errors.New("link down") }
	if err := l.Load(bytes.NewReader(mut), nil); err != nil {
		t.Fatal(err)
	}
	outstanding := l.Integrity().Outstanding
	if outstanding < 2 {
		t.Fatalf("%d units quarantined; the global's bodies should be quarantined with it", outstanding)
	}

	// Demand-deliver every quarantined unit from the pristine copy,
	// global first.
	for pass := 0; pass < 2; pass++ {
		for _, q := range l.Quarantined() {
			if (pass == 0) != (q.Kind == KindGlobal) {
				continue
			}
			u := toc[unitIndex(t, toc, q)]
			payload := good[u.Off : u.Off+int64(u.Len)]
			if _, err := l.FeedDemand(u.Class, u.Kind, u.Body, payload, u.CRC); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := l.Integrity().Outstanding; got != 0 {
		t.Fatalf("%d units still quarantined after demand heal", got)
	}
	got, err := l.Program()
	if err != nil {
		t.Fatal(err)
	}
	ln, err := vm.Link(got)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ln.Run(vm.Options{Args: app.TestArgs, MaxSteps: 1e8})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Check(m, false); err != nil {
		t.Fatal(err)
	}
}

// TestDemandDuringFailedRepairLeavesNoStaleQuarantine pins the
// demand-races-repair interleaving: while a corrupt unit's repair is
// failing, the demand path delivers a clean copy of the same unit (the
// live runtime does exactly this when the gate's out-of-order fetch
// wins the race). The quarantine that follows must
// notice the unit is already installed and record nothing — a stale
// entry here is unhealable (FeedDemand skips present units) and would
// pin Integrity().Outstanding above zero forever; for a global unit it
// would also shadow-quarantine every later clean body of the class.
func TestDemandDuringFailedRepairLeavesNoStaleQuarantine(t *testing.T) {
	app, rp, _, w := plan(t, "Hanoi")
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	toc := w.TOC()

	for i, name := range map[int]string{0: "global", 1: "body"} {
		t.Run(name, func(t *testing.T) {
			mut := corruptUnit(t, good, i)
			l := NewLoader(rp.Name, rp.MainClass, nil)
			l.Repair = func(req RepairRequest) ([]byte, error) {
				// The demand fetch lands a clean copy mid-repair…
				u := toc[i]
				payload := good[u.Off : u.Off+int64(u.Len)]
				if _, err := l.FeedDemand(u.Class, u.Kind, u.Body, payload, u.CRC); err != nil {
					t.Errorf("demand during repair: %v", err)
				}
				// …and the repair itself still fails.
				return []byte("garbage"), nil
			}
			if err := l.Load(bytes.NewReader(mut), nil); err != nil {
				t.Fatal(err)
			}
			st := l.Integrity()
			if st.CorruptUnits != 1 || st.Repaired != 0 {
				t.Errorf("counters = %+v, want 1 corrupt / 0 repaired", st)
			}
			if st.Quarantined != 0 || st.Outstanding != 0 {
				t.Errorf("stale quarantine left behind: %+v (list %+v)", st, l.Quarantined())
			}
			got, err := l.Program()
			if err != nil {
				t.Fatal(err)
			}
			ln, err := vm.Link(got)
			if err != nil {
				t.Fatal(err)
			}
			m, err := ln.Run(vm.Options{Args: app.TestArgs, MaxSteps: 1e8})
			if err != nil {
				t.Fatal(err)
			}
			if err := app.Check(m, false); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// unitIndex finds q's entry in the unit table.
func unitIndex(t *testing.T, toc []UnitInfo, q QuarantinedUnit) int {
	t.Helper()
	for i, u := range toc {
		if u.Class == q.Class && u.Kind == q.Kind && (q.Kind == KindGlobal || u.Body == q.Body) {
			return i
		}
	}
	t.Fatalf("quarantined unit %+v not in the unit table", q)
	return -1
}

// TestFeedDemandRejectsCorruptPayload: the demand path is just as
// exposed as the main stream; a payload that fails the unit table's
// checksum must never install.
func TestFeedDemandRejectsCorruptPayload(t *testing.T) {
	_, rp, _, w := plan(t, "Hanoi")
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	u := w.TOC()[0]
	payload := append([]byte(nil), good[u.Off:u.Off+int64(u.Len)]...)
	payload[0] ^= 0x01
	l := NewLoader(rp.Name, rp.MainClass, nil)
	_, err := l.FeedDemand(u.Class, u.Kind, u.Body, payload, u.CRC)
	if err == nil || !errors.Is(err, ErrStreamIntegrity) {
		t.Fatalf("err = %v, want ErrStreamIntegrity", err)
	}
	if l.LoadedClass(u.ClassName) != nil {
		t.Error("corrupt global installed anyway")
	}
}

// TestFeedDemandRejectsClassOutOfRange: the loader's per-class table is
// indexed by class index, so a demand unit whose index no unit header
// can carry is refused before the table grows to hold it.
func TestFeedDemandRejectsClassOutOfRange(t *testing.T) {
	_, rp, _, w := plan(t, "Hanoi")
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	u := w.TOC()[0]
	payload := buf.Bytes()[u.Off : u.Off+int64(u.Len)]
	l := NewLoader(rp.Name, rp.MainClass, nil)
	for _, ci := range []int{-1, MaxClasses + 1} {
		if _, err := l.FeedDemand(ci, u.Kind, u.Body, payload, u.CRC); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("class %d: err = %v, want out of range", ci, err)
		}
	}
	if l.LoadedClass(u.ClassName) != nil {
		t.Error("a unit with an out-of-range class index installed")
	}
}

// TestCleanStreamDigestVerified: the fault-free path must end with the
// whole-stream digest checked and no integrity counters ticked.
func TestCleanStreamDigestVerified(t *testing.T) {
	_, rp, _, w := plan(t, "Hanoi")
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	l := NewLoader(rp.Name, rp.MainClass, nil)
	if err := l.Load(&buf, nil); err != nil {
		t.Fatal(err)
	}
	st := l.Integrity()
	if !st.DigestVerified {
		t.Error("clean stream ended without digest verification")
	}
	if st.CorruptUnits != 0 || st.Repaired != 0 || st.Quarantined != 0 {
		t.Errorf("clean stream ticked integrity counters: %+v", st)
	}
}

// TestInstallRoutesShareVerifierScratch drives all three install routes
// at once — the main stream, a repaired unit, and demand fetches from
// several goroutines — over a stream large enough that they interleave.
// Every route verifies method bodies out of the loader's one owned
// verify.Scratch; installs are serialised under the loader's lock, so
// under -race this must be silent, every unit must install exactly once,
// and the assembled program must still run to its self-check.
func TestInstallRoutesShareVerifierScratch(t *testing.T) {
	app, rp, _, w := plan(t, "JavaCup")
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	toc := w.TOC()
	payload := func(u UnitInfo) []byte { return good[u.Off : u.Off+int64(u.Len)] }

	// Corrupt a body unit a third of the way in: the repair hook heals it
	// while the demand feeders are working on the tail.
	corrupt := len(toc) / 3
	for toc[corrupt].Kind != KindBody {
		corrupt++
	}
	mut := corruptUnit(t, good, corrupt)

	l := NewLoader(rp.Name, rp.MainClass, nil)
	var repairs atomic.Int64
	l.Repair = func(req RepairRequest) ([]byte, error) {
		repairs.Add(1)
		return payload(toc[corrupt]), nil
	}

	var ready, linked, demanded atomic.Int64
	count := func(evs ...Event) {
		for _, e := range evs {
			switch e.Kind {
			case MethodReady:
				ready.Add(1)
			case ClassLinked:
				linked.Add(1)
			}
		}
	}

	const feeders = 4
	start := make(chan struct{})
	var wg sync.WaitGroup
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			// Walk the table backwards from the end, each feeder its own
			// stride: the units the main stream reaches last.
			for i := len(toc) - 1 - f; i > len(toc)/2; i -= feeders {
				u := toc[i]
				if u.Kind == KindBody {
					// A body needs its class's global data in first.
					for _, g := range toc {
						if g.Kind == KindGlobal && g.Class == u.Class {
							evs, err := l.FeedDemand(g.Class, g.Kind, g.Body, payload(g), g.CRC)
							if err != nil {
								t.Errorf("demand global of class %d: %v", g.Class, err)
							}
							count(evs...)
							break
						}
					}
				}
				evs, err := l.FeedDemand(u.Class, u.Kind, u.Body, payload(u), u.CRC)
				if err != nil {
					t.Errorf("demand unit %d: %v", i, err)
				}
				count(evs...)
				demanded.Add(int64(len(evs)))
			}
		}()
	}
	close(start)
	// The main stream yields at every read, so that the feeders get to
	// run against it even on one CPU.
	if err := l.Load(yieldingReader{bytes.NewReader(mut)}, func(e Event) { count(e) }); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if d := demanded.Load(); d == 0 || d >= ready.Load()+linked.Load() {
		t.Errorf("%d of %d events came from the demand route: the routes did not interleave", d, ready.Load()+linked.Load())
	}

	bodies, globals := 0, 0
	for _, u := range toc {
		if u.Kind == KindBody {
			bodies++
		} else {
			globals++
		}
	}
	if ready.Load() != int64(bodies) || linked.Load() != int64(globals) {
		t.Errorf("%d MethodReady and %d ClassLinked events for %d bodies and %d globals: a unit installed twice or never",
			ready.Load(), linked.Load(), bodies, globals)
	}
	if st := l.Integrity(); st.CorruptUnits != 1 || st.Repaired != 1 || repairs.Load() != 1 || st.Outstanding != 0 {
		t.Errorf("integrity counters = %+v after %d repair calls, want one corrupt unit repaired once", st, repairs.Load())
	}
	got, err := l.Program()
	if err != nil {
		t.Fatal(err)
	}
	ln, err := vm.Link(got)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ln.Run(vm.Options{Args: app.TestArgs, MaxSteps: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Check(m, false); err != nil {
		t.Fatal(err)
	}
}

// yieldingReader yields the processor before every read.
type yieldingReader struct{ r io.Reader }

func (y yieldingReader) Read(p []byte) (int, error) {
	runtime.Gosched()
	return y.r.Read(p)
}
