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

	"nonstrict/internal/obs"
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
			if st.CorruptUnits != 1 || st.Repaired != 1 {
				t.Errorf("counters = %+v, want 1 corrupt / 1 repaired", st)
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

// TestRepairAskedOnceThenLoadFails feeds the hook garbage, and then an
// error: the hook owns retrying, so the loader must ask it exactly
// once, re-verify the reply (it is outside input), install nothing, and
// end the load with an ErrStreamIntegrity that wraps what the hook said.
// The units before the corrupt one stay installed, and the program is
// reported incomplete.
func TestRepairAskedOnceThenLoadFails(t *testing.T) {
	_, rp, _, w := plan(t, "Hanoi")
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt a body unit (unit 1: the main class's first body).
	mut := corruptUnit(t, buf.Bytes(), 1)
	linkDown := errors.New("link down")
	for name, reply := range map[string]struct {
		p   []byte
		err error
	}{"garbage": {p: []byte("still garbage")}, "error": {err: linkDown}} {
		t.Run(name, func(t *testing.T) {
			l := NewLoader(rp.Name, rp.MainClass, nil)
			calls := 0
			l.Repair = func(req RepairRequest) ([]byte, error) {
				calls++
				return reply.p, reply.err
			}
			err := l.Load(bytes.NewReader(mut), nil)
			if !errors.Is(err, ErrStreamIntegrity) {
				t.Fatalf("Load = %v, want ErrStreamIntegrity", err)
			}
			if reply.err != nil && !errors.Is(err, reply.err) {
				t.Errorf("Load = %v, does not wrap the hook's error", err)
			}
			if calls != 1 {
				t.Errorf("repair hook called %d times, want 1", calls)
			}
			st := l.Integrity()
			if st.CorruptUnits != 1 || st.Repaired != 0 || st.DigestVerified {
				t.Errorf("counters = %+v, want 1 corrupt, 0 repaired, digest unverified", st)
			}
			if got := l.UnitsConsumed(); got != 1 {
				t.Errorf("%d units consumed, want the one before the corrupt unit", got)
			}
			if _, err := l.Program(); err == nil {
				t.Fatal("assembled a program without the corrupt body")
			}
		})
	}
}

// TestCanceledRepairEndsLoad: a repair the hook's caller canceled — a
// client session cut when its program finished — ends the load with
// the cancellation itself, not an integrity failure.
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
	err := l.Load(bytes.NewReader(corruptUnit(t, buf.Bytes(), 1)), nil)
	if !errors.Is(err, context.Canceled) || errors.Is(err, ErrStreamIntegrity) {
		t.Fatalf("Load = %v, want the repair's cancellation", err)
	}
	if st := l.Integrity(); st.CorruptUnits != 1 || st.Repaired != 0 || st.DigestVerified {
		t.Errorf("counters = %+v, want 1 corrupt unit and nothing repaired", st)
	}
}

// TestCorruptHeaderCounted flips one byte of the third unit's header:
// the framing after it is lost, so Load ends there without asking the
// Repair hook, and the unit counts as corrupt beside a CRC-fail event,
// so a degraded session's counters name the unit that ended its stream.
func TestCorruptHeaderCounted(t *testing.T) {
	_, rp, _, w := plan(t, "Hanoi")
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), buf.Bytes()...)
	off, _, _ := unitAt(t, mut, 2)
	mut[off+3] ^= 0x01 // the payload length's high byte
	l := NewLoader(rp.Name, rp.MainClass, nil)
	l.Obs = obs.NewRecorder(64)
	l.Repair = func(RepairRequest) ([]byte, error) {
		t.Error("repair asked for a unit whose header failed")
		return nil, errors.New("unexpected")
	}
	if err := l.Load(bytes.NewReader(mut), nil); !errors.Is(err, ErrStreamIntegrity) {
		t.Fatalf("Load = %v, want ErrStreamIntegrity", err)
	}
	if st := l.Integrity(); st.CorruptUnits != 1 || st.Repaired != 0 || st.DigestVerified {
		t.Errorf("counters = %+v, want 1 corrupt, 0 repaired, digest unverified", st)
	}
	if got := l.UnitsConsumed(); got != 2 {
		t.Errorf("%d units consumed, want the two before the corrupt header", got)
	}
	fails := 0
	for _, e := range l.Obs.Events() {
		if e.Kind == obs.CRCFail {
			fails++
		}
	}
	if fails != 1 {
		t.Errorf("%d CRC-fail events, want 1", fails)
	}
}

// TestDemandFinishesAfterUnrepairedGlobal corrupts a later class's
// global unit and fails its repair, so Load ends there; then it delivers
// that unit and every one after it through FeedDemand, as a degraded
// client session does. The program must assemble and run.
func TestDemandFinishesAfterUnrepairedGlobal(t *testing.T) {
	app, rp, _, w := plan(t, "Hanoi")
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	toc := w.TOC()
	bad := 1
	for toc[bad].Kind != KindGlobal {
		bad++
	}

	l := NewLoader(rp.Name, rp.MainClass, nil)
	l.Repair = func(RepairRequest) ([]byte, error) { return nil, errors.New("link down") }
	if err := l.Load(bytes.NewReader(corruptUnit(t, good, bad)), nil); !errors.Is(err, ErrStreamIntegrity) {
		t.Fatalf("Load = %v, want ErrStreamIntegrity", err)
	}
	if got := l.UnitsConsumed(); got != bad {
		t.Fatalf("%d units consumed, want the %d before the corrupt global", got, bad)
	}
	if l.LoadedClass(toc[bad].ClassName) != nil {
		t.Fatal("the corrupt global installed")
	}
	for _, u := range toc[bad:] {
		if _, err := l.FeedDemand(u.Class, u.Kind, u.Body, good[u.Off:u.Off+int64(u.Len)], u.CRC); err != nil {
			t.Fatal(err)
		}
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
	if st.CorruptUnits != 0 || st.Repaired != 0 {
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
	if st := l.Integrity(); st.CorruptUnits != 1 || st.Repaired != 1 || repairs.Load() != 1 {
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
