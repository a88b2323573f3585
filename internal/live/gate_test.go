package live

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"nonstrict/internal/classfile"
	"nonstrict/internal/obs"
	"nonstrict/internal/stream"
)

// fakeClock is a hand-cranked time source for gate-deadline tests. Its
// wall reading (Now) and its monotonic axis (which drives AfterFunc
// timers) are deliberately separate: Jump steps only the wall clock —
// the skew a suspended host or an NTP step produces — while Advance
// moves both, firing due timers. A correct gate budget follows only
// the monotonic axis.
type fakeClock struct {
	mu     sync.Mutex
	wall   time.Time
	mono   time.Duration
	timers []*fakeTimer
	armed  int
}

type fakeTimer struct {
	c       *fakeClock
	fireAt  time.Duration
	f       func()
	stopped bool
}

func newFakeClock() *fakeClock {
	return &fakeClock{wall: time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wall
}

func (c *fakeClock) AfterFunc(d time.Duration, f func()) gateTimer {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armed++
	t := &fakeTimer{c: c, fireAt: c.mono + d, f: f}
	c.timers = append(c.timers, t)
	return t
}

func (t *fakeTimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	was := !t.stopped
	t.stopped = true
	return was
}

// Jump steps the wall clock without advancing the monotonic axis.
func (c *fakeClock) Jump(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wall = c.wall.Add(d)
}

// Advance moves both clocks forward and fires timers that come due.
func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.mono += d
	c.wall = c.wall.Add(d)
	var due []*fakeTimer
	keep := c.timers[:0]
	for _, t := range c.timers {
		if !t.stopped && t.fireAt <= c.mono {
			due = append(due, t)
		} else {
			keep = append(keep, t)
		}
	}
	c.timers = keep
	c.mu.Unlock()
	for _, t := range due {
		t.f() // outside c.mu: callbacks take the session's lock
	}
}

func (c *fakeClock) armedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.armed
}

func (c *fakeClock) activeTimers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, t := range c.timers {
		if !t.stopped {
			n++
		}
	}
	return n
}

// gateSession builds the minimal session a gate wait needs, on a fake
// clock, with no stream behind it (so nothing ever becomes ready
// except by the test's hand).
func gateSession(fc *fakeClock, timeout time.Duration) *Session {
	s := newSession(Options{GateTimeout: timeout})
	s.ctx = context.Background()
	s.now, s.afterFunc = fc.Now, fc.AfterFunc
	s.start = fc.Now()
	return s
}

// arrive marks ref's body and class arrived now, as the loader's events
// would.
func arrive(s *Session, ref classfile.Ref) {
	s.arrive(ref, 0)
	s.arrive(classfile.Ref{Class: ref.Class}, 0)
}

// settle gives the parked goroutine a moment to process a wakeup, then
// reports whether the wait has returned.
func settle(errc <-chan error) (error, bool) {
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-errc:
		return err, true
	default:
		return nil, false
	}
}

// TestGateDeadlineImmuneToWallClockSteps is the S2 regression. The
// gate budget must be a single monotonic timer armed once at entry:
// re-deriving "time remaining" from wall-clock subtraction on each
// spurious wakeup lets a host suspend or clock step fire
// ErrGateTimeout early (wall jumped forward) or never (wall jumped
// back). Here the wall clock jumps an hour in both directions
// mid-wait, spurious broadcasts storm the waiter, and the deadline
// still fires exactly when the monotonic budget elapses — on the one
// and only timer armed.
func TestGateDeadlineImmuneToWallClockSteps(t *testing.T) {
	fc := newFakeClock()
	rt := gateSession(fc, 30*time.Second)
	ref := classfile.Ref{Class: "Main", Name: "main"}

	errc := make(chan error, 1)
	go func() { errc <- rt.AwaitMethod(ref) }()
	for i := 0; fc.armedCount() == 0; i++ {
		if i > 500 {
			t.Fatal("gate never armed its deadline timer")
		}
		time.Sleep(time.Millisecond)
	}

	// 10s of real waiting, then the wall leaps an hour ahead. A budget
	// recomputed from the wall clock would now be overdrawn and fire
	// ~20s early.
	fc.Advance(10 * time.Second)
	fc.Jump(time.Hour)
	rt.cond.Broadcast()
	if err, done := settle(errc); done {
		t.Fatalf("deadline fired early after a forward wall step: %v", err)
	}

	// The wall leaps two hours back (suspend/resume skew). A recomputed
	// budget would now see hours of headroom and never fire.
	fc.Advance(10 * time.Second)
	fc.Jump(-2 * time.Hour)
	rt.cond.Broadcast()
	if err, done := settle(errc); done {
		t.Fatalf("deadline fired during backward wall step: %v", err)
	}

	// Monotonic budget elapses: 10+10+10 = 30s.
	fc.Advance(10 * time.Second)
	select {
	case err := <-errc:
		if !errors.Is(err, ErrGateTimeout) {
			t.Fatalf("err = %v, want ErrGateTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deadline never fired after the monotonic budget elapsed")
	}

	if got := fc.armedCount(); got != 1 {
		t.Fatalf("gate armed %d timers, want exactly 1 (no spurious-wakeup re-arming)", got)
	}
}

// TestGateReleaseStopsTimerAndAttributesWait: a wait released by the
// method becoming ready must return nil, release its deadline timer,
// and record a Wait whose transfer/repair/gate parts sum to the wait.
func TestGateReleaseStopsTimerAndAttributesWait(t *testing.T) {
	fc := newFakeClock()
	rt := gateSession(fc, 30*time.Second)
	ref := classfile.Ref{Class: "Main", Name: "main"}

	errc := make(chan error, 1)
	go func() { errc <- rt.AwaitMethod(ref) }()
	for i := 0; fc.armedCount() == 0; i++ {
		if i > 500 {
			t.Fatal("gate never armed its deadline timer")
		}
		time.Sleep(time.Millisecond)
	}

	fc.Advance(10 * time.Second)
	arrive(rt, ref)

	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("AwaitMethod: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wait never released after the method became ready")
	}

	if n := fc.activeTimers(); n != 0 {
		t.Fatalf("%d deadline timers still armed after release, want 0", n)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if len(rt.waits) != 1 {
		t.Fatalf("recorded %d waits, want 1", len(rt.waits))
	}
	w := rt.waits[0]
	if w.Wait != 10*time.Second {
		t.Fatalf("Wait = %v, want 10s", w.Wait)
	}
	if w.Transfer+w.Repair+w.Gate != w.Wait {
		t.Fatalf("decomposition %v+%v+%v does not sum to Wait %v", w.Transfer, w.Repair, w.Gate, w.Wait)
	}
	if w.Transfer != 10*time.Second || w.Repair != 0 || w.Gate != 0 {
		t.Fatalf("attribution = transfer %v, repair %v, gate %v; want all 10s in transfer", w.Transfer, w.Repair, w.Gate)
	}
	if rt.stall != w.Wait {
		t.Fatalf("stall = %v, want %v", rt.stall, w.Wait)
	}
}

// TestGateDisabledDeadlineArmsNothing: a negative GateTimeout disables
// the deadline entirely — no timer, no timeout, release only by
// readiness.
func TestGateDisabledDeadlineArmsNothing(t *testing.T) {
	fc := newFakeClock()
	rt := gateSession(fc, -1)
	ref := classfile.Ref{Class: "Main", Name: "main"}

	errc := make(chan error, 1)
	go func() { errc <- rt.AwaitMethod(ref) }()

	fc.Advance(time.Hour)
	rt.cond.Broadcast()
	if err, done := settle(errc); done {
		t.Fatalf("disabled deadline still fired: %v", err)
	}
	if got := fc.armedCount(); got != 0 {
		t.Fatalf("disabled deadline armed %d timers, want 0", got)
	}

	arrive(rt, ref)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("AwaitMethod: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wait never released")
	}
}

// TestGateReadyNeedArmsNothing: the deadline is armed when a wait first
// blocks, so a need that is already ready — most crossings of a live
// session — returns without a timer or a closure.
func TestGateReadyNeedArmsNothing(t *testing.T) {
	fc := newFakeClock()
	rt := gateSession(fc, 30*time.Second)
	ref := classfile.Ref{Class: "Main", Name: "main"}
	arrive(rt, ref)

	if err := rt.AwaitMethod(ref); err != nil {
		t.Fatalf("AwaitMethod: %v", err)
	}
	if err := rt.AwaitClass(ref.Class); err != nil {
		t.Fatalf("AwaitClass: %v", err)
	}
	if got := fc.armedCount(); got != 0 {
		t.Fatalf("ready needs armed %d timers, want 0", got)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if len(rt.waits) != 1 || rt.waits[0].Wait != 0 {
		t.Fatalf("waits = %+v, want one zero-length wait", rt.waits)
	}
}

// TestGateNeverDemandsAnInstalledUnit pins the window between the loader
// installing a unit and the unit's event reaching the gate. The loader's
// cursor is past the unit by then, so a gate that judged predicted order
// by the cursor alone called the need a mispredict and demand-fetched a
// unit the loader already held. Here the executor's install step blocks
// on the entry class's ClassLinked, holding the window open, while the
// gate parks on that class; releasing the install step must release the
// wait with no mispredict and no range request.
func TestGateNeverDemandsAnInstalledUnit(t *testing.T) {
	p := plan(t, "Hanoi")
	srv := serve(t, p, stream.Fault{})
	main := p.rp.MainClass
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()
	rec := obs.NewRecorder(0)
	s, err := Open(context.Background(), Options{
		URL:       srv.URL + "/app",
		TOCURL:    srv.URL + "/app.toc",
		Name:      p.app.Name,
		MainClass: main,
		Client:    fastClient(),
		Obs:       rec,
	}, func(c *classfile.Class) error {
		if c.Name == main {
			close(entered)
			<-release
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-entered

	errc := make(chan error, 1)
	go func() { errc <- s.AwaitClass(main) }()
	for parked := false; !parked; {
		select {
		case err := <-errc:
			t.Fatalf("AwaitClass(%s) returned before it parked: %v", main, err)
		case <-time.After(time.Millisecond):
		}
		for _, e := range rec.Events() {
			parked = parked || e.Kind == obs.GateBlock && e.Name == "class "+main
		}
	}
	unblock()
	if err := <-errc; err != nil {
		t.Fatalf("AwaitClass(%s): %v", main, err)
	}
	st, err := s.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st.Mispredicts != 0 || st.DemandFetches != 0 {
		t.Errorf("a class the loader already held cost %d mispredicts and %d demand fetches, want 0 and 0",
			st.Mispredicts, st.DemandFetches)
	}
}
