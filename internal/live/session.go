package live

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"nonstrict/internal/classfile"
	"nonstrict/internal/obs"
	"nonstrict/internal/stream"
)

// DefaultGateTimeout bounds each availability-gate wait when Options
// leaves GateTimeout zero. A transfer that stops making progress —
// stalled connection, endlessly trickling retries — would otherwise park
// the executor forever; the deadline turns that hang into a clean
// per-invocation error.
const DefaultGateTimeout = 30 * time.Second

// ErrGateTimeout marks a gate wait that exceeded its deadline: the
// method or class never became available within Options.GateTimeout.
var ErrGateTimeout = errors.New("live: gate deadline exceeded")

// Session is one client session minus the executor: the unit table,
// fetched beside the stream, the loader with its repair hook, the
// transfer loop with its degradation to demand fetching, the
// availability gate with its deadline and demand policy, the cut at the
// end of execution, and the Stats. It implements vm.Gate, and the executor is whatever calls the
// gate: the VM's linker under Run, or a bare loop over a
// need trace (the fleet's clients), which installs nothing and only
// waits.
//
// A need is a classfile.Ref: a method body, or — with an empty Name — a
// class's global data.
//
// The session's mutex orders strictly before the loader's: gate waits
// hold s.mu and may query the loader, while event delivery and demand
// feeding take the loader's lock first and s.mu only after release.
type Session struct {
	opts    Options
	ctx     context.Context // canceled at Close, or by the caller's context
	cancel  context.CancelFunc
	client  *stream.FetchClient
	loader  *stream.Loader
	install func(*classfile.Class) error // the executor's link step; nil installs nothing
	toc     []stream.UnitInfo            // published under mu; immutable once tocReady is closed
	obs     *obs.Recorder
	start   time.Time

	tocReady     chan struct{}  // closed once the unit-table fetch has resolved, or at once without a TOCURL
	transferDone chan struct{}  // closed when the transfer loop returns
	fetches      sync.WaitGroup // the unit-table fetch and demand goroutines in flight

	// now and afterFunc are the gate's time sources — the real clock
	// unless a deadline test injects its own. The gate treats now as
	// advisory wall time (measurement only) and afterFunc as the sole
	// monotonic authority for deadlines — see gateBudget.
	now       func() time.Time
	afterFunc func(time.Duration, func()) gateTimer

	// arrived and waits are made at their first entry, sized once from
	// the stream header's unit count (Loader.Units): a unit delivers at
	// most one need, and a method is first used at most once.
	mu          sync.Mutex
	cond        *sync.Cond
	arrived     map[classfile.Ref]time.Duration // when each need's unit verified and installed, from run start
	demanded    map[classfile.Ref]bool          // demand fetch launched
	repairSpans []span                          // completed integrity-repair windows, in order
	err         error
	degraded    error // main stream died but the demand path can finish the run
	done        bool  // main stream ended: consumed, failed, or cut
	transferEnd time.Duration

	waits            []Wait
	stall            time.Duration
	demands          int
	mispredicts      int
	refetches        int
	classes, methods int
}

// gateTimer is the slice of *time.Timer the gate needs, so tests can
// substitute a hand-cranked clock.
type gateTimer interface{ Stop() bool }

// sinceStart is the run clock: elapsed time since the stream was opened.
func (s *Session) sinceStart() time.Duration { return s.now().Sub(s.start) }

// label names a need in events and errors.
func label(n classfile.Ref) string {
	if n.Name == "" {
		return "class " + n.Class
	}
	return n.String()
}

// delivers reports whether u is the unit need n waits for.
func delivers(u *stream.UnitInfo, n classfile.Ref) bool {
	if n.Name == "" {
		return u.Kind == stream.KindGlobal && u.ClassName == n.Class
	}
	return u.Kind == stream.KindBody && u.Method == n
}

// unit is the one unit-table lookup: the first unit match accepts.
// Callers have seen the table published (under s.mu or tocReady).
func (s *Session) unit(match func(*stream.UnitInfo) bool) *stream.UnitInfo {
	for i := range s.toc {
		if match(&s.toc[i]) {
			return &s.toc[i]
		}
	}
	return nil
}

func newSession(opts Options) *Session {
	s := &Session{
		opts:     opts,
		client:   opts.Client,
		loader:   stream.NewLoader(opts.Name, opts.MainClass, nil),
		obs:      opts.Obs,
		now:      time.Now,
		demanded: make(map[classfile.Ref]bool),
	}
	s.afterFunc = func(d time.Duration, f func()) gateTimer { return time.AfterFunc(d, f) }
	if s.client == nil {
		s.client = &stream.FetchClient{}
	}
	s.cond = sync.NewCond(&s.mu)
	s.loader.Obs = opts.Obs
	return s
}

// Open starts a session on the stream opts names: it opens the stream at
// once and feeds the loader from its own goroutine while the caller
// executes, crossing the gate (AwaitMethod, AwaitClass) at every first
// use. The unit table (when opts.TOCURL is set) is fetched beside the
// stream, never in front of it: only a demand fetch, a repair or a dead
// stream waits for it. install is the executor's link step, called for
// each class before the gate releases it; a replay that executes nothing
// passes nil. Open itself does not fail: a failure of the stream or of
// the table is the session's, reported at the gate or by Close. The
// caller must Close the session.
func Open(ctx context.Context, opts Options, install func(*classfile.Class) error) (*Session, error) {
	s := newSession(opts)
	s.open(ctx, install)
	return s, nil
}

func (s *Session) open(ctx context.Context, install func(*classfile.Class) error) {
	s.install = install
	s.ctx, s.cancel = context.WithCancel(ctx)
	s.start = s.now()
	s.tocReady = make(chan struct{})
	if s.opts.TOCURL == "" {
		close(s.tocReady)
	} else {
		// With a unit table in hand, a corrupt main-stream unit can be
		// healed by re-fetching just its bytes instead of failing the
		// transfer; the hook waits for the table only if a unit needs it.
		s.loader.Repair = s.repairUnit
		s.fetches.Add(1)
		go func() {
			defer s.fetches.Done()
			defer close(s.tocReady)
			s.fetchTOC()
		}()
	}
	s.transferDone = make(chan struct{})
	go func() {
		defer close(s.transferDone)
		s.transferLoop()
	}()
}

// fetchTOC fetches and parses the unit table beside the stream, then
// publishes it and wakes the gate, whose waiters judge their needs
// against it. A table that cannot be fetched or parsed is the session's
// error.
func (s *Session) fetchTOC() {
	var buf bytes.Buffer
	if _, err := s.client.Fetch(s.ctx, s.opts.TOCURL, &buf); err != nil {
		s.fail(fmt.Errorf("live: fetching unit table: %w", err))
		return
	}
	toc, err := stream.ParseTOC(buf.Bytes())
	if err != nil {
		s.fail(err)
		return
	}
	s.mu.Lock()
	s.toc = toc
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Close ends the session once execution is over and returns the
// measured Stats. The transfer stops here: Close cancels the session,
// which cuts the never-executed tail of the stream instead of draining
// it, joins the transfer loop and every demand fetch, and only then takes
// the snapshot. The error is the session's own — a failure the demand
// path could not absorb while the program ran — and is nil for a clean
// or merely degraded session; work the cut interrupts is never an error.
func (s *Session) Close() (*Stats, error) {
	execDone := s.sinceStart()
	s.cancel()
	<-s.transferDone
	s.fetches.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	st := &Stats{
		Transfer:      s.client.Stats(),
		StreamBytes:   s.loader.Consumed(),
		DemandBytes:   s.loader.DemandBytes(),
		DemandFetches: s.demands,
		Mispredicts:   s.mispredicts,
		ExecDone:      execDone,
		TransferDone:  s.transferEnd,
		StallTime:     s.stall,
		Waits:         s.waits,
		Classes:       s.classes,
		Methods:       s.methods,
		Integrity:     s.loader.Integrity(),
		Refetches:     s.refetches,
	}
	if s.degraded != nil {
		st.Degraded = s.degraded.Error()
	}
	if len(st.Waits) > 0 {
		st.FirstRunnable = st.Waits[0].At + st.Waits[0].Wait
	}
	return st, s.err
}

// transferLoop streams the virtual file into the loader until EOF or
// failure, then marks the session done and wakes every gate waiter.
// When the stream dies with a transport or integrity failure and a unit
// table is available, the failure degrades instead of killing the run:
// the remaining units are simply demand-fetched — strict fetching of
// whatever non-strict delivery could not provide. A dead stream waits
// for the table's fetch to resolve before it chooses, so a table that
// failed too is the error reported, whichever failed first.
func (s *Session) transferLoop() {
	err := func() error {
		body, err := s.client.Open(s.ctx, s.opts.URL)
		if err != nil {
			return err
		}
		defer body.Close()
		return s.loader.Load(body, func(e stream.Event) {
			if herr := s.handleEvent(e); herr != nil {
				s.fail(herr)
			}
		})
	}()
	end := s.sinceStart()
	if err != nil {
		<-s.tocReady // the table's fetch runs under s.ctx, so a cut resolves it too
	}
	s.mu.Lock()
	s.done = true
	s.transferEnd = end
	if err != nil && s.ctx.Err() == nil {
		if s.toc != nil && degradable(err) {
			if s.degraded == nil {
				s.degraded = fmt.Errorf("live: transfer: %w", err)
				s.obs.Emit(obs.Degraded, err.Error(), 0, 0)
			}
		} else if s.err == nil {
			s.err = fmt.Errorf("live: transfer: %w", err)
		}
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// degradable reports whether a stream failure leaves the demand path
// usable: the link or the bytes failed, but the unit table still
// describes every unit, so byte-range fetches can finish the program.
// Anything else (a verification failure, a malformed class) is a
// property of the program itself and re-fetching cannot fix it.
func degradable(err error) bool {
	return errors.Is(err, stream.ErrFetchFailed) ||
		errors.Is(err, stream.ErrBadStream) ||
		errors.Is(err, stream.ErrStreamIntegrity)
}

// handleEvent publishes one loader event to the gate. The install step
// runs before the class is marked arrived, so a waiter released by
// AwaitClass always finds the class registered in the link state.
func (s *Session) handleEvent(e stream.Event) error {
	switch e.Kind {
	case stream.ClassLinked:
		c := s.loader.LoadedClass(e.Class)
		if c == nil {
			return fmt.Errorf("live: loader fired ClassLinked for unknown class %q", e.Class)
		}
		if s.install != nil {
			if err := s.install(c); err != nil {
				return err
			}
		}
		s.arrive(classfile.Ref{Class: e.Class}, len(c.Methods))
	case stream.MethodReady:
		s.arrive(e.Method, 0)
	}
	return nil
}

// arrive marks need n usable from now on — the first arrival wins —
// and wakes the gate; methods is how many methods an arriving class
// declares.
func (s *Session) arrive(n classfile.Ref, methods int) {
	s.mu.Lock()
	if s.arrived == nil {
		s.arrived = make(map[classfile.Ref]time.Duration, s.loader.Units())
	}
	if _, dup := s.arrived[n]; !dup {
		s.arrived[n] = s.sinceStart()
		if n.Name == "" {
			s.classes++
			s.methods += methods
		}
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// fail records the first terminal error and wakes all gate waiters.
// Once the session's context is done, a failure is what the cancellation
// interrupted — the cut at Close, or the caller giving up — and not the
// session's error: it is dropped, and a gate waiter returns the
// cancellation itself.
func (s *Session) fail(err error) {
	s.mu.Lock()
	if s.err == nil && s.ctx.Err() == nil {
		s.err = err
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// gateTimeout resolves an Options.GateTimeout value: zero means the
// default, negative disables the deadline.
func gateTimeout(d time.Duration) time.Duration {
	if d == 0 {
		return DefaultGateTimeout
	}
	if d < 0 {
		return 0
	}
	return d
}

// gateBudget arms the deadline for one gate wait: a single timer for
// the wait's whole budget, armed once, when the wait first blocks, that
// flips *expired under s.mu and broadcasts. The returned stop releases
// the timer. A need that is already ready never blocks, so it costs no
// timer and no closure.
//
// The budget is deliberately a DURATION handed to one timer, never an
// absolute deadline re-derived from the clock. The previous
// implementation re-armed a fresh timer on every spurious wakeup with
// the remaining budget recomputed by wall-clock subtraction; any step
// between the clock readings — a suspended host, NTP slew, a VM
// migration — inflated or collapsed the remaining budget, so the
// deadline could fire arbitrarily early or never. A duration-based
// timer tracks the monotonic clock, and because the budget is never
// recomputed, a wall step cannot touch it.
//
// The expired flag is written under s.mu before the broadcast, so the
// wakeup cannot be missed: if the waiter has not parked yet it still
// holds s.mu and the callback blocks until cond.Wait releases it.
func (s *Session) gateBudget(expired *bool) (stop func()) {
	d := gateTimeout(s.opts.GateTimeout)
	if d <= 0 {
		return func() {}
	}
	t := s.afterFunc(d, func() {
		s.mu.Lock()
		*expired = true
		s.mu.Unlock()
		s.cond.Broadcast()
	})
	return func() { t.Stop() }
}

// AwaitMethod implements vm.Gate: it blocks until ref's body has
// arrived and verified (and its class is linked — a demand-raced
// MethodReady can otherwise outrun ClassLinked delivery), launching a
// demand fetch when the stream will not deliver ref next, and records
// the crossing as a Wait. The wait is bounded by Options.GateTimeout,
// so a transfer that silently stops making progress surfaces as
// ErrGateTimeout rather than a hang.
func (s *Session) AwaitMethod(ref classfile.Ref) error { return s.await(ref) }

// AwaitClass implements vm.Gate: it blocks until the class's global
// data has linked, demand-fetching the global unit when it is out of
// predicted order. Bounded by Options.GateTimeout like AwaitMethod.
func (s *Session) AwaitClass(class string) error { return s.await(classfile.Ref{Class: class}) }

func (s *Session) await(n classfile.Ref) error {
	began := s.now()
	expired := false
	s.mu.Lock()
	defer s.mu.Unlock()
	blocked := false
	ready, ok := s.readyAt(n)
	for ; !ok; ready, ok = s.readyAt(n) {
		if s.err != nil {
			return s.err
		}
		if err := s.ctx.Err(); err != nil {
			return fmt.Errorf("live: awaiting %s: %w", label(n), err)
		}
		switch {
		case s.toc != nil:
			s.maybeDemand(n)
		case s.opts.TOCURL == "" && s.done:
			return fmt.Errorf("live: %s never arrived and cannot be demanded", label(n))
		}
		// Otherwise the table is still in flight: its landing broadcasts,
		// and its failure is s.err.
		if expired {
			return fmt.Errorf("%w: %s not available after %v", ErrGateTimeout, label(n), gateTimeout(s.opts.GateTimeout))
		}
		if !blocked {
			blocked = true
			stop := s.gateBudget(&expired)
			defer stop()
			s.obs.Emit(obs.GateBlock, label(n), 0, 0)
		}
		s.cond.Wait()
	}
	w := max(s.now().Sub(began), 0) // injected clocks may be coarse or stepped
	s.stall += w
	if n.Name != "" {
		at := began.Sub(s.start)
		transfer, repair, gate := attributeWait(at, at+w, ready, s.repairSpans)
		if s.waits == nil {
			s.waits = make([]Wait, 0, s.loader.Units())
		}
		s.waits = append(s.waits, Wait{
			Method:   n,
			At:       at,
			Wait:     w,
			Transfer: transfer,
			Repair:   repair,
			Gate:     gate,
			Demand:   s.demanded[n],
		})
	}
	if blocked {
		s.obs.Emit(obs.GateUnblock, label(n), 0, w)
	}
	return nil
}

// readyAt reports whether need n can proceed — its class linked and,
// for a method, its body verified — and since when, from run start.
// Caller holds s.mu.
func (s *Session) readyAt(n classfile.Ref) (time.Duration, bool) {
	at, ok := s.arrived[classfile.Ref{Class: n.Class}]
	if ok && n.Name != "" {
		var body time.Duration
		body, ok = s.arrived[n]
		at = max(at, body)
	}
	return at, ok
}

// maybeDemand launches a demand fetch for need n when it is out of
// predicted order — the next body unit the main stream will deliver is a
// different method — unless n was demanded already or the loader already
// holds its unit. The last is the window between the loader consuming a
// unit and its event reaching the gate: the loader's cursor is past the
// unit by then, so outOfOrder would call it a mispredict. Caller holds
// s.mu.
func (s *Session) maybeDemand(n classfile.Ref) {
	if s.demanded[n] || s.installed(n) {
		return
	}
	if !s.done && !s.outOfOrder(n) {
		return // arriving next anyway; cheaper to wait
	}
	s.demanded[n] = true
	s.mispredicts++
	s.obs.Emit(obs.DemandIssue, label(n), 0, 0)
	s.fetches.Add(1)
	go func() {
		defer s.fetches.Done()
		if err := s.demand(n); err != nil {
			s.fail(err)
		}
	}()
}

// installed reports whether the loader has verified and installed need
// n's unit, whether or not its event has reached the gate yet.
func (s *Session) installed(n classfile.Ref) bool {
	if n.Name == "" {
		return s.loader.LoadedClass(n.Class) != nil
	}
	return s.loader.MethodInstalled(n)
}

// outOfOrder reports whether the first not-yet-consumed unit delivering
// n is NOT the very next unit of its kind the stream will deliver —
// i.e. waiting for the main stream would first sit through other units.
// A global unit immediately before the awaited body does not count as
// out of order. Caller holds s.mu.
func (s *Session) outOfOrder(n classfile.Ref) bool {
	for i := s.loader.UnitsConsumed(); i < len(s.toc); i++ {
		u := &s.toc[i]
		if delivers(u, n) {
			return false
		}
		if u.Kind == stream.KindBody {
			return true // the prediction put other work first
		}
		// A global unit for some class: in order only when the awaited
		// unit follows immediately (checked on the next iteration).
	}
	return true // stream exhausted without a match
}

// demand pulls need n's unit (and, for a method whose class has not
// loaded, the class's global unit first) out of the stream with a range
// request and feeds it to the loader. Runs on its own goroutine, holding
// no locks.
func (s *Session) demand(n classfile.Ref) error {
	u := s.unit(func(u *stream.UnitInfo) bool { return delivers(u, n) })
	if u == nil {
		return fmt.Errorf("live: %s is not in the unit table", label(n))
	}
	if s.loader.LoadedClass(n.Class) != nil {
		if n.Name == "" {
			return nil // the main stream won the race; the waiter is already released
		}
	} else if n.Name != "" {
		if err := s.demand(classfile.Ref{Class: n.Class}); err != nil {
			return err
		}
	}
	began := s.sinceStart()
	payload, err := s.fetchUnit(*u)
	if err != nil {
		return err
	}
	evs, err := s.loader.FeedDemand(u.Class, u.Kind, u.Body, payload, u.CRC)
	if err != nil {
		return err
	}
	for _, e := range evs {
		if err := s.handleEvent(e); err != nil {
			return err
		}
	}
	s.obs.Emit(obs.DemandDone, label(n), int64(len(payload)), s.sinceStart()-began)
	return nil
}

// fetchUnit range-fetches one unit's payload, verified against the
// unit table's checksum by the client: a payload spliced together
// across a reconnect that fails verification is discarded and
// re-fetched from the range start (the last verified byte), never
// installed and never resumed from the unverified splice point.
func (s *Session) fetchUnit(u stream.UnitInfo) ([]byte, error) {
	s.mu.Lock()
	s.demands++
	s.mu.Unlock()
	p, attempts, err := s.client.FetchRangeVerified(s.ctx, s.opts.URL, u.Off, int64(u.Len), u.CRC)
	if attempts > 1 {
		s.mu.Lock()
		s.refetches += attempts - 1
		s.mu.Unlock()
	}
	if err != nil {
		return nil, fmt.Errorf("live: demand fetch of unit at %d: %w", u.Off, err)
	}
	return p, nil
}

// repairUnit is the loader's Repair hook: the main stream delivered a
// unit whose payload failed its checksum, so re-fetch just that unit's
// bytes with a range request against the unit table. The hook contract
// is the loader's: return a verified payload or an error; the hook owns
// retrying. FetchRangeVerified is both — it retries and verifies under
// the client's one budget — so the loader asks once. A unit that arrives
// corrupt before the table has landed waits for it here.
func (s *Session) repairUnit(req stream.RepairRequest) ([]byte, error) {
	select {
	case <-s.tocReady:
	case <-s.ctx.Done():
		return nil, fmt.Errorf("live: repair awaiting the unit table: %w", s.ctx.Err())
	}
	u := s.unit(func(u *stream.UnitInfo) bool {
		return u.Class == req.Class && u.Kind == req.Kind && u.Body == req.Body
	})
	if u == nil {
		return nil, fmt.Errorf("live: corrupt %d-byte unit (class %d, body %d) is not in the unit table",
			req.Len, req.Class, req.Body)
	}
	began := s.sinceStart()
	s.mu.Lock()
	s.refetches++
	s.mu.Unlock()
	p, _, err := s.client.FetchRangeVerified(s.ctx, s.opts.URL, u.Off, int64(u.Len), u.CRC)
	if err != nil {
		return nil, fmt.Errorf("live: repair fetch of unit at %d: %w", u.Off, err)
	}
	s.mu.Lock()
	s.repairSpans = append(s.repairSpans, span{From: began, To: s.sinceStart()})
	s.mu.Unlock()
	return p, nil
}
