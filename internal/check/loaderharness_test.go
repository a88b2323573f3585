package check

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"nonstrict/internal/apps"
	"nonstrict/internal/classfile"
	"nonstrict/internal/pipeline"
	"nonstrict/internal/stream"
	"nonstrict/internal/synth"
)

// loaderOptions configures the loader interleaving check.
type loaderOptions struct {
	// Stepped is how many leading main-stream units are individually
	// scheduled (default 4, clamped so the drain step keeps at least one
	// unit).
	Stepped int
	// MaxSchedules guards against enumeration explosion per scenario
	// (default 100000). Exceeding it is an error, never silent sampling.
	MaxSchedules int
}

// loaderReport summarizes one exhaustive loader check.
type loaderReport struct {
	Scenarios int
	Schedules int
	// Units is the fixture stream's unit count; Demands the concurrent
	// demand-fetch count per scenario.
	Units   int
	Demands int
}

// checkLoader enumerates every schedule of every generated loader
// scenario — stepped main-stream delivery, at most one corrupt unit
// with a scripted repair, and concurrent demand fetches landing at
// every possible point — and replays each against a real stream.Loader,
// diffing events, counters, Load's result, and the assembled program
// against the executable spec.
func checkLoader(opts loaderOptions) (*loaderReport, error) {
	if opts.MaxSchedules <= 0 {
		opts.MaxSchedules = 100000
	}
	fx, err := fixture()
	if err != nil {
		return nil, err
	}
	scenarios := loaderScenarios(opts.Stepped, fx)
	rep := &loaderReport{Scenarios: len(scenarios), Units: len(fx.toc)}
	for _, sc := range scenarios {
		if len(sc.Demands) > rep.Demands {
			rep.Demands = len(sc.Demands)
		}
	}
	rep.Schedules, err = forEachScenario(scenarios, func(sc *loaderScenario) (int, error) {
		return enumerate(sc, newLoaderSpec(fx, sc), opts.MaxSchedules, func(ls schedule[loaderStep, *loaderSpec]) error {
			return runLoaderSchedule(fx, sc, ls)
		})
	})
	return rep, err
}

// loaderScenarios generates the configurations the enumerator explores:
// each stepped unit in turn the corrupt one (repair succeeding and
// failing), plus a clean baseline, each with a demand set chosen to
// cover the interesting races — a global demanded before the main
// stream reaches it, a body demanded before its global (the protocol
// error), the tail unit demanded against the drain, and the corrupt
// unit itself demanded against its own repair window.
func loaderScenarios(stepped int, fx *loaderFixture) []*loaderScenario {
	if stepped <= 0 {
		stepped = 4
	}
	if stepped > len(fx.toc)-1 {
		stepped = len(fx.toc) - 1
	}
	var scs []*loaderScenario
	for corrupt := -1; corrupt < stepped; corrupt++ {
		repairs := []bool{false}
		if corrupt >= 0 {
			repairs = []bool{true, false}
		}
		for _, rok := range repairs {
			scs = append(scs, &loaderScenario{
				Stepped: stepped, Corrupt: corrupt, RepairOK: rok,
				Demands: demandSet(fx, corrupt),
			})
		}
	}
	return scs
}

// demandSet picks the demand-fetched TOC indices for one scenario.
func demandSet(fx *loaderFixture, corrupt int) []int {
	var cand []int
	// A later class's global: demanded early it preempts the main
	// stream; its bodies demanded before it exercise the protocol error.
	for i, u := range fx.toc {
		if u.Kind == stream.KindGlobal && u.Class != fx.toc[0].Class {
			cand = append(cand, i)
			break
		}
	}
	// The tail unit races the drain step.
	cand = append(cand, len(fx.toc)-1)
	if corrupt >= 0 {
		// The corrupt unit's own demand copy races its repair window: it
		// installs exactly once, whether the repair succeeds or fails.
		cand = append(cand, corrupt)
	} else {
		for i, u := range fx.toc {
			if u.Kind == stream.KindBody {
				cand = append(cand, i)
				break
			}
		}
	}
	seen := make(map[int]bool)
	var out []int
	for _, c := range cand {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// loaderFixture is the tiny synthetic program every loader scenario
// streams: its restructured form, serialized stream bytes, and unit
// table, built once per process.
type loaderFixture struct {
	app       *apps.App
	rp        *classfile.Program
	data      []byte
	toc       []stream.UnitInfo
	streamHdr int64
	unitHdr   int64
	className map[int]string
	bodies    map[int]int // class index → body unit count
}

var (
	fixtureOnce sync.Once
	fixtureVal  *loaderFixture
	fixtureErr  error
)

func fixture() (*loaderFixture, error) {
	fixtureOnce.Do(func() { fixtureVal, fixtureErr = buildFixture() })
	return fixtureVal, fixtureErr
}

func buildFixture() (*loaderFixture, error) {
	app, _, err := synth.Generate(synth.Params{Name: "check-tiny", Seed: 11, Classes: 2, MethodsPerClass: 2})
	if err != nil {
		return nil, fmt.Errorf("check: generating fixture app: %w", err)
	}
	st, err := pipeline.Build(context.Background(), app, pipeline.OrderStatic)
	if err != nil {
		return nil, fmt.Errorf("check: building fixture stream: %w", err)
	}
	fx := &loaderFixture{
		app: app, rp: st.Program, data: st.Data, toc: st.Units,
		className: make(map[int]string),
		bodies:    make(map[int]int),
		unitHdr:   stream.UnitHeaderSize,
	}
	if len(fx.toc) < 3 {
		return nil, fmt.Errorf("check: fixture stream has only %d units; too small to schedule", len(fx.toc))
	}
	fx.streamHdr = fx.toc[0].Off - stream.UnitHeaderSize
	for _, u := range fx.toc {
		fx.className[u.Class] = u.ClassName
		if u.Kind == stream.KindBody {
			fx.bodies[u.Class]++
		}
	}
	return fx, nil
}

// unitChunk returns unit i's wire bytes — header plus payload — from a
// stream image.
func (fx *loaderFixture) unitChunk(data []byte, i int) []byte {
	u := fx.toc[i]
	return data[u.Off-fx.unitHdr : u.Off+int64(u.Len)]
}

// cleanPayload returns a fresh copy of unit i's clean payload. A copy,
// not a slice of the canonical stream image: FeedDemand and the Repair
// hook transfer buffer ownership to the loader ("return a fresh copy"),
// and the loader is free to recycle an unretained buffer through the
// payload pool — where another loader would scribble its next unit over
// the shared image.
func (fx *loaderFixture) cleanPayload(i int) []byte {
	u := fx.toc[i]
	return append([]byte(nil), fx.data[u.Off:u.Off+int64(u.Len)]...)
}

// stepReader is the determinism hook on the loader's input side: every
// time the loader wants bytes it announces itself on idle and parks
// until the controller feeds the next exact-unit chunk. Closing feed is
// EOF.
type stepReader struct {
	feed <-chan []byte
	idle chan<- struct{}
	cur  []byte
}

func (r *stepReader) Read(p []byte) (int, error) {
	for len(r.cur) == 0 {
		r.idle <- struct{}{}
		b, ok := <-r.feed
		if !ok {
			return 0, io.EOF
		}
		r.cur = b
	}
	n := copy(p, r.cur)
	r.cur = r.cur[n:]
	return n, nil
}

// classifyDemandErr buckets a FeedDemand error the way the spec
// predicts it.
func classifyDemandErr(err error) errClass {
	switch {
	case err == nil:
		return errNone
	case strings.Contains(err.Error(), "before its global"):
		return errDemand
	default:
		return errBuild // unexpected bucket; always a divergence
	}
}

// diffEvents compares the implementation's events for one step against
// the spec's prediction, field by field.
func diffEvents(got []stream.Event, want []specEvent) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d events, spec says %d (got %v, want %v)", len(got), len(want), got, want)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Kind != w.kind || g.Class != w.class || g.Method != w.method || g.Bytes != w.bytes {
			return fmt.Errorf("event %d = {%v %s %v @%d}, spec says %s", i, g.Kind, g.Class, g.Method, g.Bytes, w)
		}
	}
	return nil
}

// runLoaderSchedule replays one annotated schedule against a fresh real
// Loader: the main stream is fed unit by unit through the step reader,
// the scripted repair hook parks the corrupt unit until its repair
// step, and demand fetches land exactly where the schedule places them.
// Every wait is watchdog-bounded.
func runLoaderSchedule(fx *loaderFixture, sc *loaderScenario, sched schedule[loaderStep, *loaderSpec]) error {
	data := fx.data
	if sc.Corrupt >= 0 {
		data = append([]byte(nil), fx.data...)
		data[fx.toc[sc.Corrupt].Off] ^= 0x5a // flip a payload byte; header intact
	}

	feed := make(chan []byte)
	idle := make(chan struct{})
	repairReq := make(chan stream.RepairRequest)
	repairReply := make(chan []byte)
	loadDone := make(chan error, 1)

	l := stream.NewLoader(fx.rp.Name, fx.rp.MainClass, nil)
	if sc.Corrupt >= 0 {
		l.Repair = func(req stream.RepairRequest) ([]byte, error) {
			repairReq <- req
			return <-repairReply, nil
		}
	}
	var events []stream.Event // written by the Load goroutine; reads sync through idle/loadDone
	go func() {
		loadDone <- l.Load(&stepReader{feed: feed, idle: idle}, func(e stream.Event) {
			events = append(events, e)
		})
	}()

	fail := func(format string, args ...any) error {
		return fmt.Errorf("loader scenario [%s], schedule [%s]: %s", sc, sched, fmt.Sprintf(format, args...))
	}
	sendChunk := func(chunk []byte, what string) error {
		select {
		case feed <- chunk:
			return nil
		case err := <-loadDone:
			return fail("Load returned early (%v) while feeding %s", err, what)
		case <-time.After(watchdog):
			return fail("loader never asked for %s — lost wakeup", what)
		}
	}
	awaitIdle := func(what string) error {
		select {
		case <-idle:
			return nil
		case req := <-repairReq:
			return fail("unexpected repair request %+v while waiting for %s", req, what)
		case err := <-loadDone:
			return fail("Load returned early (%v) while waiting for %s", err, what)
		case <-time.After(watchdog):
			return fail("loader made no progress on %s — lost wakeup", what)
		}
	}

	// Handshake: the stream header is part of setup, not a scheduled
	// step; the spec's consumed counter starts past it.
	if err := awaitIdle("the initial read"); err != nil {
		return err
	}
	if err := sendChunk(data[:fx.streamHdr], "the stream header"); err != nil {
		return err
	}
	if err := awaitIdle("the stream header"); err != nil {
		return err
	}

	evCursor := 0
	takeEvents := func() []stream.Event {
		out := events[evCursor:len(events):len(events)]
		evCursor = len(events)
		return out
	}
	loadReturned := false

	for si, st := range sched.steps {
		sfail := func(format string, args ...any) error {
			return fmt.Errorf("loader scenario [%s], schedule [%s], step %d %s: %s",
				sc, sched, si, st, fmt.Sprintf(format, args...))
		}
		switch st.kind {
		case lstepMain:
			if err := sendChunk(fx.unitChunk(data, st.unit), st.String()); err != nil {
				return err
			}
			if st.awaitRepair {
				u := fx.toc[st.unit]
				select {
				case req := <-repairReq:
					if req.Class != u.Class || req.Kind != u.Kind || req.Body != unitBody(u) || req.Len != u.Len || req.CRC != u.CRC {
						return sfail("repair request %+v does not describe unit %d %+v", req, st.unit, u)
					}
				case <-idle:
					return sfail("loader moved on without repairing the corrupt unit")
				case err := <-loadDone:
					return sfail("Load returned (%v), spec says it parks in the repair hook", err)
				case <-time.After(watchdog):
					return sfail("no repair request for the corrupt unit")
				}
				continue
			}
			if err := awaitIdle(st.String()); err != nil {
				return err
			}
			if err := diffEvents(takeEvents(), st.events); err != nil {
				return sfail("%v", err)
			}

		case lstepRepair:
			reply := []byte("garbage")
			if sc.RepairOK {
				reply = fx.cleanPayload(sc.Corrupt)
			}
			select {
			case repairReply <- reply:
			case err := <-loadDone:
				return sfail("Load returned early (%v)", err)
			case <-time.After(watchdog):
				return sfail("no repair hook waiting for a reply")
			}
			if st.endsLoad {
				select {
				case err := <-loadDone:
					if !errors.Is(err, stream.ErrStreamIntegrity) || errors.Is(err, stream.ErrBadStream) {
						return sfail("Load returned %v, spec says ErrStreamIntegrity", err)
					}
					loadReturned = true
				case <-idle:
					return sfail("loader read on past the unrepaired unit, spec says Load returns")
				case <-time.After(watchdog):
					return sfail("Load never returned after the failed repair")
				}
			} else if err := awaitIdle("the repair outcome"); err != nil {
				return err
			}
			if err := diffEvents(takeEvents(), st.events); err != nil {
				return sfail("%v", err)
			}

		case lstepDemand:
			u := fx.toc[st.unit]
			ev, err := l.FeedDemand(u.Class, u.Kind, u.Body, fx.cleanPayload(st.unit), u.CRC)
			if got := classifyDemandErr(err); got != st.errc {
				return sfail("error = %v (%s), spec says %s", err, got, st.errc)
			}
			if err := diffEvents(ev, st.events); err != nil {
				return sfail("%v", err)
			}

		case lstepDrain:
			rest := data[fx.toc[sc.Stepped].Off-fx.unitHdr:]
			if err := sendChunk(rest, "the drain chunk"); err != nil {
				return err
			}
			if err := awaitIdle("the drain chunk"); err != nil {
				return err
			}
			if err := diffEvents(takeEvents(), st.events); err != nil {
				return sfail("%v", err)
			}
			close(feed)
			select {
			case err := <-loadDone:
				if err != nil {
					return sfail("Load returned %v, spec says nil", err)
				}
				loadReturned = true
			case <-time.After(watchdog):
				return sfail("Load never returned after EOF")
			}
		}
	}
	if !loadReturned {
		return fail("schedule ended before Load returned (enumerator bug)")
	}

	// Final state against the spec.
	final := sched.final
	diff := func(what string, g, w any) error {
		return fail("final %s = %v, spec says %v", what, g, w)
	}
	if got := l.UnitsConsumed(); got != final.mainUnits {
		return diff("units consumed", got, final.mainUnits)
	}
	if got := l.Consumed(); got != final.consumed {
		return diff("bytes consumed", got, final.consumed)
	}
	if got := l.DemandBytes(); got != final.demanded {
		return diff("demand bytes", got, final.demanded)
	}
	integ := l.Integrity()
	if integ.CorruptUnits != int64(final.corrupt) {
		return diff("corrupt units", integ.CorruptUnits, final.corrupt)
	}
	if integ.Repaired != int64(final.repaired) {
		return diff("repaired", integ.Repaired, final.repaired)
	}
	if integ.DigestVerified != final.digestVerified() {
		return diff("digest verified", integ.DigestVerified, final.digestVerified())
	}
	for ci, name := range fx.className {
		if got, want := l.LoadedClass(name) != nil, final.classes[ci]; got != want {
			return diff(fmt.Sprintf("class %s loaded", name), got, want)
		}
	}
	p, perr := l.Program()
	if got, want := perr == nil, final.complete(); got != want {
		return diff("program assembles", fmt.Sprintf("%v (err=%v)", got, perr), want)
	}
	if perr == nil && len(p.Classes) != len(fx.className) {
		return diff("assembled class count", len(p.Classes), len(fx.className))
	}
	return nil
}
