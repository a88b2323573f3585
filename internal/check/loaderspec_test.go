package check

import (
	"fmt"

	"nonstrict/internal/classfile"
	"nonstrict/internal/stream"
)

// loaderScenario is one loader configuration the enumerator explores
// every schedule of: a stepped main-stream prefix, at most one corrupt
// unit with a scripted repair reply, and a set of concurrent demand
// fetches whose delivery points are free to land anywhere in the
// schedule — including while the corrupt unit's repair is in flight
// (the demand-races-repair window) and after the main stream finished.
type loaderScenario struct {
	// Stepped is how many leading units are delivered one per step; the
	// rest arrive in a single drain step ending at EOF.
	Stepped int
	// Corrupt is the TOC index of the unit whose main-stream copy
	// arrives with a flipped payload byte (-1 = clean stream). Must be
	// within the stepped prefix.
	Corrupt int
	// RepairOK scripts the repair hook's reply for the corrupt unit: a
	// clean copy, or garbage, which ends Load with ErrStreamIntegrity.
	RepairOK bool
	// Demands are TOC indices delivered via FeedDemand, as the live
	// runtime's out-of-order fetches would; the enumerator permutes
	// their positions freely.
	Demands []int
}

func (sc *loaderScenario) String() string {
	rep := "none"
	if sc.Corrupt >= 0 {
		rep = "bad"
		if sc.RepairOK {
			rep = "ok"
		}
	}
	return fmt.Sprintf("stepped=%d corrupt=%d repair=%s demands=%v", sc.Stepped, sc.Corrupt, rep, sc.Demands)
}

// loaderStepKind is the loader scheduler's action alphabet.
type loaderStepKind int

const (
	// lstepMain delivers one stepped main-stream unit and waits for the
	// loader to fully process it (or, for the corrupt unit, to issue its
	// repair request and park).
	lstepMain loaderStepKind = iota
	// lstepRepair answers the outstanding repair request with the
	// scripted reply and waits for the install, or for Load to return.
	lstepRepair
	// lstepDemand calls FeedDemand for one TOC unit.
	lstepDemand
	// lstepDrain delivers every remaining main-stream unit plus EOF and
	// waits for Load to return.
	lstepDrain
)

// specEvent is the spec's prediction of one loader progress event.
type specEvent struct {
	kind   stream.EventKind
	class  string
	method classfile.Ref
	bytes  int64
}

func (e specEvent) String() string {
	switch e.kind {
	case stream.ClassLinked:
		return fmt.Sprintf("ClassLinked(%s)@%d", e.class, e.bytes)
	case stream.MethodReady:
		return fmt.Sprintf("MethodReady(%s.%s)@%d", e.method.Class, e.method.Name, e.bytes)
	case stream.ClassComplete:
		return fmt.Sprintf("ClassComplete(%s)@%d", e.class, e.bytes)
	}
	return fmt.Sprintf("event-%d", int(e.kind))
}

// loaderStep is one schedule entry plus the spec's annotations: the
// events the implementation must emit for it and, for demand steps, the
// expected error class.
type loaderStep struct {
	kind loaderStepKind
	unit int // TOC index for lstepMain / lstepDemand

	events      []specEvent
	errc        errClass // demand steps only
	awaitRepair bool     // main step that must park in the repair hook
	endsLoad    bool     // repair step whose failure ends Load
}

func (s loaderStep) String() string {
	switch s.kind {
	case lstepMain:
		if s.awaitRepair {
			return fmt.Sprintf("main(%d)=corrupt", s.unit)
		}
		return fmt.Sprintf("main(%d)", s.unit)
	case lstepRepair:
		if s.endsLoad {
			return "repair=fail"
		}
		return "repair"
	case lstepDemand:
		return fmt.Sprintf("demand(%d)", s.unit)
	case lstepDrain:
		return "drain"
	}
	return fmt.Sprintf("lstep-%d", int(s.kind))
}

// loaderSpec is the executable model of stream.Loader's observable
// state machine: installed classes and bodies, the demand bookkeeping,
// and the integrity counters. Pure single-threaded code.
type loaderSpec struct {
	fx *loaderFixture
	sc *loaderScenario

	classes    map[int]bool
	present    map[int]map[int]bool
	ready      map[int]int
	fromDemand map[int]bool

	consumed  int64
	mainUnits int
	demanded  int64

	corrupt  int
	repaired int

	// scheduling state
	mainPos       int
	awaitRepair   bool
	drained       bool
	failed        bool // Load returned at the unrepaired unit
	demandPending []int
}

func newLoaderSpec(fx *loaderFixture, sc *loaderScenario) *loaderSpec {
	return &loaderSpec{
		fx:            fx,
		sc:            sc,
		classes:       make(map[int]bool),
		present:       make(map[int]map[int]bool),
		ready:         make(map[int]int),
		fromDemand:    make(map[int]bool),
		consumed:      fx.streamHdr, // the harness feeds the stream header during setup
		demandPending: append([]int(nil), sc.Demands...),
	}
}

func (s *loaderSpec) clone() *loaderSpec {
	c := &loaderSpec{
		fx: s.fx, sc: s.sc,
		classes:       cloneMap(s.classes),
		present:       make(map[int]map[int]bool, len(s.present)),
		ready:         cloneMap(s.ready),
		fromDemand:    cloneMap(s.fromDemand),
		consumed:      s.consumed,
		mainUnits:     s.mainUnits,
		demanded:      s.demanded,
		corrupt:       s.corrupt,
		repaired:      s.repaired,
		mainPos:       s.mainPos,
		awaitRepair:   s.awaitRepair,
		drained:       s.drained,
		failed:        s.failed,
		demandPending: append([]int(nil), s.demandPending...),
	}
	for ci, m := range s.present {
		c.present[ci] = cloneMap(m)
	}
	return c
}

func cloneMap[K comparable, V any](m map[K]V) map[K]V {
	c := make(map[K]V, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func (s *loaderSpec) done() bool {
	return (s.drained || s.failed) && !s.awaitRepair && len(s.demandPending) == 0
}

// enabled returns the next possible scheduler actions. While a repair
// is outstanding the main stream is parked inside the hook, but demand
// deliveries remain enabled — that concurrency is the point. Demands
// also stay enabled after Load returns, at EOF or at a failed repair:
// FeedDemand then is part of the contract (the live runtime's degraded
// mode relies on it).
func (s *loaderSpec) enabled() []loaderStep {
	var steps []loaderStep
	switch {
	case s.awaitRepair:
		steps = append(steps, loaderStep{kind: lstepRepair})
	case s.failed:
		// Load returned at the unrepaired unit: no main step is left.
	case s.mainPos < s.sc.Stepped:
		steps = append(steps, loaderStep{kind: lstepMain, unit: s.mainPos})
	case !s.drained:
		steps = append(steps, loaderStep{kind: lstepDrain})
	}
	for _, d := range s.demandPending {
		steps = append(steps, loaderStep{kind: lstepDemand, unit: d})
	}
	return steps
}

// apply advances the model by one step, filling in the step's expected
// events and error class.
func (s *loaderSpec) apply(st *loaderStep) {
	switch st.kind {
	case lstepMain:
		i := st.unit
		s.mainPos++
		if i == s.sc.Corrupt {
			// The corrupt copy arrives: the loader counts the corruption,
			// then parks in the hook, which it asks once. Nothing installs
			// and the cursor does not advance yet.
			s.corrupt++
			s.awaitRepair = true
			st.awaitRepair = true
			return
		}
		st.events = s.feedClean(s.fx.toc[i])

	case lstepRepair:
		s.awaitRepair = false
		u := s.fx.toc[s.sc.Corrupt]
		if s.sc.RepairOK {
			s.repaired++
			st.events = s.feedClean(u)
			return
		}
		// Repair failed: Load returns ErrStreamIntegrity. The corrupt
		// unit is not consumed, and what installed before it — or by
		// demand during the repair window — stays installed.
		s.failed = true
		st.endsLoad = true

	case lstepDemand:
		for di, d := range s.demandPending {
			if d == st.unit {
				s.demandPending = append(s.demandPending[:di], s.demandPending[di+1:]...)
				break
			}
		}
		st.events, st.errc = s.feedDemand(s.fx.toc[st.unit])

	case lstepDrain:
		s.drained = true
		for i := s.sc.Stepped; i < len(s.fx.toc); i++ {
			st.events = append(st.events, s.feedClean(s.fx.toc[i])...)
		}
	}
}

// unitBody is u's body index, or -1 for a global unit, as a
// RepairRequest names it.
func unitBody(u stream.UnitInfo) int {
	if u.Kind == stream.KindBody {
		return u.Body
	}
	return -1
}

// feedClean models feed() for a verified main-stream unit: the mirror
// of the implementation's duplicate-skip and install transitions.
func (s *loaderSpec) feedClean(u stream.UnitInfo) []specEvent {
	s.consumed += s.fx.unitHdr + int64(u.Len)
	s.mainUnits++
	ci := u.Class
	if u.Kind == stream.KindGlobal {
		if s.classes[ci] {
			if !s.fromDemand[ci] {
				panic("check: spec fed a duplicate global outside the demand-race window")
			}
			s.fromDemand[ci] = false
			return nil
		}
		return s.installGlobal(ci)
	}
	if !s.classes[ci] {
		panic("check: spec fed a body before its global")
	}
	if s.present[ci][u.Body] {
		return nil // demand got here first
	}
	return s.installBody(ci, u.Body, u)
}

// feedDemand models FeedDemand for a clean demand-path unit.
func (s *loaderSpec) feedDemand(u stream.UnitInfo) ([]specEvent, errClass) {
	s.demanded += int64(u.Len)
	ci := u.Class
	if u.Kind == stream.KindGlobal {
		if s.classes[ci] {
			return nil, errNone
		}
		ev := s.installGlobal(ci)
		s.fromDemand[ci] = true
		return ev, errNone
	}
	if !s.classes[ci] {
		// Demand body before its global data: counted, rejected.
		return nil, errDemand
	}
	if s.present[ci][u.Body] {
		return nil, errNone
	}
	return s.installBody(ci, u.Body, u), errNone
}

func (s *loaderSpec) installGlobal(ci int) []specEvent {
	s.classes[ci] = true
	s.present[ci] = make(map[int]bool)
	return []specEvent{{kind: stream.ClassLinked, class: s.fx.className[ci], bytes: s.consumed}}
}

func (s *loaderSpec) installBody(ci, bi int, u stream.UnitInfo) []specEvent {
	s.present[ci][bi] = true
	s.ready[ci]++
	ev := []specEvent{{kind: stream.MethodReady, class: s.fx.className[ci], method: u.Method, bytes: s.consumed}}
	if s.ready[ci] == s.fx.bodies[ci] {
		ev = append(ev, specEvent{kind: stream.ClassComplete, class: s.fx.className[ci], bytes: s.consumed})
	}
	return ev
}

// complete reports whether the model holds a fully assembled program.
func (s *loaderSpec) complete() bool {
	for ci := range s.fx.className {
		if !s.classes[ci] || s.ready[ci] != s.fx.bodies[ci] {
			return false
		}
	}
	return true
}

// digestVerified predicts the end-of-stream digest outcome: a clean or
// fully repaired stream reaches EOF and verifies; a failed repair ends
// Load before EOF, so the digest is never checked.
func (s *loaderSpec) digestVerified() bool {
	return s.sc.Corrupt < 0 || s.sc.RepairOK
}
