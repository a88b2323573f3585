package check

import (
	"fmt"
	"time"

	"nonstrict/internal/server"
)

// breakerOp is one event the breaker can observe. The enumeration
// drives every sequence of these up to a bounded depth against both the
// real Breaker (with a fake clock) and breakerSpec, a pure
// single-threaded model, and fails on the first divergence.
//
// Ops are guarded by the cache's usage protocol — per-key builds are
// serialized by the singleflight, so at most one admitted build is ever
// outstanding, every admitting Allow is followed by exactly one Record
// (or a CancelProbe when the slot queue refused the probe), and shed
// callers touch nothing. Ops whose guard fails are skipped, which
// collapses equivalent sequences instead of exploring unreachable ones.
type breakerOp int

const (
	opAllow    breakerOp = iota // a caller asks to build (guard: no build outstanding)
	opFail                      // the outstanding build fails
	opSuccess                   // the outstanding build succeeds
	opCancel                    // the just-claimed probe never started (guard: probe held)
	opTick                      // the cooldown fully elapses
	opHalfTick                  // time advances, but less than the cooldown
	numBreakerOps
)

func (o breakerOp) String() string {
	switch o {
	case opAllow:
		return "allow"
	case opFail:
		return "fail"
	case opSuccess:
		return "success"
	case opCancel:
		return "cancel"
	case opTick:
		return "tick"
	case opHalfTick:
		return "half-tick"
	}
	return "invalid"
}

// breakerOptions bounds the enumeration.
type breakerOptions struct {
	// Depth is the sequence length; every sequence of Depth ops over the
	// alphabet is run. Defaults to 7 (6^7 = 279936 sequences).
	Depth int
	// Threshold is the consecutive-failure trip threshold. Defaults to 2.
	Threshold int
}

// breakerReport summarizes one enumeration run.
type breakerReport struct {
	Sequences int
	Steps     int
}

// breakerSpec is the executable specification: the breaker's legal
// behavior written as straight-line state math, with none of the
// implementation's locking.
type breakerSpec struct {
	threshold int
	cooldown  int64

	state    server.BreakerState
	fails    int
	openedAt int64
	probing  bool
	trips    int64
}

func (s *breakerSpec) allow(now int64) (ok bool, wantHint bool) {
	switch s.state {
	case server.BreakerClosed:
		return true, false
	case server.BreakerOpen:
		if now-s.openedAt < s.cooldown {
			return false, true
		}
		s.state = server.BreakerHalfOpen
		s.probing = true
		return true, false
	default: // half-open
		if s.probing {
			return false, true
		}
		s.probing = true
		return true, false
	}
}

func (s *breakerSpec) record(failed bool, now int64) {
	wasHalfOpen := s.state == server.BreakerHalfOpen
	if wasHalfOpen {
		s.probing = false
	}
	if !failed {
		s.state = server.BreakerClosed
		s.fails = 0
		return
	}
	switch {
	case wasHalfOpen:
		s.trip(now)
	case s.state == server.BreakerClosed:
		s.fails++
		if s.fails >= s.threshold {
			s.trip(now)
		}
	}
}

func (s *breakerSpec) trip(now int64) {
	s.state = server.BreakerOpen
	s.openedAt = now
	s.fails = 0
	s.trips++
}

// legalMove checks one observed transition against the graph the
// breaker documents: closed→open only on a recorded failure,
// open→half-open only via Allow after the cooldown, half-open→closed
// and half-open→open only on the probe's outcome, and no other edges.
func legalMove(from, to server.BreakerState, op breakerOp) bool {
	if from == to {
		return true
	}
	switch {
	case from == server.BreakerClosed && to == server.BreakerOpen:
		return op == opFail
	case from == server.BreakerOpen && to == server.BreakerHalfOpen:
		return op == opAllow
	case from == server.BreakerHalfOpen && to == server.BreakerClosed:
		return op == opSuccess
	case from == server.BreakerHalfOpen && to == server.BreakerOpen:
		return op == opFail
	}
	return false
}

// checkBreaker exhaustively enumerates bounded op sequences against the
// breaker spec. For every step of every sequence it asserts:
//
//   - the implementation's admit/shed decision matches the spec's, and
//     every shed carries a positive Retry-After hint;
//   - the observable state after the op matches the spec's;
//   - the trip counter matches the spec's and never decreases;
//   - every state change follows the documented transition graph;
//   - a canceled probe hands the half-open slot to the next caller.
func checkBreaker(opts breakerOptions) (*breakerReport, error) {
	if opts.Depth <= 0 {
		opts.Depth = 7
	}
	if opts.Threshold <= 0 {
		opts.Threshold = 2
	}
	const cooldown = 100 * time.Millisecond
	rep := &breakerReport{}

	total := 1
	for i := 0; i < opts.Depth; i++ {
		total *= int(numBreakerOps)
	}
	seq := make([]breakerOp, opts.Depth)
	for n := 0; n < total; n++ {
		x := n
		for i := range seq {
			seq[i] = breakerOp(x % int(numBreakerOps))
			x /= int(numBreakerOps)
		}
		rep.Sequences++

		var fake int64 // fake clock: ns offsets from a fixed epoch
		b := server.NewBreaker(opts.Threshold, cooldown)
		b.SetClock(func() time.Time { return time.Unix(0, 1+fake) })
		spec := &breakerSpec{threshold: opts.Threshold, cooldown: int64(cooldown)}
		outstanding := false // a build admitted but not yet recorded
		probeHeld := false   // the outstanding admission is a half-open probe
		lastTrips := int64(0)

		for step, op := range seq {
			before := b.State()
			switch op {
			case opAllow:
				if outstanding {
					continue // per-key singleflight: one build at a time
				}
				ok, retryAfter := b.Allow()
				wantOK, wantHint := spec.allow(fake)
				if ok != wantOK {
					return rep, seqErr(seq, step, fmt.Sprintf("allow = %v, spec says %v", ok, wantOK))
				}
				if !ok && wantHint && retryAfter <= 0 {
					return rep, seqErr(seq, step, "shed without a positive Retry-After hint")
				}
				if ok {
					outstanding = true
					probeHeld = spec.state == server.BreakerHalfOpen && spec.probing
				}
			case opFail, opSuccess:
				if !outstanding {
					continue
				}
				outstanding, probeHeld = false, false
				b.Record(op == opFail)
				spec.record(op == opFail, fake)
			case opCancel:
				if !probeHeld {
					continue
				}
				outstanding, probeHeld = false, false
				b.CancelProbe()
				spec.probing = false
			case opTick:
				fake += int64(cooldown) + 1
			case opHalfTick:
				fake += int64(cooldown) / 2
			}
			rep.Steps++

			after := b.State()
			if after != spec.state {
				return rep, seqErr(seq, step, fmt.Sprintf("state = %v, spec says %v", after, spec.state))
			}
			if !legalMove(before, after, op) {
				return rep, seqErr(seq, step, fmt.Sprintf("illegal transition %v -> %v on %v", before, after, op))
			}
			trips := b.Trips()
			if trips != spec.trips {
				return rep, seqErr(seq, step, fmt.Sprintf("trips = %d, spec says %d", trips, spec.trips))
			}
			if trips < lastTrips {
				return rep, seqErr(seq, step, fmt.Sprintf("trip counter went backwards: %d -> %d", lastTrips, trips))
			}
			lastTrips = trips
		}
	}
	return rep, nil
}

func seqErr(seq []breakerOp, step int, msg string) error {
	names := make([]string, len(seq))
	for i, op := range seq {
		names[i] = op.String()
	}
	return fmt.Errorf("breaker sequence %v, step %d (%v): %s", names, step, seq[step], msg)
}
