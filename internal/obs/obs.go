// Package obs is the observability substrate of the live pipeline: a
// low-overhead, concurrency-safe event recorder shared by the fetch
// client, the stream loader, the availability gate, and the VM. Every
// stage emits typed events — unit arrivals, checksum failures,
// repairs, demand-fetch issue and completion, gate blocks
// and unblocks naming the method, first invocations, transfer retries,
// stream degradation — into a fixed-capacity ring buffer with monotonic
// timestamps, so one overlapped run can be decomposed event by event
// (and exported as a Chrome trace, see WriteTrace) without perturbing
// the latencies it measures.
package obs

import (
	"sync"
	"time"
)

// Kind is the type of one recorded event.
type Kind uint8

// Event kinds, in rough pipeline order: transfer-layer first, then the
// loader's integrity machinery, then the gate and the VM.
const (
	// Retry is a transfer retry after a failed request; Dur carries the
	// backoff slept before it.
	Retry Kind = iota
	// Resume is a Range-based reconnect continuing an interrupted
	// transfer; Bytes carries the resume offset.
	Resume
	// UnitArrived is one verified unit installed from the main stream;
	// Bytes carries the payload length.
	UnitArrived
	// CRCFail is a unit payload or header that failed its checksum on
	// arrival.
	CRCFail
	// Repaired is a corrupt unit healed by a byte-range re-fetch; Dur
	// carries the repair round-trip.
	Repaired
	// DemandIssue is a byte-range demand fetch leaving the gate; Bytes
	// carries the requested length.
	DemandIssue
	// DemandDone is its completion; Dur carries the fetch round-trip.
	DemandDone
	// GateBlock is a first invocation parking at the availability gate;
	// Name carries the method.
	GateBlock
	// GateUnblock is its release; Dur carries the time blocked.
	GateUnblock
	// FirstInvocation is the VM executing a method's first instruction.
	FirstInvocation
	// Degraded is the main stream failing permanently with the demand
	// path taking over.
	Degraded
)

var kindNames = [...]string{
	Retry:           "retry",
	Resume:          "resume",
	UnitArrived:     "unit-arrived",
	CRCFail:         "crc-fail",
	Repaired:        "repaired",
	DemandIssue:     "demand-issue",
	DemandDone:      "demand-done",
	GateBlock:       "gate-block",
	GateUnblock:     "gate-unblock",
	FirstInvocation: "first-invocation",
	Degraded:        "degraded",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one recorded occurrence.
type Event struct {
	// Seq is the emission sequence number, monotonically increasing
	// across the whole run (never reset by ring overflow).
	Seq uint64
	// At is the monotonic time of the event, measured from the
	// recorder's start.
	At time.Duration
	// Kind is what happened.
	Kind Kind
	// Name identifies the subject: a method as Class.Name, a class, or
	// a URL path, depending on Kind.
	Name string
	// Bytes is a byte count when the event has one (payload length,
	// resume offset), else zero.
	Bytes int64
	// Dur is the span the event completes (time blocked, fetch round
	// trip, backoff slept), else zero. Span events are stamped at their
	// END: the interval is [At-Dur, At].
	Dur time.Duration
}

// DefaultCapacity is the ring size used when NewRecorder is given a
// non-positive capacity: enough for every unit, gate crossing, and
// retry of the paper's workloads with room to spare.
const DefaultCapacity = 16384

// Recorder collects events into a fixed-capacity ring buffer. When the
// ring is full the OLDEST events are overwritten — the tail of a run is
// where stalls are diagnosed — and Dropped counts the overwritten
// events. All methods are safe for concurrent use, and every method is
// a no-op on a nil *Recorder so instrumentation sites need no guards.
type Recorder struct {
	mu      sync.Mutex
	start   time.Time
	now     func() time.Time // test hook; nil = time.Now
	buf     []Event
	next    uint64 // total events emitted; buf index = seq % cap
	dropped uint64
}

// NewRecorder returns a recorder whose clock starts now. capacity <= 0
// selects DefaultCapacity.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{start: time.Now(), buf: make([]Event, 0, capacity)}
}

// clock returns the current time via the test hook when set.
func (r *Recorder) clock() time.Time {
	if r.now != nil {
		return r.now()
	}
	return time.Now()
}

// Since is the recorder's monotonic clock: the duration from recorder
// start, the timebase of every Event.At. Zero on a nil recorder.
func (r *Recorder) Since() time.Duration {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.clock().Sub(r.start)
}

// Emit records one event, stamping it with the monotonic clock.
func (r *Recorder) Emit(k Kind, name string, bytes int64, dur time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	e := Event{
		Seq:   r.next,
		At:    r.clock().Sub(r.start),
		Kind:  k,
		Name:  name,
		Bytes: bytes,
		Dur:   dur,
	}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next%uint64(cap(r.buf))] = e
		r.dropped++
	}
	r.next++
	r.mu.Unlock()
}

// Events returns a snapshot of the retained events in emission order
// (oldest first). Nil on a nil recorder.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	if r.next > uint64(len(r.buf)) {
		// The ring wrapped: the oldest retained event sits just past the
		// most recently overwritten slot.
		c := uint64(cap(r.buf))
		for i := uint64(0); i < c; i++ {
			out = append(out, r.buf[(r.next+i)%c])
		}
		return out
	}
	return append(out, r.buf...)
}

// Dropped is how many events the ring overwrote.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Len is the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}
