package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Spans of one request share Req
// (workload/app/pass); Parent is the span that caused this one, 0 for
// a root.
type span struct {
	ID, Parent int
	Name, Req  string
	// Lane separates spans that run concurrently (one per client
	// connection) so a trace viewer can stack each lane's spans.
	Lane       int
	Start, End time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so call sites need no guards and an untraced run
// pays one nil check per span.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanRef is a handle to an open span; the zero value is "no span" and
// is what a nil tracer hands out.
type spanRef struct {
	t    *tracer
	id   int
	lane int
}

// root opens a parentless span on the given lane.
func (t *tracer) root(name, req string, lane int) spanRef {
	return t.open(0, name, req, lane, time.Now())
}

// begin opens a child of s on s's lane.
func (s spanRef) begin(name, req string) spanRef {
	return s.t.open(s.id, name, req, s.lane, time.Now())
}

// add records a finished child of s whose interval was measured by the
// caller (for intervals reported by the layer rather than bracketed by
// a call).
func (s spanRef) add(name, req string, start, end time.Time) {
	c := s.t.open(s.id, name, req, s.lane, start)
	c.endAt(end)
}

func (t *tracer) open(parent int, name, req string, lane int, at time.Time) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Lane: lane, Start: at.Sub(t.epoch), End: -1})
	t.mu.Unlock()
	return spanRef{t: t, id: id, lane: lane}
}

// onLane is s as the parent of spans that belong on another lane.
func (s spanRef) onLane(lane int) spanRef {
	s.lane = lane
	return s
}

func (s spanRef) end() { s.endAt(time.Now()) }

func (s spanRef) endAt(at time.Time) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	s.t.spans[s.id-1].End = at.Sub(s.t.epoch)
	s.t.mu.Unlock()
}

// finished snapshots the closed spans.
func (t *tracer) finished() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval its children cover. Children may overlap one another
// (concurrent calls), so the covered part is the union of their
// intervals clipped to the parent.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Name] += s.End - s.Start - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the kids' intervals inside p.
func covered(p span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	edge := p.Start
	for _, k := range kids {
		from, to := max(k.Start, edge), min(k.End, p.End)
		if to > from {
			total += to - from
			edge = to
		}
	}
	return total
}

// nestingErrors counts spans that end before they start or that reach
// outside their parent — the traced run reports it as a failed check.
func nestingErrors(spans []span) int {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	bad := 0
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok && (s.Start < p.Start || s.End > p.End) {
			bad++
		}
	}
	return bad
}

// writeChromeTrace writes spans as Chrome trace-event JSON (load in
// chrome://tracing or Perfetto): one complete ("X") event per span,
// tid = lane, with the span's id, parent and request id in args.
func writeChromeTrace(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X", PID: 1, TID: s.Lane,
			TS:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
