package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Trace lanes: Chrome renders one row per (pid, tid), so events are
// grouped into pipeline stages rather than OS threads.
const (
	laneTransfer = 1 + iota // fetch client: retries, resumes
	laneLoader              // stream loader: arrivals, CRC, repair
	laneDemand              // demand fetches
	laneGate                // availability gate + VM first invocations
)

// lane maps an event kind to its trace row.
func lane(k Kind) int {
	switch k {
	case Retry, Resume, Degraded:
		return laneTransfer
	case UnitArrived, CRCFail, Repaired:
		return laneLoader
	case DemandIssue, DemandDone:
		return laneDemand
	default:
		return laneGate
	}
}

var laneNames = map[int]string{
	laneTransfer: "transfer",
	laneLoader:   "loader",
	laneDemand:   "demand",
	laneGate:     "gate+vm",
}

// traceEvent is one entry of the Chrome trace-event format ("JSON Array
// Format" with the "traceEvents" wrapper). Timestamps and durations are
// microseconds.
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// traceFile is the on-disk shape WriteTrace emits and ParseTrace reads.
type traceFile struct {
	TraceEvents []traceEvent   `json:"traceEvents"`
	Meta        map[string]any `json:"otherData,omitempty"`
}

// WriteTrace exports events as Chrome trace-event JSON, loadable in any
// trace viewer (chrome://tracing, Perfetto). Span events (Dur > 0)
// become complete ("X") slices covering [At-Dur, At]; the rest become
// instants. dropped, when nonzero, is recorded in the file's metadata
// so a truncated ring is visible to the reader.
func WriteTrace(w io.Writer, events []Event, dropped uint64) error {
	const usec = 1e3 // Event times are nanoseconds; trace times are µs.
	tf := traceFile{TraceEvents: make([]traceEvent, 0, len(events)+4)}
	for tid := laneTransfer; tid <= laneGate; tid++ {
		tf.TraceEvents = append(tf.TraceEvents, traceEvent{
			Name:  "thread_name",
			Phase: "M",
			PID:   1,
			TID:   tid,
			Args:  map[string]any{"name": laneNames[tid]},
		})
	}
	for _, e := range events {
		te := traceEvent{
			Name: e.Kind.String(),
			Cat:  laneNames[lane(e.Kind)],
			PID:  1,
			TID:  lane(e.Kind),
			TS:   float64(e.At) / usec,
			Args: map[string]any{"seq": e.Seq},
		}
		if e.Name != "" {
			te.Name = e.Kind.String() + " " + e.Name
			te.Args["subject"] = e.Name
		}
		if e.Bytes != 0 {
			te.Args["bytes"] = e.Bytes
		}
		if e.Dur > 0 {
			te.Phase = "X"
			te.TS = float64(e.At-e.Dur) / usec
			te.Dur = float64(e.Dur) / usec
		} else {
			te.Phase = "i"
			te.Scope = "t"
		}
		tf.TraceEvents = append(tf.TraceEvents, te)
	}
	if dropped > 0 {
		tf.Meta = map[string]any{"droppedEvents": dropped}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(tf)
}

// TraceSummary is what ParseTrace extracts from an exported trace.
type TraceSummary struct {
	// Events is the total event count (metadata excluded).
	Events int
	// ByName counts events per name.
	ByName map[string]int
	// SpanUS is the trace's wall extent in microseconds: the latest
	// event end minus the earliest event start.
	SpanUS float64
	// Dropped is the ring-overflow count recorded in the file.
	Dropped uint64
}

// ParseTrace validates an exported trace and summarizes it — the
// read-back half of WriteTrace used by the trace subcommand and the CI
// smoke test.
func ParseTrace(r io.Reader) (*TraceSummary, error) {
	var tf traceFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&tf); err != nil {
		return nil, fmt.Errorf("obs: malformed trace: %w", err)
	}
	s := &TraceSummary{ByName: make(map[string]int)}
	first, last := 0.0, 0.0
	seen := false
	for _, te := range tf.TraceEvents {
		if te.Phase == "M" {
			continue
		}
		switch te.Phase {
		case "X", "i":
		default:
			return nil, fmt.Errorf("obs: trace event %q has unsupported phase %q", te.Name, te.Phase)
		}
		if te.Dur < 0 || te.TS < 0 {
			return nil, fmt.Errorf("obs: trace event %q has negative time (ts=%v dur=%v)", te.Name, te.TS, te.Dur)
		}
		s.Events++
		s.ByName[te.Name]++
		if !seen || te.TS < first {
			first = te.TS
		}
		if end := te.TS + te.Dur; !seen || end > last {
			last = end
		}
		seen = true
	}
	if seen {
		s.SpanUS = last - first
	}
	if d, ok := tf.Meta["droppedEvents"].(float64); ok {
		s.Dropped = uint64(d)
	}
	return s, nil
}
