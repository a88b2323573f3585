// Package transfer models network delivery of class files and implements
// the paper's transfer methodologies: strict sequential transfer, parallel
// file transfer under a greedy dependency-driven schedule (§5.1), and
// interleaved (single virtual file) transfer (§5.2).
//
// All engines share one abstraction: a class file is a byte stream, and
// each method has an availability offset — the number of bytes of its
// class's stream that must arrive before the method may execute. Strict
// execution sets every method's offset to the whole file; non-strict
// execution uses the method-delimiter offset; data partitioning shrinks
// the global-data prefix to the needed-first section plus per-method GMDs.
// The engines take every byte count from restructure.Plan, the layout the
// stream writer ships.
package transfer

import (
	"fmt"

	"nonstrict/internal/classfile"
	"nonstrict/internal/restructure"
)

// Link is a fixed-bandwidth network link, expressed as the paper does:
// processor cycles per transferred byte.
type Link struct {
	Name          string
	CyclesPerByte int64
}

// The paper's two links on a 500 MHz Alpha: a T1 line (~1 Mbit/s) costs
// 3,815 cycles per byte; a 28.8 Kbaud modem costs 134,698.
var (
	T1    = Link{Name: "T1", CyclesPerByte: 3815}
	Modem = Link{Name: "Modem", CyclesPerByte: 134698}
)

// File is one class file as the engines see it: a stream of Size bytes
// with per-method availability offsets.
type File struct {
	Name  string
	Size  int
	Avail map[classfile.Ref]int
}

// Mode selects how availability offsets are derived.
type Mode int

const (
	// Strict: a method is available only when its whole file has arrived.
	Strict Mode = iota
	// NonStrict: a method is available at its delimiter offset.
	NonStrict
	// Partitioned: non-strict with global-data partitioning; the stream
	// is [needed-first][GMD+body per method][unused globals].
	Partitioned
)

func (m Mode) String() string {
	switch m {
	case Strict:
		return "strict"
	case NonStrict:
		return "non-strict"
	case Partitioned:
		return "partitioned"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// BuildFiles derives the per-class streams of program p from its plan
// (restructure.Plan, with a partition exactly when mode is Partitioned).
// A class's stream is its units in plan order, and its Size their sum.
// A method is available once its body unit has arrived: at the running
// sum of its class's units through that unit, which is its delimiter
// (NonStrict) or the end of its GMD + body (Partitioned); under Strict,
// at the class's Size.
func BuildFiles(p *classfile.Program, plan []restructure.Unit, mode Mode) (map[string]*File, error) {
	if mode != Strict && mode != NonStrict && mode != Partitioned {
		return nil, fmt.Errorf("transfer: unknown mode %v", mode)
	}
	if partitioned := len(plan) > 0 && plan[0].Kind == restructure.NeededFirst; partitioned != (mode == Partitioned) {
		return nil, fmt.Errorf("transfer: %v mode over a plan whose partitioning does not match it", mode)
	}
	out := make(map[string]*File, len(p.Classes))
	files := make([]*File, len(p.Classes))
	for i, c := range p.Classes {
		files[i] = &File{Name: c.Name, Avail: make(map[classfile.Ref]int, len(c.Methods))}
		out[c.Name] = files[i]
	}
	for _, u := range plan {
		f := files[u.Class]
		f.Size += u.Len
		if u.Kind == restructure.Body {
			f.Avail[u.Method] = f.Size
		}
	}
	if mode == Strict {
		for _, f := range files {
			for r := range f.Avail {
				f.Avail[r] = f.Size
			}
		}
	}
	return out, nil
}

// Engine is a transfer simulation consumed by the overlap simulator. The
// simulator calls Demand with a non-decreasing clock each time execution
// first reaches a method; the engine advances its internal transfer state
// to that cycle, applies any demand-driven correction, and returns the
// cycle (>= now) at which the method's bytes have arrived.
type Engine interface {
	Demand(m classfile.Ref, now int64) int64
	// Mispredicts counts demand corrections: invocations of methods
	// whose class was neither transferred nor transferring.
	Mispredicts() int
}

// sequential is the strict baseline engine: class files transfer one at a
// time, to completion, in a fixed order.
type sequential struct {
	finish map[string]int64 // per-class completion cycle
	avail  map[classfile.Ref]int64
}

// NewSequential builds the one-at-a-time engine. classOrder fixes the
// transfer order (typically the first-use class order); methods become
// available per the files' offsets, measured within each class's slot.
func NewSequential(classOrder []string, files map[string]*File, link Link) (Engine, error) {
	if len(classOrder) != len(files) {
		return nil, fmt.Errorf("transfer: class order has %d classes, files %d", len(classOrder), len(files))
	}
	e := &sequential{
		finish: make(map[string]int64, len(files)),
		avail:  make(map[classfile.Ref]int64),
	}
	var off int64
	for _, name := range classOrder {
		f, ok := files[name]
		if !ok {
			return nil, fmt.Errorf("transfer: class order names unknown class %q", name)
		}
		for r, a := range f.Avail {
			e.avail[r] = (off + int64(a)) * link.CyclesPerByte
		}
		off += int64(f.Size)
		e.finish[name] = off * link.CyclesPerByte
	}
	return e, nil
}

func (e *sequential) Demand(m classfile.Ref, now int64) int64 {
	t, ok := e.avail[m]
	if !ok {
		// Unknown method: conservatively wait for everything.
		var max int64
		for _, f := range e.finish {
			if f > max {
				max = f
			}
		}
		t = max
	}
	return maxi64(now, t)
}

func (e *sequential) Mispredicts() int { return 0 }

func maxi64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Arrival is one method's delivery in an interleaved stream.
type Arrival struct {
	Ref   classfile.Ref
	At    int64 // cycle the method's bytes finish arriving
	Bytes int   // method body size (plus GMD when partitioned)
}

// ArrivalSchedule is implemented by engines whose delivery times are
// fixed up front (the interleaved engine); the JIT-overlap simulator
// consumes it to pipeline compilation behind transfer.
type ArrivalSchedule interface {
	Arrivals() []Arrival
}

// interleaved is the §5.2 engine: one virtual file, restructure.Plan's
// units, whose every method becomes available once the file's bytes
// through its body unit have arrived.
type interleaved struct {
	avail    map[classfile.Ref]int64
	total    int64
	arrivals []Arrival
}

// NewInterleaved builds the virtual-file engine over plan, a
// restructure.Plan with or without a partition.
func NewInterleaved(plan []restructure.Unit, link Link) Engine {
	e := &interleaved{avail: make(map[classfile.Ref]int64, len(plan))}
	var off int64
	for _, u := range plan {
		off += int64(u.Len)
		if u.Kind == restructure.Body {
			at := off * link.CyclesPerByte
			e.avail[u.Method] = at
			e.arrivals = append(e.arrivals, Arrival{Ref: u.Method, At: at, Bytes: u.Len})
		}
	}
	e.total = off * link.CyclesPerByte
	return e
}

func (e *interleaved) Demand(m classfile.Ref, now int64) int64 {
	t, ok := e.avail[m]
	if !ok {
		t = e.total
	}
	return maxi64(now, t)
}

func (e *interleaved) Mispredicts() int { return 0 }

// Arrivals implements ArrivalSchedule: methods in stream order with
// their delivery cycles.
func (e *interleaved) Arrivals() []Arrival { return e.arrivals }
