// Package stream is the non-strict class loader: it consumes an
// interleaved virtual-file byte stream (paper §5.2) and makes classes and
// methods available incrementally, running the §3.1.1 verification steps
// as the bytes arrive — class-level checks when a global-data unit lands,
// per-method bytecode checks when a body unit lands.
//
// The wire format opens with an 18-byte stream header (magic, version,
// unit count, whole-stream digest) and frames each unit with a 13-byte
// header: class index (u16), unit kind (u8), payload length (u32),
// payload CRC32C (u32), and a 16-bit header check (see integrity.go). A
// class's global-data unit always precedes its body units; body units
// arrive in the class's file order (which, after restructuring, is
// predicted first-use order). Writer produces the stream from a
// restructured program; Loader consumes it from any io.Reader, verifies
// every unit's checksum on arrival, and reports an event per unit.
package stream

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sync"
	"time"

	"nonstrict/internal/classfile"
	"nonstrict/internal/obs"
	"nonstrict/internal/reorder"
	"nonstrict/internal/restructure"
	"nonstrict/internal/verify"
)

// Unit kinds.
const (
	KindGlobal = 0 // a class's global-data section
	KindBody   = 1 // one method body: local data + code + delimiter
)

const headerSize = 13

// UnitHeaderSize is the wire size of a unit header; a unit's header
// starts UnitHeaderSize bytes before its UnitInfo.Off.
const UnitHeaderSize = headerSize

// maxUnitSize bounds a single unit's payload; anything larger is a
// malformed stream regardless of what the header claims.
const maxUnitSize = 1 << 28

// maxUnitsHint bounds the unit count Units hands out as a capacity hint.
// The stream header's count is checked against the units received only
// at EOF, and its CRC guards against damage, not against a lying server,
// so a session that sized its tables from a header claiming 2^32 units
// would try to reserve hundreds of gigabytes before the lie surfaced.
// The largest app streams about 1 550 units; a program with more than
// this many still loads, and its tables grow past the hint as they
// would without one.
const maxUnitsHint = 1 << 14

// MaxClasses is the largest class count a stream can carry: the unit
// header stores the class index as a u16.
const MaxClasses = 1<<16 - 1

// EventKind classifies loader progress events.
type EventKind int

const (
	// ClassLinked: a class's global data arrived, parsed, and passed
	// class-level verification; its methods are known but not yet
	// runnable.
	ClassLinked EventKind = iota
	// MethodReady: a method's body arrived and passed method-level
	// verification; the method may now execute.
	MethodReady
	// ClassComplete: every body of the class has arrived.
	ClassComplete
)

// Event is one loader progress notification.
type Event struct {
	Kind   EventKind
	Class  string
	Method classfile.Ref // set for MethodReady
	// Bytes is the cumulative stream bytes consumed when the event
	// fired (headers included).
	Bytes int64
}

// Writer emits the interleaved stream for a restructured program. It
// encodes each class's global-data section once and reads every body
// unit straight from its method, so a body's bytes are copied only into
// the stream.
type Writer struct {
	prog    *classfile.Program
	units   []restructure.Unit // restructure.Plan's, unpartitioned
	globals [][]byte           // each class's global-data section, by class
	crcs    []uint32           // ChecksumPayload of each unit's payload
}

// NewWriter plans the stream with restructure.Plan: each class's global
// data immediately before its first method in the order, then bodies in
// order. The program must already be restructured so that each class's
// file order equals the order's restriction to it; Plan rejects it
// otherwise.
func NewWriter(p *classfile.Program, ix *classfile.Index, o *reorder.Order) (*Writer, error) {
	if len(p.Classes) > MaxClasses {
		return nil, fmt.Errorf("stream: program has %d classes; the unit header's u16 class index holds at most %d",
			len(p.Classes), MaxClasses)
	}
	units, err := restructure.Plan(p, ix, o, nil)
	if err != nil {
		return nil, err
	}
	w := &Writer{prog: p, units: units, globals: make([][]byte, len(p.Classes)), crcs: make([]uint32, len(units))}
	for i, u := range units {
		if u.Kind == restructure.Global {
			w.globals[u.Class] = p.Classes[u.Class].AppendGlobal(make([]byte, 0, u.Len))
		}
		w.crcs[i] = w.checksum(i, 0)
	}
	return w, nil
}

// payload returns unit i's bytes in at most three pieces, which together
// are its planned range of its class file: a global unit's section, or a
// body's local data, code and delimiter.
func (w *Writer) payload(i int) [3][]byte {
	u := &w.units[i]
	if u.Kind == restructure.Global {
		return [3][]byte{w.globals[u.Class]}
	}
	m := w.prog.Classes[u.Class].Methods[u.Body]
	return [3][]byte{m.LocalData, m.Code, classfile.Delim[:]}
}

// checksum continues the CRC32C crc over unit i's payload.
func (w *Writer) checksum(i int, crc uint32) uint32 {
	for _, b := range w.payload(i) {
		crc = crc32.Update(crc, crcTable, b)
	}
	return crc
}

// kind returns unit i's wire kind.
func (w *Writer) kind(i int) byte {
	if w.units[i].Kind == restructure.Global {
		return KindGlobal
	}
	return KindBody
}

// WriteTo implements io.WriterTo: the stream header, then every unit,
// unthrottled.
func (w *Writer) WriteTo(out io.Writer) (int64, error) {
	var n int64
	// One buffer frames the stream header and then every unit header: a
	// Writer must not retain what it is given.
	hdr := make([]byte, streamHeaderSize)
	putStreamHeader(hdr, len(w.units), w.digest())
	k, err := out.Write(hdr)
	n += int64(k)
	if err != nil {
		return n, err
	}
	hdr = hdr[:headerSize]
	for i, u := range w.units {
		putUnitHeader(hdr, u.Class, w.kind(i), u.Len, w.crcs[i])
		k, err := out.Write(hdr)
		n += int64(k)
		if err != nil {
			return n, err
		}
		for _, b := range w.payload(i) {
			k, err = out.Write(b)
			n += int64(k)
			if err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// digest computes the whole-stream digest: the CRC32C over every unit
// header and payload in stream order (everything after the stream
// header).
func (w *Writer) digest() uint32 {
	var d uint32
	var hdr [headerSize]byte
	for i, u := range w.units {
		putUnitHeader(hdr[:], u.Class, w.kind(i), u.Len, w.crcs[i])
		d = crc32.Update(d, crcTable, hdr[:])
		d = w.checksum(i, d)
	}
	return d
}

// Units returns the number of planned units.
func (w *Writer) Units() int { return len(w.units) }

// Size returns the total stream size in bytes, headers included.
func (w *Writer) Size() int64 {
	n := int64(streamHeaderSize)
	for _, u := range w.units {
		n += headerSize + int64(u.Len)
	}
	return n
}

// UnitInfo describes one planned unit of the stream — the writer's
// offset table. A client holding the table can demand-fetch any unit out
// of predicted order with a byte-range request (the live runtime's
// misprediction correction, the §5.1 demand path applied to the §5.2
// virtual file).
type UnitInfo struct {
	// Class is the unit's class index within the stream.
	Class int
	// ClassName is the class's name.
	ClassName string
	// Kind is KindGlobal or KindBody.
	Kind byte
	// Body is the body index within the class; -1 for global units.
	Body int
	// Method is the delivered method; zero for global units.
	Method classfile.Ref
	// Off is the stream offset of the unit's payload (its 13-byte header
	// immediately precedes it).
	Off int64
	// Len is the payload length in bytes, header excluded.
	Len int
	// CRC is the CRC32C of the payload, so a demand-fetched unit is
	// verified end to end before installation.
	CRC uint32
}

// TOC returns the per-unit offset table of the planned stream.
func (w *Writer) TOC() []UnitInfo {
	toc := make([]UnitInfo, 0, len(w.units))
	off := int64(streamHeaderSize)
	for i, u := range w.units {
		off += headerSize
		toc = append(toc, UnitInfo{
			Class: u.Class, Kind: w.kind(i), Body: u.Body, Method: u.Method,
			ClassName: w.prog.Classes[u.Class].Name, Off: off, Len: u.Len, CRC: w.crcs[i],
		})
		off += int64(u.Len)
	}
	return toc
}

// ErrBadStream wraps framing and consistency failures.
var ErrBadStream = errors.New("stream: malformed stream")

// Loader consumes a unit stream and assembles a runnable program,
// verifying incrementally. The zero value is not usable; call NewLoader.
//
// A Loader is safe for concurrent use: the main stream (Load), demand
// fetches (FeedDemand), and readers of the incremental link state
// (Resolver, LoadedClass, UnitsConsumed) may run in separate goroutines.
// Units delivered twice — a demand-fetched unit later re-arriving in the
// main stream, or vice versa — are verified and installed exactly once,
// and fire their events exactly once.
//
// What a Loader installs, it keeps: a class parsed from a global unit
// views that unit's payload (its names are strings over the payload's
// bytes, see classfile.ParseGlobal), and a method's LocalData and Code
// are slices of its body unit's payload. So an installed payload is never
// written again or handed back to the payload pool, whether the loader
// read it from the main stream into a pooled buffer or was given it by
// FeedDemand or the Repair hook. Only the buffers of units that did not
// install — duplicates and corrupt copies — go back to the pool. The
// verifier's scratch is the loader's only while the main stream runs: it
// comes from a pool and goes back when Load returns.
type Loader struct {
	mainClass string
	name      string
	resolver  verify.Resolver

	// Repair, when non-nil, is invoked once (with no loader locks held)
	// for each main-stream unit whose payload fails its checksum. Its
	// contract: return a verified payload or an error; the hook owns
	// retrying (typically a byte-range re-fetch against the writer's unit
	// table through FetchClient.FetchRangeVerified, which retries and
	// verifies under the client's one retry budget). The loader still
	// re-verifies the reply, since it is outside input. A unit whose
	// repair fails either way ends Load with an ErrStreamIntegrity that
	// wraps the hook's error: the units before it stay installed, and a
	// client with a unit table finishes the program through FeedDemand. A
	// hook error that wraps context.Canceled ends Load with that error
	// instead: whoever canceled the repair is abandoning the stream. With
	// Repair nil, a corrupt unit ends Load with ErrStreamIntegrity at
	// once. Set it before calling Load; it must not change during it.
	Repair func(RepairRequest) ([]byte, error)
	// Obs, when non-nil, receives integrity events: unit arrivals,
	// checksum failures, repairs. Set before Load; must not change while
	// loading.
	Obs *obs.Recorder

	mu        sync.Mutex
	classes   []classState   // by class index, grown to the highest index seen
	byName    map[string]int // installed class name -> class index
	installed int            // classes whose global data is installed
	mainUnits int            // units consumed from the main stream
	units     int            // units the stream header promised; 0 before it arrives
	consumed  int64          // main-stream bytes, headers included
	demanded  int64          // demand-fetched payload bytes

	integ IntegrityStats

	// verifier is the method verifier's working memory, reused from one
	// body to the next: taken from scratchPool by the first install that
	// needs it, and given back when Load returns. Every install — main
	// stream, FeedDemand, repaired unit — runs under mu, so it is never in
	// two verifications at once.
	verifier *verify.Scratch
}

// classState is what the loader knows of one class index.
type classState struct {
	c          *classfile.Class         // nil until the global unit installs
	methods    []classfile.MethodLayout // c's body layouts
	present    []bool                   // which body units have arrived
	ready      int                      // count of arrived bodies
	mainNext   int                      // next body index in the main stream
	fromDemand bool                     // the global unit arrived via FeedDemand
}

// class returns class index ci's state, growing the table to hold it.
// The pointer is good until the next call. Callers hold l.mu.
func (l *Loader) class(ci int) *classState {
	if ci >= len(l.classes) {
		l.classes = slices.Grow(l.classes, ci+1-len(l.classes))[:ci+1]
	}
	return &l.classes[ci]
}

// NewLoader builds a loader for a program named name whose entry class
// is mainClass. resolver answers cross-class verification queries and
// may be nil to defer them (the paper's incremental dependence
// analysis); use Resolver() to verify against the classes loaded so far.
func NewLoader(name, mainClass string, resolver verify.Resolver) *Loader {
	return &Loader{
		name:      name,
		mainClass: mainClass,
		resolver:  resolver,
		byName:    make(map[string]int),
	}
}

// Load consumes the whole stream from r, invoking onEvent (if non-nil)
// after each verified unit. Events are delivered outside the loader's
// lock, so the callback may call back into the loader.
//
// Every unit's payload is verified against its header checksum before
// installation; a corrupt payload goes through the Repair hook (see the
// field docs), and one that is not repaired ends the load. At EOF the
// unit count and the whole-stream digest from the stream header are
// checked, so a truncated-at-a-unit-boundary stream or a corruption
// that slipped the per-unit checks still surfaces as an error rather
// than a silently incomplete program.
func (l *Loader) Load(r io.Reader, onEvent func(Event)) error {
	defer l.releaseVerifier()
	shdr := make([]byte, streamHeaderSize)
	if _, err := io.ReadFull(r, shdr); err != nil {
		return fmt.Errorf("%w: reading stream header: %v", ErrBadStream, err)
	}
	unitCount, wantDigest, err := parseStreamHeader(shdr)
	if err != nil {
		return err
	}
	l.mu.Lock()
	l.consumed += streamHeaderSize
	l.units = unitCount
	l.mu.Unlock()
	var digest uint32
	units := 0
	hdr := make([]byte, headerSize)
	for {
		if _, err := io.ReadFull(r, hdr); err == io.EOF {
			if units != unitCount {
				return fmt.Errorf("%w: stream ended after %d of %d units (truncated at a unit boundary)",
					ErrBadStream, units, unitCount)
			}
			if digest != wantDigest {
				return fmt.Errorf("%w: whole-stream digest %08x, header promised %08x", ErrStreamIntegrity, digest, wantDigest)
			}
			l.mu.Lock()
			l.integ.DigestVerified = true
			l.mu.Unlock()
			return nil
		} else if err != nil {
			return fmt.Errorf("%w: reading unit header: %v", ErrBadStream, err)
		}
		ci, kind, n, crc, err := parseUnitHeader(hdr)
		if err != nil {
			// A corrupted header means the framing of everything after
			// it is unreliable; there is no way to resync from within
			// the stream, so this is terminal. (A demand-fetching client
			// degrades to pulling the remaining units by range.) Its
			// fields cannot be trusted, so the event names no class.
			l.mu.Lock()
			l.integ.CorruptUnits++
			l.mu.Unlock()
			if l.Obs != nil {
				l.Obs.Emit(obs.CRCFail, "unit header", headerSize, 0)
			}
			return err
		}
		if n > maxUnitSize {
			return fmt.Errorf("%w: unit of %d bytes", ErrBadStream, n)
		}
		// Payload buffers are pooled: a unit that installs retains its
		// buffer forever, but duplicates (demand fetches racing the main
		// stream) and corrupt copies discard theirs, and those are
		// recycled instead of re-allocated.
		payload, box := getPayloadBuf(n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return fmt.Errorf("%w: reading %d-byte unit: %v", ErrBadStream, n, err)
		}
		units++
		if ChecksumPayload(payload) != crc {
			putPayloadBuf(payload, box) // the corrupt copy is dead either way
			box = nil
			if payload, err = l.repairUnit(ci, kind, n, crc); err != nil {
				return err
			}
		}
		digest = crc32.Update(digest, crcTable, hdr)
		digest = crc32.Update(digest, crcTable, payload)
		l.mu.Lock()
		l.consumed += headerSize + int64(n)
		ev, retained, err := l.feed(ci, kind, payload)
		l.mainUnits++
		l.mu.Unlock()
		if err != nil {
			return err
		}
		if !retained {
			putPayloadBuf(payload, box)
		}
		l.emit(obs.UnitArrived, ci, kind, n, 0)
		if onEvent != nil {
			for _, e := range ev.list() {
				onEvent(e)
			}
		}
	}
}

// repairUnit handles one corrupt main-stream unit: it asks the Repair
// hook once for a clean copy and verifies the reply. It returns the
// repaired payload, or the error that ends the load: the hook's
// cancellation, or ErrStreamIntegrity when there is no hook or it
// delivered no verified copy. Called with no locks held.
func (l *Loader) repairUnit(ci int, kind byte, n int, crc uint32) ([]byte, error) {
	began := time.Now()
	l.mu.Lock()
	l.integ.CorruptUnits++
	repair := l.Repair
	body := -1
	if kind == KindBody {
		body = l.class(ci).mainNext
	}
	l.mu.Unlock()
	l.emit(obs.CRCFail, ci, kind, n, 0)
	if repair == nil {
		return nil, fmt.Errorf("%w: class %d %s unit: payload checksum mismatch and no repair path",
			ErrStreamIntegrity, ci, kindName(kind))
	}
	p, err := repair(RepairRequest{Class: ci, Kind: kind, Body: body, Len: n, CRC: crc})
	if errors.Is(err, context.Canceled) {
		return nil, err
	}
	if err == nil && (len(p) != n || ChecksumPayload(p) != crc) {
		err = errors.New("the repaired copy failed its checksum")
	}
	if err != nil {
		return nil, fmt.Errorf("%w: class %d %s unit: payload checksum mismatch, repair failed: %w",
			ErrStreamIntegrity, ci, kindName(kind), err)
	}
	l.mu.Lock()
	l.integ.Repaired++
	l.mu.Unlock()
	l.emit(obs.Repaired, ci, kind, n, time.Since(began))
	return p, nil
}

// emit records one integrity event about a unit. The event's name is
// formatted only when a recorder is attached.
func (l *Loader) emit(k obs.Kind, ci int, kind byte, n int, dur time.Duration) {
	if l.Obs != nil {
		l.Obs.Emit(k, fmt.Sprintf("class %d %s", ci, kindName(kind)), int64(n), dur)
	}
}

func kindName(kind byte) string {
	switch kind {
	case KindGlobal:
		return "global"
	case KindBody:
		return "body"
	}
	return fmt.Sprintf("kind-%d", kind)
}

// feed processes one main-stream unit and returns the events it
// produced. retained reports whether the payload buffer was installed
// (and so must never be recycled); skipped duplicates leave it free
// for the pool. Callers hold l.mu.
func (l *Loader) feed(ci int, kind byte, payload []byte) (ev events, retained bool, err error) {
	cs := l.class(ci)
	switch kind {
	case KindGlobal:
		if cs.c != nil {
			if cs.fromDemand {
				// The demand path already delivered this class's global
				// data; the main stream's copy is redundant.
				cs.fromDemand = false
				return events{}, false, nil
			}
			return events{}, false, fmt.Errorf("%w: duplicate global unit for class %d", ErrBadStream, ci)
		}
		ev, err = l.installGlobal(ci, payload)
		return ev, err == nil, err

	case KindBody:
		c := cs.c
		if c == nil {
			return events{}, false, fmt.Errorf("%w: body before global data for class %d", ErrBadStream, ci)
		}
		bi := cs.mainNext
		if bi >= len(c.Methods) {
			return events{}, false, fmt.Errorf("%w: class %s: extra body unit", ErrBadStream, c.Name)
		}
		cs.mainNext++
		if cs.present[bi] {
			// Already demand-fetched out of order; skip the re-delivery.
			return events{}, false, nil
		}
		ev, err = l.installBody(ci, bi, payload)
		return ev, err == nil, err

	default:
		return events{}, false, fmt.Errorf("%w: unknown unit kind %d", ErrBadStream, kind)
	}
}

// FeedDemand installs one demand-fetched unit — a misprediction
// correction pulled out of predicted order via a byte-range request
// against the writer's unit table. The payload is verified against crc
// (the unit table's checksum for it) before anything is installed. Body
// units require the class's global unit first (fetch it through
// FeedDemand too if the main stream has not delivered it). Units that
// already arrived are skipped without error, so the demand path may race
// the main stream freely, before and after Load returns. An installed
// payload is the loader's from then on: the caller must not write it
// again.
func (l *Loader) FeedDemand(ci int, kind byte, body int, payload []byte, crc uint32) ([]Event, error) {
	if ChecksumPayload(payload) != crc {
		return nil, fmt.Errorf("%w: demand-fetched %s unit for class %d failed its checksum",
			ErrStreamIntegrity, kindName(kind), ci)
	}
	if ci < 0 || ci > MaxClasses {
		return nil, fmt.Errorf("stream: demand unit for class %d out of range [0,%d]", ci, MaxClasses)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.demanded += int64(len(payload))
	switch kind {
	case KindGlobal:
		if l.class(ci).c != nil {
			return nil, nil
		}
		ev, err := l.installGlobal(ci, payload)
		if err == nil {
			l.classes[ci].fromDemand = true
		}
		return ev.list(), err
	case KindBody:
		cs := l.class(ci)
		c := cs.c
		if c == nil {
			return nil, fmt.Errorf("stream: demand body for class %d before its global data", ci)
		}
		if body < 0 || body >= len(c.Methods) {
			return nil, fmt.Errorf("stream: demand body %d of class %s out of range [0,%d)", body, c.Name, len(c.Methods))
		}
		if cs.present[body] {
			return nil, nil
		}
		ev, err := l.installBody(ci, body, payload)
		return ev.list(), err
	default:
		return nil, fmt.Errorf("stream: demand unit of unknown kind %d", kind)
	}
}

// Integrity returns a snapshot of the loader's verification counters.
func (l *Loader) Integrity() IntegrityStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.integ
}

// installGlobal parses, verifies, and registers a class's global data.
// Callers hold l.mu.
func (l *Loader) installGlobal(ci int, payload []byte) (events, error) {
	c, lay, err := classfile.ParseGlobal(payload)
	if err != nil {
		return events{}, fmt.Errorf("%w: class %d: %v", ErrBadStream, ci, err)
	}
	if err := verify.VerifyGlobal(c); err != nil {
		return events{}, err
	}
	// Two class indices naming one class would reach the executor as a
	// program that holds the class twice.
	if prev, dup := l.byName[c.Name]; dup && prev != ci {
		return events{}, fmt.Errorf("%w: class %d is %s, which class %d already is", ErrBadStream, ci, c.Name, prev)
	}
	cs := l.class(ci)
	cs.c, cs.methods, cs.present = c, lay.Methods, make([]bool, len(c.Methods))
	l.installed++
	l.byName[c.Name] = ci
	return events{n: 1, ev: [2]Event{{Kind: ClassLinked, Class: c.Name, Bytes: l.consumed}}}, nil
}

// events is what one installed unit fires: at most two, by value, so
// that the main stream's per-unit path allocates no slice for them.
type events struct {
	ev [2]Event
	n  int
}

// list returns the events as a slice, nil when there are none.
func (e *events) list() []Event {
	if e.n == 0 {
		return nil
	}
	return e.ev[:e.n]
}

// installBody verifies and installs one method body. Callers hold l.mu
// and have checked that the body is absent and in range.
func (l *Loader) installBody(ci, bi int, payload []byte) (events, error) {
	cs := &l.classes[ci]
	c := cs.c
	m := c.Methods[bi]
	ml := cs.methods[bi]
	localLen := ml.CodeStart - ml.BodyStart
	codeLen := ml.DelimEnd - classfile.DelimSize - ml.CodeStart
	if len(payload) != localLen+codeLen+classfile.DelimSize {
		return events{}, fmt.Errorf("%w: class %s method %d: body is %d bytes, header promised %d",
			ErrBadStream, c.Name, bi, len(payload), localLen+codeLen+classfile.DelimSize)
	}
	if [classfile.DelimSize]byte(payload[localLen+codeLen:]) != classfile.Delim {
		return events{}, fmt.Errorf("%w: class %s method %d: bad delimiter", ErrBadStream, c.Name, bi)
	}
	m.LocalData = payload[:localLen:localLen]
	m.Code = payload[localLen : localLen+codeLen : localLen+codeLen]
	res := l.resolver
	if lr, ok := res.(loaderResolver); ok && lr.l == l {
		res = rawResolver{l} // avoid self-deadlock on l.mu
	}
	if l.verifier == nil {
		l.verifier = scratchPool.Get().(*verify.Scratch)
	}
	if err := l.verifier.VerifyMethod(c, m, res); err != nil {
		return events{}, err
	}
	cs.present[bi] = true
	cs.ready++
	ref := classfile.Ref{Class: c.Name, Name: c.MethodName(m)}
	out := events{n: 1, ev: [2]Event{{Kind: MethodReady, Class: c.Name, Method: ref, Bytes: l.consumed}}}
	if cs.ready == len(c.Methods) {
		out.ev[1] = Event{Kind: ClassComplete, Class: c.Name, Bytes: l.consumed}
		out.n = 2
	}
	return out, nil
}

// Program assembles the loaded classes. It fails if any method body is
// still missing.
func (l *Loader) Program() (*classfile.Program, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := &classfile.Program{Name: l.name, MainClass: l.mainClass}
	for _, cs := range l.classes {
		c := cs.c
		if c == nil {
			break
		}
		if cs.ready != len(c.Methods) {
			return nil, fmt.Errorf("stream: class %s has %d of %d method bodies",
				c.Name, cs.ready, len(c.Methods))
		}
		p.Classes = append(p.Classes, c)
	}
	if len(p.Classes) != l.installed {
		return nil, fmt.Errorf("stream: class indices are not contiguous")
	}
	if p.Class(l.mainClass) == nil {
		return nil, fmt.Errorf("stream: entry class %q never arrived", l.mainClass)
	}
	return p, nil
}

// releaseVerifier gives the verifier's scratch back to the pool. A
// FeedDemand after it takes another, which the loader keeps.
func (l *Loader) releaseVerifier() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.verifier != nil {
		scratchPool.Put(l.verifier)
		l.verifier = nil
	}
}

// Units returns how many units the main stream's header promised: one
// global unit per class and one body unit per method, capped at
// maxUnitsHint. It is 0 until Load has read the header, so a session can
// size its per-unit tables once, from the first event on. It is a
// capacity hint, not a fact: Load checks the header's count only at EOF.
func (l *Loader) Units() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return min(l.units, maxUnitsHint)
}

// Consumed returns the main-stream bytes processed so far.
func (l *Loader) Consumed() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.consumed
}

// DemandBytes returns the payload bytes delivered through FeedDemand.
func (l *Loader) DemandBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.demanded
}

// UnitsConsumed returns the number of units the main stream has
// delivered — the cursor a demand-fetching client compares unit-table
// indices against to detect out-of-predicted-order needs.
func (l *Loader) UnitsConsumed() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.mainUnits
}

// MethodInstalled reports whether ref's body has been verified and
// installed. Like LoadedClass, it answers from the moment the unit is
// installed, before its event has been delivered.
func (l *Loader) MethodInstalled(ref classfile.Ref) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	ci, ok := l.byName[ref.Class]
	if !ok {
		return false
	}
	cs := &l.classes[ci]
	for bi, m := range cs.c.Methods {
		if cs.c.MethodName(m) == ref.Name {
			return cs.present[bi]
		}
	}
	return false
}

// LoadedClass returns the named class if its global data has arrived,
// else nil.
func (l *Loader) LoadedClass(name string) *classfile.Class {
	l.mu.Lock()
	defer l.mu.Unlock()
	if ci, ok := l.byName[name]; ok {
		return l.classes[ci].c
	}
	return nil
}

// Resolver returns a verify.Resolver answering from the classes whose
// global data has arrived so far — the incremental link state of the
// paper's §3.1.1 ("interprocedural dependence analysis is performed as
// methods are loaded and verified"). The resolver is safe for concurrent
// use with the loader.
func (l *Loader) Resolver() verify.Resolver { return loaderResolver{l} }

// loaderResolver is the exported, locking view of the link state.
type loaderResolver struct{ l *Loader }

func (r loaderResolver) MethodArity(class, name string) (int, int, bool) {
	r.l.mu.Lock()
	defer r.l.mu.Unlock()
	return rawResolver(r).MethodArity(class, name)
}

func (r loaderResolver) HasField(class, name string) (bool, bool) {
	r.l.mu.Lock()
	defer r.l.mu.Unlock()
	return rawResolver(r).HasField(class, name)
}

// rawResolver answers without locking; used internally while l.mu is
// already held.
type rawResolver struct{ l *Loader }

func (r rawResolver) MethodArity(class, name string) (int, int, bool) {
	ci, ok := r.l.byName[class]
	if !ok {
		return 0, 0, false // class not yet arrived: defer
	}
	m := r.l.classes[ci].c.MethodByName(name)
	if m == nil {
		return 0, 0, true // class known, method definitively missing
	}
	return m.NArgs, m.NRet, true
}

func (r rawResolver) HasField(class, name string) (bool, bool) {
	ci, ok := r.l.byName[class]
	if !ok {
		return false, false
	}
	c := r.l.classes[ci].c
	for _, f := range c.Fields {
		if c.Utf8(f.Name) == name {
			return true, true
		}
	}
	return false, true
}
