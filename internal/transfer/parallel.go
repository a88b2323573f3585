package transfer

import (
	"fmt"
	"math"

	"nonstrict/internal/classfile"
)

// pstate is the lifecycle of one class file inside the parallel engine.
type pstate int

const (
	pWaiting  pstate = iota // schedule triggers not yet satisfied
	pEligible               // triggers satisfied, waiting for a slot
	pQueued                 // demand-fetched, waiting for a slot
	pActive
	pDone
)

type pfile struct {
	file      *File
	state     pstate
	delivered float64
	deps      []Dep
	prio      int // position in ClassOrder, for start priority
}

// Parallel is the §5.1 engine: up to Limit class files transfer
// concurrently, splitting the link bandwidth equally. A class starts when
// its schedule triggers fire (and a slot is free); a misprediction — a
// demanded method whose class is neither transferred nor transferring —
// starts the class immediately if a slot is free, else queues it next.
type Parallel struct {
	link        Link
	limit       int // 0 = unlimited
	files       map[string]*pfile
	byMethod    map[classfile.Ref]*pfile
	order       []string
	queue       []*pfile // demand queue, FIFO, ahead of eligibles
	active      []*pfile
	now         float64 // transfer clock, cycles
	mispredicts int
}

// NewParallel builds the engine. limit caps concurrent transfers (the
// paper studies 1, 2, 4, and unlimited; pass 0 for unlimited).
func NewParallel(sched *Schedule, files map[string]*File, link Link, limit int) (*Parallel, error) {
	e := &Parallel{
		link:     link,
		limit:    limit,
		files:    make(map[string]*pfile, len(files)),
		byMethod: make(map[classfile.Ref]*pfile),
		order:    sched.ClassOrder,
	}
	for i, name := range sched.ClassOrder {
		f, ok := files[name]
		if !ok {
			return nil, fmt.Errorf("transfer: schedule names unknown class %q", name)
		}
		pf := &pfile{file: f, deps: append([]Dep(nil), sched.Deps[name]...), prio: i}
		e.files[name] = pf
		for r := range f.Avail {
			e.byMethod[r] = pf
		}
	}
	if len(e.files) != len(files) {
		return nil, fmt.Errorf("transfer: schedule covers %d classes, files has %d", len(e.files), len(files))
	}
	e.startEligible()
	return e, nil
}

const eps = 1e-6

func (e *Parallel) slotFree() bool {
	return e.limit <= 0 || len(e.active) < e.limit
}

// depsSatisfied reports whether all of pf's triggers have fired.
func (e *Parallel) depsSatisfied(pf *pfile) bool {
	for _, d := range pf.deps {
		dep := e.files[d.Class]
		if dep.state == pDone {
			continue
		}
		if dep.delivered+eps < float64(d.Bytes) {
			return false
		}
	}
	return true
}

// startEligible promotes Waiting files whose triggers fired, then fills
// free slots: demand-queued files first, then eligible files in
// first-use priority order.
func (e *Parallel) startEligible() {
	for _, name := range e.order {
		pf := e.files[name]
		if pf.state == pWaiting && e.depsSatisfied(pf) {
			pf.state = pEligible
		}
	}
	for e.slotFree() && len(e.queue) > 0 {
		pf := e.queue[0]
		e.queue = e.queue[1:]
		if pf.state != pQueued {
			continue
		}
		e.start(pf)
	}
	for e.slotFree() {
		var best *pfile
		for _, name := range e.order {
			pf := e.files[name]
			if pf.state == pEligible {
				best = pf
				break
			}
		}
		if best == nil {
			return
		}
		e.start(best)
	}
}

func (e *Parallel) start(pf *pfile) {
	pf.state = pActive
	e.active = append(e.active, pf)
	if pf.delivered+eps >= float64(pf.file.Size) {
		e.complete(pf)
	}
}

func (e *Parallel) complete(pf *pfile) {
	pf.state = pDone
	pf.delivered = float64(pf.file.Size)
	for i, a := range e.active {
		if a == pf {
			e.active = append(e.active[:i], e.active[i+1:]...)
			break
		}
	}
}

// rate returns each active file's delivery rate in bytes per cycle.
func (e *Parallel) rate() float64 {
	if len(e.active) == 0 {
		return 0
	}
	return 1 / (float64(e.link.CyclesPerByte) * float64(len(e.active)))
}

// nextEvent returns the earliest cycle at which the active set can
// change: an active file completing, or a Waiting file's triggers all
// firing. +Inf when nothing is pending.
func (e *Parallel) nextEvent() float64 {
	r := e.rate()
	next := math.Inf(1)
	if r > 0 {
		for _, pf := range e.active {
			t := e.now + (float64(pf.file.Size)-pf.delivered)/r
			if t < next {
				next = t
			}
		}
		for _, name := range e.order {
			pf := e.files[name]
			if pf.state != pWaiting {
				continue
			}
			// The trigger fires when the slowest dependency crosses its
			// threshold; dependencies not transferring make it +Inf.
			fire := e.now
			ok := true
			for _, d := range pf.deps {
				dep := e.files[d.Class]
				switch dep.state {
				case pDone:
				case pActive:
					if dep.delivered+eps < float64(d.Bytes) {
						t := e.now + (float64(d.Bytes)-dep.delivered)/r
						if t > fire {
							fire = t
						}
					}
				default:
					ok = false
				}
				if !ok {
					break
				}
			}
			if ok && fire < next {
				next = fire
			}
		}
	}
	return next
}

// deliver advances all active files to cycle t (t >= e.now).
func (e *Parallel) deliver(t float64) {
	r := e.rate()
	if r > 0 {
		dt := t - e.now
		for _, pf := range e.active {
			pf.delivered += dt * r
			if pf.delivered > float64(pf.file.Size) {
				pf.delivered = float64(pf.file.Size)
			}
		}
	}
	e.now = t
}

// advanceTo runs the transfer simulation up to cycle t.
func (e *Parallel) advanceTo(t float64) {
	for e.now < t {
		next := e.nextEvent()
		if next > t {
			e.deliver(t)
			return
		}
		e.deliver(next)
		e.fireAt()
	}
}

// fireAt processes completions and trigger fires at the current instant.
func (e *Parallel) fireAt() {
	for _, name := range e.order {
		pf := e.files[name]
		if pf.state == pActive && pf.delivered+eps >= float64(pf.file.Size) {
			e.complete(pf)
		}
	}
	e.startEligible()
}

// Demand implements Engine.
func (e *Parallel) Demand(m classfile.Ref, now int64) int64 {
	e.advanceTo(float64(now))
	pf, ok := e.byMethod[m]
	if !ok {
		// A method no schedule or file claims: degrade conservatively the
		// way the sequential engine does — count a misprediction,
		// demand-start everything still pending, and wait for the whole
		// transfer rather than crashing the run.
		e.mispredicts++
		return e.demandAll(now)
	}
	offset := float64(pf.file.Avail[m])

	// Misprediction correction (§5.1): the class is neither transferred
	// nor transferring — start it now if a slot is free, else queue it
	// to transfer next.
	if pf.state == pWaiting || pf.state == pEligible {
		e.mispredicts++
		if e.slotFree() {
			e.start(pf)
		} else {
			pf.state = pQueued
			e.queue = append(e.queue, pf)
		}
	}

	// Advance the transfer simulation until the method's bytes arrive.
	for pf.delivered+eps < offset {
		if pf.state == pActive {
			r := e.rate()
			reach := e.now + (offset-pf.delivered)/r
			next := e.nextEvent()
			if reach <= next+eps {
				e.deliver(reach)
				e.fireAt()
				break
			}
			e.deliver(next)
			e.fireAt()
			continue
		}
		// Not yet active: advance to the next event (a completion frees
		// a slot, or a trigger fires). If no event is pending the
		// schedule has deadlocked, which the queue discipline prevents.
		next := e.nextEvent()
		if math.IsInf(next, 1) {
			panic(fmt.Sprintf("transfer: deadlock waiting for %v (class %s state %d)", m, pf.file.Name, pf.state))
		}
		e.deliver(next)
		e.fireAt()
	}
	availAt := int64(math.Ceil(e.now - eps))
	return maxi64(now, availAt)
}

// demandAll queues every file that has not finished and advances the
// simulation until the whole program has arrived, returning that cycle.
func (e *Parallel) demandAll(now int64) int64 {
	for _, name := range e.order {
		pf := e.files[name]
		if pf.state == pWaiting || pf.state == pEligible {
			if e.slotFree() {
				e.start(pf)
			} else {
				pf.state = pQueued
				e.queue = append(e.queue, pf)
			}
		}
	}
	for {
		done := true
		for _, name := range e.order {
			if e.files[name].state != pDone {
				done = false
				break
			}
		}
		if done {
			break
		}
		next := e.nextEvent()
		if math.IsInf(next, 1) {
			// Cannot happen once everything is started or queued, but
			// never spin.
			break
		}
		e.deliver(next)
		e.fireAt()
	}
	availAt := int64(math.Ceil(e.now - eps))
	return maxi64(now, availAt)
}

// Mispredicts implements Engine.
func (e *Parallel) Mispredicts() int { return e.mispredicts }

// Active returns the number of currently transferring files (for tests).
func (e *Parallel) Active() int { return len(e.active) }
