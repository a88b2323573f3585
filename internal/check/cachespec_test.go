package check

import (
	"fmt"
	"strings"
)

// Spec-side constants mirrored by the harness: every scripted build
// publishes a 100-byte data array plus a 2-byte TOC, so one resident
// artifact accounts for exactly artBytes against the budget.
const (
	artDataLen = 100
	artTOCLen  = 2
	artBytes   = artDataLen + artTOCLen
)

// Budgets the scenario generator exercises: one that never evicts and
// one that fits a single artifact, so every second insert evicts.
const (
	noEvictBudget = int64(1) << 20
	evictBudget   = int64(artBytes) + 10
)

// buildOutcome scripts the fate of a build, should the op run one.
type buildOutcome int

const (
	outcomeOK buildOutcome = iota
	outcomeErr
	outcomePanic
)

func (o buildOutcome) String() string {
	switch o {
	case outcomeOK:
		return "ok"
	case outcomeErr:
		return "err"
	case outcomePanic:
		return "panic"
	}
	return fmt.Sprintf("outcome-%d", int(o))
}

// cacheOp is one scripted concurrent Cache.Get call.
type cacheOp struct {
	// Key is a small key index (0-based); ops sharing it contend.
	Key int
	// Outcome is the build's scripted fate if this op ends up running it
	// (which depends on the schedule).
	Outcome buildOutcome
	// Cancel marks the op's context cancelable: schedules may cancel it
	// while it waits on another op's in-flight build.
	Cancel bool
}

// cacheScenario is one configuration the enumerator explores every
// schedule of: a set of concurrent Get calls and a cache byte budget.
type cacheScenario struct {
	Ops    []cacheOp
	Budget int64
}

func (sc *cacheScenario) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "budget=%d ops=[", sc.Budget)
	for i, op := range sc.Ops {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "k%d:%s", op.Key, op.Outcome)
		if op.Cancel {
			b.WriteString(":cancel")
		}
	}
	b.WriteByte(']')
	return b.String()
}

// cacheStepKind is the scheduler's action alphabet. start launches an
// op's Get; finish releases the scripted build an op is running; cancel
// kills a waiting op's context. Each step runs to quiescence before the
// next (the harness waits for the step's observable consequences), so a
// schedule is a total order over the implementation's decision points.
type cacheStepKind int

const (
	stepStart cacheStepKind = iota
	stepFinish
	stepCancel
)

// opRole is what the spec predicts a started op becomes.
type opRole int

const (
	roleNone opRole = iota
	roleHit
	roleBuild
	roleWait
)

// cacheStep is one schedule entry plus the spec's annotations for it:
// the role a started op must assume, the build sequence number involved,
// and which ops' Get calls return as a consequence of the step.
type cacheStep struct {
	kind cacheStepKind
	op   int // start/cancel: the acting op; finish: the flight's builder

	role      opRole
	seq       int
	completes []int
}

func (s cacheStep) String() string {
	switch s.kind {
	case stepStart:
		role := [...]string{"?", "hit", "build", "wait"}[s.role]
		return fmt.Sprintf("start(%d)=%s", s.op, role)
	case stepFinish:
		return fmt.Sprintf("finish(%d)", s.op)
	case stepCancel:
		return fmt.Sprintf("cancel(%d)", s.op)
	}
	return fmt.Sprintf("step-%d(%d)", int(s.kind), s.op)
}

// cacheOutcome is the spec's prediction for one op's Get return.
type cacheOutcome struct {
	done bool
	hit  bool
	err  errClass
	seq  int // artifact identity (build sequence); -1 when no artifact
}

// specFlight is one in-progress build in the model.
type specFlight struct {
	builder int
	key     int
	seq     int
	waiters []int
}

// cacheSpec is the executable model of internal/server.Cache: an LRU
// list of (key, build-seq) entries, the in-flight builds, and the same
// counters CacheStats exposes. All transitions are pure single-threaded
// code — this is the "what it means" half of the checker.
type cacheSpec struct {
	sc       *cacheScenario
	resident []specEnt // index 0 = MRU
	flights  map[int]*specFlight
	byKey    map[int]*specFlight
	started  []bool
	waiting  []bool
	out      []cacheOutcome
	nextSeq  int

	hits, misses, builds, buildErrors, evictions int64
}

type specEnt struct{ key, seq int }

func newCacheSpec(sc *cacheScenario) *cacheSpec {
	n := len(sc.Ops)
	s := &cacheSpec{
		sc:      sc,
		flights: make(map[int]*specFlight),
		byKey:   make(map[int]*specFlight),
		started: make([]bool, n),
		waiting: make([]bool, n),
		out:     make([]cacheOutcome, n),
	}
	for i := range s.out {
		s.out[i].seq = -1
	}
	return s
}

func (s *cacheSpec) clone() *cacheSpec {
	c := &cacheSpec{
		sc:          s.sc,
		resident:    append([]specEnt(nil), s.resident...),
		flights:     make(map[int]*specFlight, len(s.flights)),
		byKey:       make(map[int]*specFlight, len(s.byKey)),
		started:     append([]bool(nil), s.started...),
		waiting:     append([]bool(nil), s.waiting...),
		out:         append([]cacheOutcome(nil), s.out...),
		nextSeq:     s.nextSeq,
		hits:        s.hits,
		misses:      s.misses,
		builds:      s.builds,
		buildErrors: s.buildErrors,
		evictions:   s.evictions,
	}
	for b, f := range s.flights {
		nf := &specFlight{builder: f.builder, key: f.key, seq: f.seq,
			waiters: append([]int(nil), f.waiters...)}
		c.flights[b] = nf
		c.byKey[nf.key] = nf
	}
	return c
}

func (s *cacheSpec) bytes() int64 { return int64(len(s.resident)) * artBytes }

func (s *cacheSpec) done() bool {
	for i := range s.out {
		if !s.out[i].done {
			return false
		}
	}
	return true
}

// enabled returns the steps the scheduler may take next, in a
// deterministic order. Cancels are enabled only for ops currently
// parked as waiters — canceling a builder's context is a no-op by
// design (builds run on context.Background), so those schedules add
// nothing observable.
func (s *cacheSpec) enabled() []cacheStep {
	var steps []cacheStep
	for i := range s.sc.Ops {
		if !s.started[i] {
			steps = append(steps, cacheStep{kind: stepStart, op: i})
		}
	}
	for i := range s.sc.Ops {
		if _, ok := s.flights[i]; ok {
			steps = append(steps, cacheStep{kind: stepFinish, op: i})
		}
	}
	for i := range s.sc.Ops {
		if s.waiting[i] && s.sc.Ops[i].Cancel {
			steps = append(steps, cacheStep{kind: stepCancel, op: i})
		}
	}
	return steps
}

// find returns the resident index of key, or -1.
func (s *cacheSpec) find(key int) int {
	for i, e := range s.resident {
		if e.key == key {
			return i
		}
	}
	return -1
}

// apply advances the model by one step, filling in the step's
// annotations (role, seq, completes) for the harness to enforce.
func (s *cacheSpec) apply(st *cacheStep) {
	switch st.kind {
	case stepStart:
		i := st.op
		op := s.sc.Ops[i]
		s.started[i] = true
		if ix := s.find(op.Key); ix >= 0 {
			ent := s.resident[ix]
			// LRU bump: a hit moves the entry to the warm end.
			s.resident = append(s.resident[:ix], s.resident[ix+1:]...)
			s.resident = append([]specEnt{ent}, s.resident...)
			s.hits++
			st.role = roleHit
			st.seq = ent.seq
			s.out[i] = cacheOutcome{done: true, hit: true, err: errNone, seq: ent.seq}
			st.completes = []int{i}
			return
		}
		s.misses++
		if f := s.byKey[op.Key]; f != nil {
			f.waiters = append(f.waiters, i)
			s.waiting[i] = true
			st.role = roleWait
			st.seq = f.seq
			return
		}
		f := &specFlight{builder: i, key: op.Key, seq: s.nextSeq}
		s.nextSeq++
		s.flights[i] = f
		s.byKey[op.Key] = f
		st.role = roleBuild
		st.seq = f.seq

	case stepCancel:
		i := st.op
		f := s.byKey[s.sc.Ops[i].Key]
		for wi, w := range f.waiters {
			if w == i {
				f.waiters = append(f.waiters[:wi], f.waiters[wi+1:]...)
				break
			}
		}
		s.waiting[i] = false
		s.out[i] = cacheOutcome{done: true, err: errCanceled, seq: -1}
		st.completes = []int{i}

	case stepFinish:
		f := s.flights[st.op]
		delete(s.flights, st.op)
		delete(s.byKey, f.key)
		s.builds++
		var oc cacheOutcome
		switch s.sc.Ops[st.op].Outcome {
		case outcomeOK:
			s.insert(f.key, f.seq)
			oc = cacheOutcome{done: true, err: errNone, seq: f.seq}
		case outcomeErr:
			s.buildErrors++
			oc = cacheOutcome{done: true, err: errBuild, seq: -1}
		case outcomePanic:
			s.buildErrors++
			oc = cacheOutcome{done: true, err: errPanic, seq: -1}
		}
		st.seq = f.seq
		st.completes = append([]int{st.op}, f.waiters...)
		for _, j := range st.completes {
			s.out[j] = oc
			s.waiting[j] = false
		}
	}
}

// insert models insertLocked: push-front, then evict from the cold end
// while over budget, never evicting the entry just inserted.
func (s *cacheSpec) insert(key, seq int) {
	s.resident = append([]specEnt{{key, seq}}, s.resident...)
	for s.bytes() > s.sc.Budget && len(s.resident) > 1 {
		s.resident = s.resident[:len(s.resident)-1]
		s.evictions++
	}
}

// cacheScenarios generates the configuration space for ops concurrent
// Get calls over at most keys distinct keys. Key patterns are
// canonicalized by first occurrence (AAB and BBA are the same scenario),
// fault placement tries each op as the one whose build errors or
// panics, and at most one op is cancelable per scenario — one faulty op
// and one cancelable op already cover every pairwise interaction the
// implementation can express, and keep the product tractable.
func cacheScenarios(ops, keys int) []*cacheScenario {
	var out []*cacheScenario
	for _, pattern := range canonicalKeyPatterns(ops, keys) {
		distinct := 0
		for _, k := range pattern {
			if k+1 > distinct {
				distinct = k + 1
			}
		}
		budgets := []int64{noEvictBudget}
		if distinct > 1 {
			// Eviction needs at least two keys to be observable.
			budgets = append(budgets, evictBudget)
		}
		for _, outcomes := range outcomeVectors(ops) {
			for cancel := -1; cancel < ops; cancel++ {
				for _, budget := range budgets {
					sc := &cacheScenario{Budget: budget, Ops: make([]cacheOp, ops)}
					for i := range sc.Ops {
						sc.Ops[i] = cacheOp{Key: pattern[i], Outcome: outcomes[i], Cancel: i == cancel}
					}
					out = append(out, sc)
				}
			}
		}
	}
	return out
}

// canonicalKeyPatterns enumerates the assignments of ops to key slots,
// deduplicated under key renaming: each pattern labels keys in first-
// occurrence order, so op 0 always uses key 0.
func canonicalKeyPatterns(ops, keys int) [][]int {
	var out [][]int
	var rec func(pattern []int, used int)
	rec = func(pattern []int, used int) {
		if len(pattern) == ops {
			out = append(out, append([]int(nil), pattern...))
			return
		}
		limit := used + 1 // first-occurrence canonical form
		if limit > keys {
			limit = keys
		}
		for k := 0; k < limit; k++ {
			nu := used
			if k == used {
				nu++
			}
			rec(append(pattern, k), nu)
		}
	}
	rec(nil, 0)
	return out
}

// outcomeVectors returns the build-outcome assignments to explore:
// all-OK plus each single-op fault.
func outcomeVectors(ops int) [][]buildOutcome {
	allOK := make([]buildOutcome, ops)
	out := [][]buildOutcome{allOK}
	for i := 0; i < ops; i++ {
		for _, o := range []buildOutcome{outcomeErr, outcomePanic} {
			v := make([]buildOutcome, ops)
			v[i] = o
			out = append(out, v)
		}
	}
	return out
}
