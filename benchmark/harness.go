package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"nonstrict/internal/apps"
	"nonstrict/internal/server"
	"nonstrict/internal/stream"
)

// env is what every workload is given. The seed reaches only the load
// generator (link jitter, Range unit indices); the program under test
// sees generated requests, never the seed or a workload name.
type env struct {
	seed uint64
	// seconds is the length of a workload's timed region; passes run
	// until it is used up, and at least once (so 0 means one pass).
	seconds float64
	// quick shrinks everything that is not governed by seconds — set-up
	// repeats, layer-walk repeats, real link delays — for smoke runs.
	quick bool
	// scratch is where store directories and the trace file go.
	scratch string
	apps    []*apps.App
}

func newEnv(seed uint64, seconds float64, quick bool, scratch string) *env {
	return &env{seed: seed, seconds: seconds, quick: quick, scratch: scratch, apps: apps.All()}
}

// ref is the artifact every served byte is compared against. Builds are
// deterministic per (app, order), so one local build is the reference
// for every server, node and router in the run.
type ref struct {
	art   *server.Artifact
	units []stream.UnitInfo
}

func buildRefs(ctx context.Context, as []*apps.App, order string) (map[string]*ref, error) {
	refs := make(map[string]*ref, len(as))
	for _, a := range as {
		art, err := server.Build(ctx, server.Key{App: a.Name, Order: order})
		if err != nil {
			return nil, fmt.Errorf("reference build %s/%s: %w", a.Name, order, err)
		}
		units, err := stream.ParseTOC(art.TOC)
		if err != nil {
			return nil, fmt.Errorf("reference unit table %s/%s: %w", a.Name, order, err)
		}
		refs[a.Name] = &ref{art: art, units: units}
	}
	return refs, nil
}

// listener is one handler served on a loopback TCP port.
type listener struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // always ErrServerClosed after close
	}()
	return l, nil
}

// close severs every connection and returns once Serve has.
func (l *listener) close() {
	_ = l.srv.Close() // nothing to do about a listener that will not close
	<-l.done
}

// phase is one timed region: what was attempted, what failed, and the
// raw samples the end-to-end metrics are taken from.
type phase struct {
	ops                int
	wall, cpu          time.Duration
	allocBytes         uint64
	first, total, part samples // milliseconds
	attempted, failed  int64
	notes              []string // the first few failures, for the log
}

// newPhase preallocates the sample buffers. Growing them during a run
// would grow the live heap and with it the collector's trigger, so the
// benchmark's own bookkeeping would make late passes faster than early
// ones (serve-warm's median pass fell from 3.8 ms to 3.2 ms over 15 s).
// The capacities cover a 60 s run on a box several times faster than
// the reference one; beyond them append still works.
func newPhase() *phase {
	return &phase{
		first: make(samples, 0, 1<<16),
		total: make(samples, 0, 1<<16),
		part:  make(samples, 0, 1<<20),
	}
}

// check counts one verified expectation.
func (p *phase) check(ok bool, format string, args ...any) bool {
	p.attempted++
	if !ok {
		p.failed++
		if len(p.notes) < 8 {
			p.notes = append(p.notes, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// merge folds a worker's private phase into p.
func (p *phase) merge(q *phase) {
	p.ops += q.ops
	p.first = append(p.first, q.first...)
	p.total = append(p.total, q.total...)
	p.part = append(p.part, q.part...)
	p.attempted += q.attempted
	p.failed += q.failed
	for _, n := range q.notes {
		if len(p.notes) < 8 {
			p.notes = append(p.notes, n)
		}
	}
}

// fixture is a workload that has been set up.
type fixture interface {
	// measure runs whole passes until the deadline (at least one),
	// recording samples and checks in p and spans under sp.
	measure(e *env, p *phase, deadline time.Time, sp spanRef)
	// finish checks the workload's counter invariants into p and adds
	// the layer counters it observed to c (normalised by p.ops where the
	// unit is count/op).
	finish(p *phase, c map[string]float64)
	close()
}

// workload is one named traffic mix. alias gives, for the role-named
// end-to-end metrics, what each one is in this workload.
type workload struct {
	name, why string
	alias     map[string]string
	setup     func(e *env) (fixture, error)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timed runs one measured region of the fixture and accounts its wall
// time, process CPU and allocated bytes. The collection beforehand
// keeps set-up garbage out of the region's GC work.
func timed(e *env, fx fixture, seconds float64, tr *tracer, name string) *phase {
	p := newPhase()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	sp := tr.root(name, name, 0)
	t0 := time.Now()
	fx.measure(e, p, t0.Add(time.Duration(seconds*float64(time.Second))), sp)
	p.wall = time.Since(t0)
	sp.end()
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	return p
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a timing (0 for a ratio or counter);
	// Alias is the metric's concrete meaning in this workload.
	N     int    `json:"n,omitempty"`
	Alias string `json:"alias,omitempty"`
}

// outcome is one workload's run.
type outcome struct {
	Workload  string           `json:"workload"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Notes     []string         `json:"notes,omitempty"`
	// SelfMS is a traced run's self time per span name: the span's
	// duration minus what its children cover, summed over its spans.
	SelfMS map[string]float64 `json:"self_ms,omitempty"`
}

// run sets the workload up (several times, for a steady setup_s),
// measures it, and reports the end-to-end metrics — or, traced, the
// per-layer ones. A traced run measures an untraced and a traced half
// on the same fixture, so the overhead it reports compares like with
// like, then walks the layers one at a time.
func run(e *env, w workload, traced bool, traceOut string) (*outcome, error) {
	repeats := 5
	if e.quick {
		repeats = 1
	}
	var fx fixture
	setups := make([]float64, repeats)
	for i := range setups {
		if fx != nil {
			fx.close()
		}
		t0 := time.Now()
		var err error
		if fx, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups[i] = time.Since(t0).Seconds()
	}
	defer fx.close()

	out := &outcome{Workload: w.name, Metrics: make(map[string]value)}
	if !traced {
		p := timed(e, fx, e.seconds, nil, w.name)
		fx.finish(p, map[string]float64{})
		out.fill(p)
		out.endToEnd(w, p, setups)
		return out, nil
	}

	plain := timed(e, fx, e.seconds/2, nil, w.name)
	tr := newTracer()
	withSpans := timed(e, fx, e.seconds/2, tr, w.name)
	// The workload's own rows come from the untraced half alone; the
	// layers' counters and the checks from both.
	layers := map[string]float64{
		"first_ms.tail":  plain.first.p(tailPercentile(len(plain.first))),
		"part_ms.tail":   plain.part.p(tailPercentile(len(plain.part))),
		"cpu_ms_per_op":  ms(plain.cpu) / float64(plain.ops),
		"trace.overhead": withSpans.total.p(50) / plain.total.p(50),
	}
	plain.merge(withSpans)
	fx.finish(plain, layers)
	walkLayers(e, tr, plain, layers)

	spans := tr.finished()
	bad := nestingErrors(spans)
	plain.check(bad == 0, "%d spans reach outside their parent", bad)
	out.SelfMS = make(map[string]float64)
	for name, d := range selfTimes(spans) {
		plain.check(d >= 0, "span %s has negative self time %v", name, d)
		out.SelfMS[name] = ms(d)
	}
	if err := writeTraceFile(traceOut, spans); err != nil {
		return nil, err
	}
	out.fill(plain)
	for _, d := range perLayer {
		out.Metrics[d.Name] = value{Value: layers[d.Name], Unit: d.Unit}
	}
	return out, nil
}

func (o *outcome) fill(p *phase) {
	o.Attempted, o.Failed, o.Notes = p.attempted, p.failed, p.notes
	o.Correct = p.failed == 0 && p.attempted > 0
}

func (o *outcome) endToEnd(w workload, p *phase, setups []float64) {
	ops := float64(p.ops)
	vals := map[string]value{
		"setup_s":         {Value: median(setups), N: len(setups)},
		"first_ms.p50":    {Value: p.first.p(50), N: len(p.first)},
		"total_ms.p50":    {Value: p.total.p(50), N: len(p.total)},
		"part_ms.p50":     {Value: p.part.p(50), N: len(p.part)},
		"ops_per_s":       {Value: ops / p.wall.Seconds(), N: p.ops},
		"alloc_kb_per_op": {Value: float64(p.allocBytes) / 1024 / ops, N: p.ops},
	}
	for _, d := range endToEnd {
		v := vals[d.Name]
		v.Unit, v.Alias = d.Unit, w.alias[d.Name]
		o.Metrics[d.Name] = v
	}
}

func writeTraceFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	return f.Close()
}

// workers runs fn once per client connection, each with a private
// phase, and merges them into p when all have returned. The load is
// closed-loop: inside fn a client's next request waits for its last.
func workers(n int, p *phase, fn func(worker int, q *phase)) {
	parts := make([]*phase, n)
	var wg sync.WaitGroup
	for i := range parts {
		parts[i] = newPhase()
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, parts[i])
		}()
	}
	wg.Wait()
	for _, q := range parts {
		p.merge(q)
	}
}
