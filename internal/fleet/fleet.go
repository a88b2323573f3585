// Package fleet replays populations of simulated clients against the
// real code server — the scale dimension the paper's six-benchmark
// evaluation lacks. The server is the production internal/server
// handler mounted on an in-process net.Pipe listener; every client is a
// real HTTP client whose connections are shaped by a stream.LinkClass
// schedule (modem, T1, LTE-class bursty loss, satellite latency), and
// its session is the one that ships: live.Session — unit table, stream,
// verifying loader with repair, the availability gate with its deadline
// and demand policy, byte-range demand fetches, degradation to demand
// fetching when the stream dies, the cut at the end of the need trace.
// The fleet has no client logic of its own to drift from it.
//
// What a client does NOT do is execute bytecode: at fleet scale the VM
// is replaced by a need trace — the method first-use order measured
// from one real test-input execution of the app — replayed through the
// session's gate with seeded think time. Needs therefore depend only on
// (seed, config); everything else — whether a need found the stream
// about to deliver it or was demand-fetched, how many bytes that cost,
// how far the stream got before the trace ended and the session cut it,
// latency, overlap — is what the shipping client did on that link in
// that run, so mispredict rates differ by link (a slow link leaves the
// stream further behind execution).
// Canonical() strips the measured fields of a Report for determinism
// checks.
package fleet

import (
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"nonstrict/internal/apps"
	"nonstrict/internal/classfile"
	"nonstrict/internal/pipeline"
	"nonstrict/internal/server"
	"nonstrict/internal/stream"
	"nonstrict/internal/xrand"
)

// Config describes one fleet run.
type Config struct {
	// Apps is the registered app names to mount and exercise; clients
	// are assigned round-robin. Required.
	Apps []string
	// Clients is the total simulated client count (default 100).
	Clients int
	// Links is the link-class mix; clients are striped across it
	// (default: every built-in class).
	Links []stream.LinkClass
	// Seed drives every schedule: arrivals, think time, link jitter and
	// loss positions, fetch backoff jitter.
	Seed uint64
	// Order is the server's restructuring policy (default train — the
	// honest configuration, where the profile that predicted the order
	// is not the input being replayed).
	Order string
	// Duration is the simulated arrival window: client start times are
	// spread across it (default 1s of simulated time).
	Duration time.Duration
	// TimeScale divides every simulated sleep — link pacing, latency,
	// think time, arrival offsets — so a modem-schedule fleet can run in
	// milliseconds of wall clock without changing any schedule decision
	// (default 1: real time).
	TimeScale float64
	// ThinkMean is the simulated execute time between needs (default
	// 2ms; drawn uniformly from [mean/2, 3·mean/2) per need).
	ThinkMean time.Duration
	// Workers bounds concurrently active clients (default 128), keeping
	// memory flat while the total client count scales arbitrarily.
	Workers int
	// GateTimeout bounds each gate wait, in wall-clock time (default 30s;
	// it is the session's live.Options.GateTimeout). A wedged transfer
	// fails the client instead of hanging the fleet. Nothing waits after
	// the trace: the session cuts the stream's unused tail.
	GateTimeout time.Duration
	// CacheBytes bounds the server's artifact cache (0 = server default).
	CacheBytes int64
	// Fault is injected server-side chaos, applied on top of the link
	// schedules (zero = none).
	Fault stream.Fault
	// Restart is the crash-restart scenario: once a fraction of clients
	// has finished, the server process "dies" (every live connection is
	// severed) and a fresh server boots over the same persistent store,
	// so the surviving clients must resume against it (zero = none).
	Restart RestartConfig
	// Cluster runs the fleet against an N-node sharded cluster behind
	// the consistent-hash router instead of a single server (zero =
	// single server). Mutually exclusive with Restart.
	Cluster ClusterFleetConfig
}

// ClusterFleetConfig configures the cluster scenario: the fleet's
// clients dial the router (over the same shaped in-process listener a
// single-server fleet uses), the router proxies to N real nodes over
// loopback TCP, and each key is built exactly once cluster-wide with
// every other node peer-filling.
type ClusterFleetConfig struct {
	// Enabled turns the scenario on.
	Enabled bool
	// Nodes is the member count (default 3).
	Nodes int
	// VNodes and RingSeed parameterize the consistent-hash ring
	// (defaults: cluster.DefaultVNodes and 0).
	VNodes   int
	RingSeed uint64
	// KillNode, when set, crashes the node owning the first app's key
	// once KillAfterFraction of the fleet has finished (default 0.25) —
	// the mid-stream node-death scenario. Surviving clients must resume
	// through the router against the replicas.
	KillNode          bool
	KillAfterFraction float64
	// StoreRoot is the directory under which each node keeps its
	// crash-safe artifact store. Empty = a private temp dir, removed
	// after the run.
	StoreRoot string
}

// RestartConfig configures the mid-run server crash-restart.
type RestartConfig struct {
	// Enabled turns the scenario on.
	Enabled bool
	// AfterFraction fires the crash once this fraction of clients has
	// completed (default 0.5), guaranteeing the rest are mid-session.
	AfterFraction float64
	// StoreDir is the persistent artifact store shared by both server
	// incarnations. Empty = a private temp dir, removed after the run.
	StoreDir string
}

func (c Config) withDefaults() Config {
	if c.Clients <= 0 {
		c.Clients = 100
	}
	if len(c.Links) == 0 {
		c.Links, _ = stream.ParseLinks("")
	}
	if c.Order == "" {
		c.Order = server.OrderTrain
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.TimeScale <= 0 {
		c.TimeScale = 1
	}
	if c.ThinkMean <= 0 {
		c.ThinkMean = 2 * time.Millisecond
	}
	if c.Workers <= 0 {
		c.Workers = 128
	}
	if c.GateTimeout == 0 {
		c.GateTimeout = 30 * time.Second
	}
	if c.Restart.Enabled && c.Restart.AfterFraction <= 0 {
		c.Restart.AfterFraction = 0.5
	}
	if c.Cluster.Enabled {
		if c.Cluster.Nodes <= 0 {
			c.Cluster.Nodes = 3
		}
		if c.Cluster.KillNode && c.Cluster.KillAfterFraction <= 0 {
			c.Cluster.KillAfterFraction = 0.25
		}
	}
	return c
}

// appModel is the per-app ground truth shared by every client of that
// app: the need trace (method first-use order measured from a real
// test-input execution) and the program's main class. Immutable after
// construction.
type appModel struct {
	name      string
	mainClass string
	needs     []classfile.Ref
}

// buildModels executes each app once on its test input (self-checked)
// to measure its need trace — the same first-use order the VM would
// demand if it were executing at the client.
func buildModels(ctx context.Context, names []string) (map[string]*appModel, error) {
	models := make(map[string]*appModel, len(names))
	for _, name := range names {
		app, err := apps.ByName(name)
		if err != nil {
			return nil, err
		}
		r, err := pipeline.Compile(ctx, app)
		if err != nil {
			return nil, err
		}
		if err := r.Link(ctx); err != nil {
			return nil, err
		}
		m, err := r.Profile(ctx, false, false)
		if err != nil {
			return nil, err
		}
		fu := m.Profile().FirstUse
		needs := make([]classfile.Ref, len(fu))
		for i, id := range fu {
			needs[i] = r.Ix.Ref(id)
		}
		models[name] = &appModel{name: app.Name, mainClass: app.IR.Main, needs: needs}
	}
	return models, nil
}

// memListener is an in-process net.Listener over net.Pipe: the server
// accepts one end, the fleet dials the other, and no socket, port, or
// kernel buffer is involved. Pipe writes are synchronous, so a slow
// shaped reader exerts true backpressure on the serving goroutine.
type memListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once

	// live tracks the server-side pipe ends so the restart scenario can
	// sever every in-flight connection at the crash instant.
	liveMu sync.Mutex
	live   map[net.Conn]struct{}
}

func newMemListener() *memListener {
	return &memListener{
		conns:  make(chan net.Conn),
		closed: make(chan struct{}),
		live:   make(map[net.Conn]struct{}),
	}
}

// killConns abruptly closes every live server-side connection — the
// fleet's simulated process death — and reports how many were cut.
func (l *memListener) killConns() int {
	l.liveMu.Lock()
	n := len(l.live)
	for c := range l.live {
		c.Close()
	}
	l.live = make(map[net.Conn]struct{})
	l.liveMu.Unlock()
	return n
}

func (l *memListener) forget(c net.Conn) {
	l.liveMu.Lock()
	delete(l.live, c)
	l.liveMu.Unlock()
}

// trackedPipe is the server end of one client connection, deregistering
// itself when the server closes it normally.
type trackedPipe struct {
	net.Conn
	l    *memListener
	once sync.Once
}

func (c *trackedPipe) Close() error {
	c.once.Do(func() { c.l.forget(c.Conn) })
	return c.Conn.Close()
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, errors.New("fleet: listener closed")
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr{} }

// dial hands the server one pipe end and returns the other.
func (l *memListener) dial(ctx context.Context) (net.Conn, error) {
	client, srv := net.Pipe()
	l.liveMu.Lock()
	l.live[srv] = struct{}{}
	l.liveMu.Unlock()
	select {
	case l.conns <- &trackedPipe{Conn: srv, l: l}:
		return client, nil
	case <-l.closed:
		l.forget(srv)
		client.Close()
		return nil, errors.New("fleet: listener closed")
	case <-ctx.Done():
		l.forget(srv)
		client.Close()
		return nil, ctx.Err()
	}
}

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "fleet" }

// Run executes one fleet simulation and aggregates the report.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Apps) == 0 {
		return nil, errors.New("fleet: no apps configured")
	}
	if cfg.Cluster.Enabled {
		if cfg.Restart.Enabled {
			return nil, errors.New("fleet: the Restart and Cluster scenarios are mutually exclusive")
		}
		return runCluster(ctx, cfg)
	}

	storeDir := cfg.Restart.StoreDir
	if cfg.Restart.Enabled && storeDir == "" {
		d, err := os.MkdirTemp("", "fleet-store-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(d)
		storeDir = d
	}
	boot := func() (*server.Server, error) {
		return server.New(server.Config{
			Apps:       cfg.Apps,
			Order:      cfg.Order,
			CacheBytes: cfg.CacheBytes,
			Fault:      cfg.Fault,
			StoreDir:   storeDir,
		})
	}
	srv, err := boot()
	if err != nil {
		return nil, err
	}
	// cur is the live server incarnation; the crash-restart swaps it
	// under the one long-lived http.Server, exactly as a supervisor
	// would re-exec the process behind a listening socket.
	var cur atomic.Pointer[server.Server]
	cur.Store(srv)
	ln := newMemListener()
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur.Load().Handler().ServeHTTP(w, r)
	})}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		hs.Serve(ln)
	}()
	defer func() {
		hs.Close()
		ln.Close()
		<-serveDone
	}()

	// Prebuild every artifact and measure every need trace up front:
	// builds are then a deterministic len(apps), and client metrics
	// never include compile time.
	for _, name := range cfg.Apps {
		if _, err := srv.Warm(ctx, name); err != nil {
			return nil, err
		}
	}
	models, err := buildModels(ctx, cfg.Apps)
	if err != nil {
		return nil, err
	}

	agg := newAggregator(cfg.Links)
	sem := make(chan struct{}, cfg.Workers)
	start := time.Now()

	// The restart trigger: once AfterFraction of the fleet has finished,
	// the server "crashes" — every live connection is severed and a fresh
	// incarnation boots over the same store — so every remaining client
	// crosses the restart mid-session.
	var restart *RestartReport
	var restartErr error
	if cfg.Restart.Enabled {
		agg.onFraction(cfg.Restart.AfterFraction, cfg.Clients, func() {
			next, err := boot()
			if err != nil {
				restartErr = err
				return
			}
			cur.Store(next)
			killed := ln.killConns()
			restart = &RestartReport{
				AfterFraction: cfg.Restart.AfterFraction,
				Restarts:      1,
				KillAtMs:      float64(time.Since(start)) / float64(time.Millisecond),
				ConnsKilled:   killed,
			}
		})
	}

	driveClients(ctx, cfg, agg, models, ln, sem)
	if restartErr != nil {
		return nil, restartErr
	}

	final := cur.Load()
	rep := agg.report(cfg, final.CacheStats(), time.Since(start))
	if restart != nil {
		// The restart proof fields: the first incarnation built every
		// artifact exactly once; the second must have built nothing —
		// every byte it served came from the persistent store.
		post := final.CacheStats()
		restart.PreBuilds = srv.CacheStats().Builds
		restart.PostBuilds = post.Builds
		restart.PostStoreHits = post.StoreHits
		done, failed := agg.outcomes()
		if done > 0 {
			restart.SuccessRate = float64(done-failed) / float64(done)
		}
		restart.P99FirstInvocationMs = quantiles(agg.allFirstMs()).P99
		rep.Restart = restart
	}
	return rep, nil
}

// driveClients launches every simulated client on its seeded arrival
// schedule and waits for the whole fleet to finish. The single-server
// and cluster paths share it verbatim: a client never knows whether
// "http://fleet" is one server or a router over N of them.
func driveClients(ctx context.Context, cfg Config, agg *aggregator, models map[string]*appModel, ln *memListener, sem chan struct{}) {
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		linkIdx := i % len(cfg.Links)
		appName := cfg.Apps[(i/len(cfg.Links))%len(cfg.Apps)]
		c := &client{
			id:    i,
			seed:  clientSeed(cfg.Seed, uint64(i)),
			cfg:   &cfg,
			link:  cfg.Links[linkIdx],
			model: models[appName],
			dial:  ln.dial,
		}
		// The seeded arrival process: client i starts at its slot in the
		// window, jittered within the slot.
		slot := cfg.Duration / time.Duration(cfg.Clients)
		offset := time.Duration(i) * slot
		if slot > 0 {
			offset += time.Duration(xrand.New(c.seed ^ 0xA11).Intn(int(slot)))
		}
		wg.Add(1)
		go func(linkIdx int, offset time.Duration) {
			defer wg.Done()
			sleepScaled(ctx, offset, cfg.TimeScale)
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				agg.add(linkIdx, &clientResult{failed: true, err: ctx.Err()})
				return
			}
			agg.add(linkIdx, c.run(ctx))
		}(linkIdx, offset)
	}
	wg.Wait()
}

// clientSeed derives a per-client seed stream, so client i's schedule
// is independent of every other client's and of how many there are.
func clientSeed(seed, i uint64) uint64 {
	x := xrand.Mix64(seed + (i+1)*0x9E3779B97F4A7C15)
	if x == 0 {
		x = 1
	}
	return x
}

// sleepScaled sleeps d divided by scale, abandoning early on ctx.
func sleepScaled(ctx context.Context, d time.Duration, scale float64) {
	d = time.Duration(float64(d) / scale)
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// aggregator collects client results per link class.
type aggregator struct {
	mu    sync.Mutex
	links []stream.LinkClass
	per   []*linkAgg
	done  int // clients finished (success or failure)

	// fire runs once, on the goroutine of the client whose completion
	// makes done reach fireAt (see onFraction).
	fireAt int
	fire   func()
}

type linkAgg struct {
	clients, failures                                     int
	needs, mispredicts, demands, streamBytes, demandBytes int64
	corruptUnits, repaired                                int64
	requests, retries, resumes                            int64
	firstMs                                               []float64
	overlapSum                                            float64
	overlapN                                              int
	errs                                                  []string
}

func newAggregator(links []stream.LinkClass) *aggregator {
	per := make([]*linkAgg, len(links))
	for i := range per {
		per[i] = &linkAgg{}
	}
	return &aggregator{links: links, per: per}
}

// onFraction arranges the mid-run event of the restart and node-kill
// scenarios: f runs exactly when the given fraction of the fleet (at
// least one client) has finished, on the finishing client's goroutine
// and before that client counts as returned — so the event always lands
// while the rest of the fleet is still running, and driveClients does
// not return before f has. Call it before the clients start.
func (a *aggregator) onFraction(fraction float64, clients int, f func()) {
	a.fireAt, a.fire = max(int(fraction*float64(clients)), 1), f
}

// outcomes returns total finished clients and how many of them failed.
func (a *aggregator) outcomes() (done, failed int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, la := range a.per {
		failed += la.failures
	}
	return a.done, failed
}

// allFirstMs flattens every successful client's first-invocation sample
// across all link classes.
func (a *aggregator) allFirstMs() []float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []float64
	for _, la := range a.per {
		out = append(out, la.firstMs...)
	}
	return out
}

func (a *aggregator) add(link int, r *clientResult) {
	a.mu.Lock()
	a.done++
	fire := a.done == a.fireAt && a.fire != nil
	a.per[link].add(r)
	a.mu.Unlock()
	if fire {
		a.fire()
	}
}

func (la *linkAgg) add(r *clientResult) {
	la.clients++
	if r.failed {
		la.failures++
		if len(la.errs) < 3 && r.err != nil {
			la.errs = append(la.errs, r.err.Error())
		}
		return
	}
	la.needs += r.needs
	la.mispredicts += r.mispredicts
	la.demands += r.demands
	la.streamBytes += r.streamBytes
	la.demandBytes += r.demandBytes
	la.corruptUnits += r.corruptUnits
	la.repaired += r.repaired
	la.requests += r.fetch.Requests
	la.retries += r.fetch.Retries
	la.resumes += r.fetch.Resumes
	la.firstMs = append(la.firstMs, float64(r.firstInvocation)/float64(time.Millisecond))
	la.overlapSum += r.overlap
	la.overlapN++
}

func (a *aggregator) report(cfg Config, cache server.CacheStats, wall time.Duration) *Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	rep := &Report{
		SchemaVersion: Schema,
		Seed:          cfg.Seed,
		Order:         cfg.Order,
		Apps:          append([]string(nil), cfg.Apps...),
		Clients:       cfg.Clients,
		TimeScale:     cfg.TimeScale,
		DurationMs:    float64(wall) / float64(time.Millisecond),
		Cache:         cache,
	}
	for i, la := range a.per {
		lr := LinkReport{
			Link:          a.links[i].Name,
			Clients:       la.clients,
			Failures:      la.failures,
			Needs:         la.needs,
			Mispredicts:   la.mispredicts,
			DemandFetches: la.demands,
			StreamBytes:   la.streamBytes,
			DemandBytes:   la.demandBytes,
			CorruptUnits:  la.corruptUnits,
			Repaired:      la.repaired,
			Requests:      la.requests,
			Retries:       la.retries,
			Resumes:       la.resumes,
			Errors:        la.errs,
		}
		if la.needs > 0 {
			lr.MispredictRate = float64(la.mispredicts) / float64(la.needs)
		}
		lr.FirstInvocationMs = quantiles(la.firstMs)
		if la.overlapN > 0 {
			lr.MeanOverlap = la.overlapSum / float64(la.overlapN)
		}
		rep.Links = append(rep.Links, lr)
	}
	return rep
}
