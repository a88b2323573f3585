// Package fleet replays populations of simulated clients against the
// real code server — the scale dimension the paper's six-benchmark
// evaluation lacks. The server is the production internal/server
// handler mounted on an in-process net.Pipe listener; every client is a
// real HTTP client whose connections are shaped by a stream.LinkClass
// schedule (modem, T1, LTE-class jitter, satellite latency), and
// its session is the one that ships: live.Session — unit table, stream,
// verifying loader with repair, the availability gate with its deadline
// and demand policy, byte-range demand fetches, degradation to demand
// fetching when the stream dies, the cut at the end of the need trace.
// The fleet has no client logic of its own to drift from it.
//
// What a client does NOT do is execute bytecode: at fleet scale the VM
// is replaced by a need trace — the method first-use order measured
// from one real test-input execution of the app — replayed through the
// session's gate with seeded think time. The needs a client crosses
// therefore depend only on (seed, config); everything else in its
// live.Stats — whether a need found the stream about to deliver it or
// was demand-fetched, how many bytes that cost, how far the stream got
// before the trace ended and the session cut it, latency, overlap — is
// what the shipping client did on that link in that run.
//
// The fleet measures nothing of its own: runFleet returns each client's
// session Stats as Close returned it, plus the server-side counters the
// restart and cluster scenarios prove, and the tests assert over those.
//
// The package is test code: every file is a _test.go file, so nothing
// that ships can import it, and its scenarios are its tests.
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
	"nonstrict/internal/live"
	"nonstrict/internal/pipeline"
	"nonstrict/internal/server"
	"nonstrict/internal/stream"
	"nonstrict/internal/xrand"
)

// config describes one fleet run.
type config struct {
	// Apps is the registered app names to mount and exercise; clients
	// are assigned round-robin. Required.
	Apps []string
	// Clients is the total simulated client count.
	Clients int
	// Links is the link-class mix; clients are striped across it.
	// Required.
	Links []stream.LinkClass
	// Seed drives every schedule: arrivals, think time, link jitter,
	// fetch backoff jitter.
	Seed uint64
	// Order is the server's restructuring policy (default train — the
	// honest configuration, where the profile that predicted the order
	// is not the input being replayed).
	Order string
	// Duration is the simulated arrival window: client start times are
	// spread across it.
	Duration time.Duration
	// TimeScale divides every simulated sleep — link pacing, latency,
	// think time, arrival offsets — so a modem-schedule fleet can run in
	// milliseconds of wall clock without changing any schedule decision
	// (1 is real time). Required to be positive.
	TimeScale float64
	// ThinkMean is the simulated execute time between needs, drawn
	// uniformly from [mean/2, 3·mean/2) per need.
	ThinkMean time.Duration
	// Fault is injected server-side chaos, applied on top of the link
	// schedules (zero = none).
	Fault stream.Fault
	// Restart is the crash-restart scenario: once a fraction of clients
	// has finished, the server process "dies" (every live connection is
	// severed) and a fresh server boots over the same persistent store,
	// so the surviving clients must resume against it (zero = none).
	Restart restartConfig
	// Cluster runs the fleet against an N-node sharded cluster behind
	// the consistent-hash router instead of a single server (zero =
	// single server). Mutually exclusive with Restart.
	Cluster clusterConfig
}

// clusterConfig configures the cluster scenario: the fleet's
// clients dial the router (over the same shaped in-process listener a
// single-server fleet uses), the router proxies to N real nodes over
// loopback TCP, and each key is built exactly once cluster-wide with
// every other node peer-filling.
type clusterConfig struct {
	// Enabled turns the scenario on.
	Enabled bool
	// Nodes is the member count (default 3).
	Nodes int
	// RingSeed seeds the consistent-hash ring.
	RingSeed uint64
	// KillNode, when set, crashes the node owning the first app's key
	// once KillAfterFraction of the fleet has finished — the mid-stream
	// node-death scenario. Surviving clients must resume through the
	// router against the replicas.
	KillNode          bool
	KillAfterFraction float64
	// StoreRoot is the directory under which each node keeps its
	// crash-safe artifact store. Empty = a private temp dir, removed
	// after the run.
	StoreRoot string
}

// restartConfig configures the mid-run server crash-restart.
type restartConfig struct {
	// Enabled turns the scenario on.
	Enabled bool
	// AfterFraction fires the crash once this fraction of clients (at
	// least one) has completed, guaranteeing the rest are mid-session.
	AfterFraction float64
	// StoreDir is the persistent artifact store shared by both server
	// incarnations. Empty = a private temp dir, removed after the run.
	StoreDir string
}

// workers bounds concurrently active clients, keeping memory flat while
// the total client count scales arbitrarily.
const workers = 128

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

// result is what one fleet run did: every client's session, and the
// server-side counters the restart and cluster scenarios prove.
type result struct {
	// Clients holds one entry per client, in client order.
	Clients []clientResult
	// Builds counts pipeline runs: the server's (the first
	// incarnation's, in the restart scenario), or the sum over the
	// cluster's nodes.
	Builds int64
	// PostBuilds counts the restarted incarnation's builds; its store
	// should have served it everything.
	PostBuilds int64
	// ConnsKilled counts the connections the restart or the node kill
	// severed.
	ConnsKilled int
	// PeerFills and FallbackBuilds are summed over the cluster's nodes:
	// keys a replica transferred from the owner, and fills that degraded
	// to a local build.
	PeerFills, FallbackBuilds int64
}

// clientResult is one client's outcome.
type clientResult struct {
	// App and Link name the client's app and link class.
	App, Link string
	// Err is the session's error, or the fleet's cancellation; nil for a
	// clean or merely degraded session.
	Err error
	// Stats is the session's measured outcome as Close returned it; nil
	// when the fleet was canceled before the client opened a session.
	Stats *live.Stats
}

// runFleet executes one fleet simulation.
func runFleet(ctx context.Context, cfg config) (*result, error) {
	if len(cfg.Apps) == 0 || len(cfg.Links) == 0 || cfg.TimeScale <= 0 {
		return nil, errors.New("fleet: Apps, Links and a positive TimeScale are required")
	}
	if cfg.Order == "" {
		cfg.Order = server.OrderTrain
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
			Apps:     cfg.Apps,
			Order:    cfg.Order,
			Fault:    cfg.Fault,
			StoreDir: storeDir,
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
	// builds are then a deterministic len(apps), and no client waits on
	// a compile.
	for _, name := range cfg.Apps {
		if _, err := srv.Warm(ctx, name); err != nil {
			return nil, err
		}
	}
	models, err := buildModels(ctx, cfg.Apps)
	if err != nil {
		return nil, err
	}

	res := &result{}
	// The restart trigger: once AfterFraction of the fleet has finished,
	// the server "crashes" — every live connection is severed and a fresh
	// incarnation boots over the same store — so every remaining client
	// crosses the restart mid-session.
	var restartErr error
	var restart func()
	if cfg.Restart.Enabled {
		restart = func() {
			next, err := boot()
			if err != nil {
				restartErr = err
				return
			}
			cur.Store(next)
			res.ConnsKilled = ln.killConns()
		}
	}
	res.Clients = driveClients(ctx, cfg, models, ln, cfg.Restart.AfterFraction, restart)
	if restartErr != nil {
		return nil, restartErr
	}
	// The first incarnation built every artifact exactly once; a
	// restarted one must have built nothing — every byte it served came
	// from the persistent store.
	res.Builds = srv.CacheStats().Builds
	if final := cur.Load(); final != srv {
		res.PostBuilds = final.CacheStats().Builds
	}
	return res, nil
}

// driveClients launches every simulated client on its seeded arrival
// schedule, waits for the whole fleet to finish and returns each
// client's result in client order. The single-server and cluster paths
// share it verbatim: a client never knows whether "http://fleet" is one
// server or a router over N of them.
//
// fire, when set, is the mid-run event of the restart and node-kill
// scenarios: it runs exactly once, when the given fraction of the fleet
// (at least one client) has finished, on the finishing client's
// goroutine and before that client counts as returned — so the event
// always lands while the rest of the fleet is still running, and
// driveClients does not return before it has.
func driveClients(ctx context.Context, cfg config, models map[string]*appModel, ln *memListener, fraction float64, fire func()) []clientResult {
	results := make([]clientResult, cfg.Clients)
	fireAt := int64(max(int(fraction*float64(cfg.Clients)), 1))
	var done atomic.Int64
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		link := cfg.Links[i%len(cfg.Links)]
		c := &client{
			id:    i,
			seed:  clientSeed(cfg.Seed, uint64(i)),
			cfg:   &cfg,
			link:  link,
			model: models[cfg.Apps[(i/len(cfg.Links))%len(cfg.Apps)]],
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
		go func(i int, offset time.Duration) {
			defer wg.Done()
			results[i] = func() clientResult {
				sleepScaled(ctx, offset, cfg.TimeScale)
				select {
				case sem <- struct{}{}:
					defer func() { <-sem }()
				case <-ctx.Done():
					return clientResult{App: c.model.name, Link: link.Name, Err: ctx.Err()}
				}
				return c.run(ctx)
			}()
			if done.Add(1) == fireAt && fire != nil {
				fire()
			}
		}(i, offset)
	}
	wg.Wait()
	return results
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
