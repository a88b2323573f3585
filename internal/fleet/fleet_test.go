package fleet

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"nonstrict/internal/classfile"
	"nonstrict/internal/live"
	"nonstrict/internal/server"
	"nonstrict/internal/stream"
	"nonstrict/internal/synth"
)

// testApps registers a small synthetic suite once per test binary (the
// app registry is process-global) and returns its names.
var testApps = sync.OnceValues(func() ([]string, error) {
	names, _, err := synth.RegisterSuite(0xF1EE7, 4, synth.Params{Name: "fleettest"})
	return names, err
})

// benchApps is the larger suite the restart scenario runs over,
// registered once per test binary like testApps.
var benchApps = sync.OnceValues(func() ([]string, error) {
	names, _, err := synth.RegisterSuite(0xBE9C4, 8, synth.Params{Name: "fleetbench"})
	return names, err
})

// The link classes the fleet sweeps beside stream.LinkModem and
// stream.LinkT1: an LTE-class link (fast, wide jitter) and a
// satellite-class one (long first-byte latency), regimes the paper's
// model predicts but could not measure.
var (
	linkLTE = stream.LinkClass{Name: "lte", RTT: 50 * time.Millisecond,
		Jitter: 30 * time.Millisecond, Bandwidth: 1_500_000}
	linkSatellite = stream.LinkClass{Name: "satellite", RTT: 600 * time.Millisecond,
		Jitter: 40 * time.Millisecond, Bandwidth: 250_000}
)

// fastConfig is a small fleet that completes quickly: simulated modem
// and LTE schedules at 2000x wall speed.
func fastConfig(t *testing.T, clients int) config {
	t.Helper()
	names, err := testApps()
	if err != nil {
		t.Fatal(err)
	}
	return config{
		Apps:      names[:2],
		Clients:   clients,
		Links:     []stream.LinkClass{stream.LinkModem, linkLTE},
		Seed:      99,
		Order:     server.OrderTrain,
		Duration:  100 * time.Millisecond,
		TimeScale: 2000,
		ThinkMean: time.Millisecond,
	}
}

// checkClient returns what is wrong with one client's outcome, or nil.
// Whatever the topology and the chaos, a client finished clean and its
// session crossed exactly its app's needs, in order; every recorded wait
// decomposes exactly (Transfer + Repair + Gate == Wait); mispredicts are
// a subset of the crossings and were served by demand fetches; the
// overlap is a fraction; and the first method became runnable.
func checkClient(cr clientResult, needs []classfile.Ref) error {
	if cr.Err != nil {
		return cr.Err
	}
	st := cr.Stats
	if len(st.Waits) != len(needs) {
		return fmt.Errorf("%d of %d needs crossed", len(st.Waits), len(needs))
	}
	for i, w := range st.Waits {
		if w.Method != needs[i] {
			return fmt.Errorf("wait %d is %v, need %v", i, w.Method, needs[i])
		}
		if w.Transfer+w.Repair+w.Gate != w.Wait {
			return fmt.Errorf("wait %d on %v: transfer %v + repair %v + gate %v != wait %v",
				i, w.Method, w.Transfer, w.Repair, w.Gate, w.Wait)
		}
	}
	if st.Mispredicts > len(st.Waits) {
		return fmt.Errorf("%d mispredicts over %d waits", st.Mispredicts, len(st.Waits))
	}
	if st.Mispredicts > 0 && st.DemandFetches == 0 {
		return fmt.Errorf("%d mispredicts but no demand fetches", st.Mispredicts)
	}
	if o := st.Overlap(); o < 0 || o > 1 {
		return fmt.Errorf("overlap %v outside [0,1]", o)
	}
	if st.FirstRunnable <= 0 {
		return fmt.Errorf("first runnable at %v", st.FirstRunnable)
	}
	return nil
}

// checkClients asserts checkClient of every client of a fleet run with
// cfg, and that the clients are the configured ones: striped across the
// links, round-robin over the apps, every one of them consuming stream
// bytes.
func checkClients(t *testing.T, cfg config, res *result) {
	t.Helper()
	models, err := buildModels(context.Background(), cfg.Apps)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clients) != cfg.Clients {
		t.Fatalf("%d client results, want %d", len(res.Clients), cfg.Clients)
	}
	for i, cr := range res.Clients {
		link, app := cfg.Links[i%len(cfg.Links)].Name, cfg.Apps[(i/len(cfg.Links))%len(cfg.Apps)]
		if cr.Link != link || cr.App != app {
			t.Fatalf("client %d ran %s on %s, want %s on %s", i, cr.App, cr.Link, app, link)
		}
		if err := checkClient(cr, models[app].needs); err != nil {
			t.Fatalf("client %d (%s on %s): %v", i, app, link, err)
		}
		if cr.Stats.StreamBytes == 0 {
			t.Fatalf("client %d (%s on %s): no stream bytes consumed", i, app, link)
		}
	}
}

// TestFleetRuns drives a small fleet end to end and checks every
// client's session.
func TestFleetRuns(t *testing.T) {
	cfg := fastConfig(t, 24)
	res, err := runFleet(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkClients(t, cfg, res)
	// Every artifact was prebuilt exactly once; no client reached the
	// build path.
	if res.Builds != int64(len(cfg.Apps)) {
		t.Fatalf("%d builds for %d apps", res.Builds, len(cfg.Apps))
	}
	// The train-order stream against test-input needs must actually
	// exercise the demand path somewhere in the fleet.
	mis := 0
	for _, cr := range res.Clients {
		mis += cr.Stats.Mispredicts
	}
	if mis == 0 {
		t.Fatal("no mispredicts across the whole fleet; the order divergence is not being exercised")
	}
}

// TestFleetDeterministic is the determinism contract: the same seed and
// config give every client the same app, link and outcome, and its
// session crosses the same needs in the same order, however the
// goroutines interleaved. (Everything else a client records — demand
// fetches, bytes, latency — is what its link did in that run.)
func TestFleetDeterministic(t *testing.T) {
	cfg := fastConfig(t, 16)
	r1, err := runFleet(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := runFleet(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkClients(t, cfg, r1)
	checkClients(t, cfg, r2)
	for i := range r1.Clients {
		c1, c2 := r1.Clients[i], r2.Clients[i]
		if c1.App != c2.App || c1.Link != c2.Link {
			t.Fatalf("client %d: %s on %s, then %s on %s", i, c1.App, c1.Link, c2.App, c2.Link)
		}
		if !slices.EqualFunc(c1.Stats.Waits, c2.Stats.Waits, func(a, b live.Wait) bool { return a.Method == b.Method }) {
			t.Fatalf("client %d crossed different needs in the two runs", i)
		}
	}
}

// TestFleetSeedChangesSchedule guards against the seed being ignored.
// What a seed decides — arrivals, think time, link jitter, fetch
// backoff — is drawn from each client's derived seed, so another
// fleet seed must give every client another one; its fleet still runs
// clean over the same needs, which depend on the app alone.
func TestFleetSeedChangesSchedule(t *testing.T) {
	cfg := fastConfig(t, 16)
	other := cfg
	other.Seed = cfg.Seed + 1
	res, err := runFleet(context.Background(), other)
	if err != nil {
		t.Fatal(err)
	}
	checkClients(t, other, res)
	for i := range cfg.Clients {
		if a, b := clientSeed(cfg.Seed, uint64(i)), clientSeed(other.Seed, uint64(i)); a == b {
			t.Fatalf("client %d drew seed %#x under fleet seeds %d and %d", i, a, cfg.Seed, other.Seed)
		}
	}
}

// TestFleetServerChaos runs the fleet against a fault-injecting server:
// corrupt units must heal through the repair path and every client must
// still finish clean. Like live's chaos tests, the corruption period is
// chosen survivable by construction: larger than every unit (so repair
// range replies, whose corrupt positions are relative to their own
// bodies, come back clean) and past the stream header (which no repair
// can heal), but well inside the stream so corruption actually fires.
func TestFleetServerChaos(t *testing.T) {
	cfg := fastConfig(t, 8)
	cfg.Apps = cfg.Apps[:1]
	art, err := server.Build(context.Background(), server.Key{App: cfg.Apps[0], Order: cfg.Order})
	if err != nil {
		t.Fatal(err)
	}
	toc, err := stream.ParseTOC(art.TOC)
	if err != nil {
		t.Fatal(err)
	}
	period := int64(0)
	for _, u := range toc {
		if int64(u.Len) >= period {
			period = int64(u.Len) + 1
		}
	}
	if period >= int64(len(art.Data)) {
		t.Fatalf("no period larger than every unit (%d) fits the stream (%d bytes)", period, len(art.Data))
	}
	cfg.Fault = stream.Fault{CorruptEvery: period, Seed: 7}
	res, err := runFleet(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkClients(t, cfg, res)
	var repaired int64
	for _, cr := range res.Clients {
		repaired += cr.Stats.Integrity.Repaired
	}
	if repaired == 0 {
		t.Fatal("no units were repaired; the chaos schedule did not exercise the repair path")
	}
}

// TestFleetClientDegrades kills one client's stream for good partway
// through — the initial response dies after two units and every resume
// is refused — while the unit table and bounded byte ranges stay
// reachable. The client runs the shipping session, so it must finish the
// whole need trace by demand fetch and count as a success, not a
// failure.
func TestFleetClientDegrades(t *testing.T) {
	cfg := fastConfig(t, 1)
	cfg.Apps = cfg.Apps[:1]
	ctx := context.Background()
	srv, err := server.New(server.Config{Apps: cfg.Apps, Order: cfg.Order})
	if err != nil {
		t.Fatal(err)
	}
	art, err := server.Build(ctx, server.Key{App: cfg.Apps[0], Order: cfg.Order})
	if err != nil {
		t.Fatal(err)
	}
	toc, err := stream.ParseTOC(art.TOC)
	if err != nil {
		t.Fatal(err)
	}
	cut := int(toc[2].Off) - stream.UnitHeaderSize // start of the third unit's header
	models, err := buildModels(ctx, cfg.Apps)
	if err != nil {
		t.Fatal(err)
	}
	model := models[cfg.Apps[0]]

	ln := newMemListener()
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rng := r.Header.Get("Range")
		switch {
		case !strings.HasSuffix(r.URL.Path, "/app") || (rng != "" && !strings.HasSuffix(rng, "-")):
			// The unit table and bounded ranges (the demand path): served.
			srv.Handler().ServeHTTP(w, r)
		case rng != "":
			// An open-ended range is a main-stream resume: gone for good.
			http.Error(w, "stream withdrawn", http.StatusGone)
		default:
			w.Header().Set("Content-Length", fmt.Sprint(len(art.Data)))
			w.Write(art.Data[:cut])
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}
	})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln)
	}()
	defer func() {
		hs.Close()
		ln.Close()
		<-served
	}()

	c := &client{seed: clientSeed(cfg.Seed, 0), cfg: &cfg, link: cfg.Links[0], model: model, dial: ln.dial}
	cr := c.run(ctx)
	if err := checkClient(cr, model.needs); err != nil {
		t.Fatalf("a dead stream with the demand path intact failed the client: %v", err)
	}
	if st := cr.Stats; st.Degraded == "" || st.StreamBytes >= int64(len(art.Data)) || st.DemandFetches == 0 || st.Mispredicts == 0 {
		t.Errorf("degraded %q, stream bytes %d of %d, %d demand fetches, %d mispredicts: the stream did not die or the demand path did not carry the run",
			st.Degraded, st.StreamBytes, len(art.Data), st.DemandFetches, st.Mispredicts)
	}
}

// scenarioLinks are the link classes the restart and node-kill
// scenarios spread their clients over.
var scenarioLinks = []stream.LinkClass{stream.LinkModem, stream.LinkT1, linkLTE}

// TestFleetRestart is the fleet-scale crash-restart scenario: 8 apps ×
// 200 clients × 3 link classes, and once half the clients have
// finished the server dies mid-stream for everyone else and a fresh
// incarnation boots over the same persistent store. Every client must
// still finish clean — resuming through verified ranges — and the
// restarted server must serve entirely from the store, with zero
// rebuilds.
func TestFleetRestart(t *testing.T) {
	names, err := benchApps()
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig(t, 200)
	cfg.Apps, cfg.Links = names, scenarioLinks
	cfg.Restart = restartConfig{Enabled: true, AfterFraction: 0.5, StoreDir: t.TempDir()}
	res, err := runFleet(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkClients(t, cfg, res) // success 1 across the restart
	if res.ConnsKilled == 0 {
		t.Fatal("the crash severed no connections; nothing was mid-stream")
	}
	if res.Builds != int64(len(cfg.Apps)) {
		t.Fatalf("first incarnation built %d artifacts for %d apps", res.Builds, len(cfg.Apps))
	}
	if res.PostBuilds != 0 {
		t.Fatalf("restarted server rebuilt %d artifacts; the store should have served them all", res.PostBuilds)
	}
}

// TestFleetClusterKill is the fleet-scale cluster scenario: 120 clients
// stream through the consistent-hash router over 3 real nodes, one
// node (the first app's owner) is crashed mid-run, and every client
// must still finish clean by resuming against the replicas. The
// cluster-wide build count stays bounded by the key count — peer fills
// and stores, never duplicate pipeline runs.
func TestFleetClusterKill(t *testing.T) {
	names, err := testApps()
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig(t, 120)
	cfg.Apps, cfg.Links = names, scenarioLinks
	cfg.Cluster = clusterConfig{
		Enabled:  true,
		Nodes:    3,
		RingSeed: 0xC7B3,
		KillNode: true,
		// Kill early so most of the fleet crosses the node death.
		KillAfterFraction: 0.25,
		StoreRoot:         t.TempDir(),
	}
	res, err := runFleet(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkClients(t, cfg, res) // success 1 across the node kill
	if res.Builds != int64(len(cfg.Apps)) {
		t.Fatalf("cluster-wide builds = %d for %d keys; prewarming should pin them equal", res.Builds, len(cfg.Apps))
	}
	if want := int64(len(cfg.Apps)) * int64(cfg.Cluster.Nodes-1); res.PeerFills != want {
		t.Fatalf("peer fills = %d, want %d (every non-owner fills each key once)", res.PeerFills, want)
	}
	if res.FallbackBuilds != 0 {
		t.Fatalf("%d peer fills fell back to local builds in a prewarmed cluster", res.FallbackBuilds)
	}
	if res.ConnsKilled == 0 {
		t.Fatal("the kill severed no connections; nothing was mid-stream")
	}
}
