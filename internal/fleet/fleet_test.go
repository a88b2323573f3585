package fleet

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"nonstrict/internal/cluster"
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

// fastConfig is a small fleet that completes quickly: simulated modem
// and LTE schedules at 2000x wall speed.
func fastConfig(t *testing.T, clients int) Config {
	t.Helper()
	names, err := testApps()
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Apps:      names[:2],
		Clients:   clients,
		Links:     []stream.LinkClass{stream.LinkModem, stream.LinkLTE},
		Seed:      99,
		Order:     server.OrderTrain,
		Duration:  100 * time.Millisecond,
		TimeScale: 2000,
		ThinkMean: time.Millisecond,
	}
}

// checkLinks asserts what must hold of every link block whatever the
// topology: the clients are all accounted for and finished clean, work
// was recorded, the first-invocation quantiles are positive, ordered
// and finite, and the measured rates are fractions.
func checkLinks(t *testing.T, rep *Report, links, clients int) {
	t.Helper()
	if len(rep.Links) != links {
		t.Fatalf("%d link reports, want %d", len(rep.Links), links)
	}
	total := 0
	for _, l := range rep.Links {
		total += l.Clients
		if l.Failures != 0 {
			t.Fatalf("link %s: %d failed clients: %v", l.Link, l.Failures, l.Errors)
		}
		if l.Needs == 0 || l.StreamBytes == 0 {
			t.Fatalf("link %s: no work recorded: %+v", l.Link, l)
		}
		if l.MispredictRate < 0 || l.MispredictRate > 1 {
			t.Fatalf("link %s: mispredict rate %v outside [0,1]", l.Link, l.MispredictRate)
		}
		if l.Mispredicts > 0 && l.DemandFetches == 0 {
			t.Fatalf("link %s: %d mispredicts but no demand fetches", l.Link, l.Mispredicts)
		}
		q := l.FirstInvocationMs
		if !(q.P50 > 0 && q.P99 >= q.P50 && q.P999 >= q.P99 && q.Max >= q.P999) || math.IsInf(q.Max, 0) {
			t.Fatalf("link %s: bad latency quantiles %+v", l.Link, q)
		}
		if l.MeanOverlap < 0 || l.MeanOverlap > 1 {
			t.Fatalf("link %s: overlap %v outside [0,1]", l.Link, l.MeanOverlap)
		}
	}
	if total != clients {
		t.Fatalf("%d clients reported, want %d", total, clients)
	}
}

// TestFleetRuns drives a small fleet end to end and checks the report's
// internal consistency.
func TestFleetRuns(t *testing.T) {
	rep, err := Run(context.Background(), fastConfig(t, 24))
	if err != nil {
		t.Fatal(err)
	}
	if rep.SchemaVersion != Schema {
		t.Fatalf("schema %q", rep.SchemaVersion)
	}
	checkLinks(t, rep, 2, 24)
	// Every artifact was prebuilt exactly once. Validate is the
	// topology-aware form of the old builds == apps assertion (a cluster
	// run bounds cluster-wide builds by the key count instead).
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep.Cache.Builds != int64(len(rep.Apps)) {
		t.Fatalf("%d builds for %d apps", rep.Cache.Builds, len(rep.Apps))
	}
	// The train-order stream against test-input needs must actually
	// exercise the demand path somewhere in the fleet.
	var mis int64
	for _, l := range rep.Links {
		mis += l.Mispredicts
	}
	if mis == 0 {
		t.Fatal("no mispredicts across the whole fleet; the order divergence is not being exercised")
	}
}

// TestFleetDeterministic is the satellite determinism contract: same
// seed and config → identical fleet report modulo wall-clock
// fields, no matter how goroutines interleaved.
func TestFleetDeterministic(t *testing.T) {
	cfg := fastConfig(t, 16)
	r1, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range append(r1.Links, r2.Links...) {
		if l.Failures != 0 {
			t.Fatalf("link %s had %d failures; determinism holds only for clean runs", l.Link, l.Failures)
		}
	}
	j1, err := r1.Canonical().JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := r2.Canonical().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("canonical reports differ:\n--- run 1\n%s\n--- run 2\n%s", j1, j2)
	}
}

// TestFleetSeedChangesSchedule guards against the seed being ignored.
func TestFleetSeedChangesSchedule(t *testing.T) {
	cfg := fastConfig(t, 16)
	r1, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 100
	r2, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Needs and stream bytes are schedule-independent, so compare the
	// measured wall-clock behaviour instead: with different link jitter
	// and think schedules, identical total latency sums to the nanosecond
	// would be astronomically unlikely.
	sum := func(r *Report) float64 {
		var s float64
		for _, l := range r.Links {
			s += l.FirstInvocationMs.P50 + l.FirstInvocationMs.P999
		}
		return s
	}
	if sum(r1) == sum(r2) {
		t.Fatal("different seeds produced identical latency distributions")
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
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var repaired int64
	for _, l := range rep.Links {
		if l.Failures != 0 {
			t.Fatalf("link %s: %d clients failed under corruption chaos: %v", l.Link, l.Failures, l.Errors)
		}
		repaired += l.Repaired
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
	cfg := fastConfig(t, 1).withDefaults()
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
	res := c.run(ctx)
	if res.failed {
		t.Fatalf("a dead stream with the demand path intact failed the client: %v", res.err)
	}
	if res.needs != int64(len(model.needs)) {
		t.Errorf("%d of %d needs released", res.needs, len(model.needs))
	}
	if res.streamBytes >= int64(len(art.Data)) || res.demands == 0 || res.mispredicts == 0 {
		t.Errorf("stream bytes %d of %d, %d demand fetches, %d mispredicts: the stream did not die or the demand path did not carry the run",
			res.streamBytes, len(art.Data), res.demands, res.mispredicts)
	}
}

// scenarioLinks are the link classes the restart and node-kill
// scenarios spread their clients over.
var scenarioLinks = []stream.LinkClass{stream.LinkModem, stream.LinkT1, stream.LinkLTE}

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
	cfg.Restart = RestartConfig{Enabled: true, AfterFraction: 0.5, StoreDir: t.TempDir()}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkLinks(t, rep, len(cfg.Links), cfg.Clients)
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	rr := rep.Restart
	if rr == nil {
		t.Fatal("no restart block in the report")
	}
	if rr.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", rr.Restarts)
	}
	if rr.ConnsKilled == 0 {
		t.Fatal("the crash severed no connections; nothing was mid-stream")
	}
	if rr.PreBuilds != int64(len(cfg.Apps)) {
		t.Fatalf("first incarnation built %d artifacts for %d apps", rr.PreBuilds, len(cfg.Apps))
	}
	if rr.PostBuilds != 0 {
		t.Fatalf("restarted server rebuilt %d artifacts; the store should have served them all", rr.PostBuilds)
	}
	if rr.SuccessRate != 1 {
		t.Fatalf("client success rate across restart = %v, want 1", rr.SuccessRate)
	}
	if rr.P99FirstInvocationMs <= 0 {
		t.Fatalf("p99 first-invocation across restart = %v, want > 0", rr.P99FirstInvocationMs)
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
	cfg.Cluster = ClusterFleetConfig{
		Enabled:  true,
		Nodes:    3,
		RingSeed: 0xC7B3,
		KillNode: true,
		// Kill early so most of the fleet crosses the node death.
		KillAfterFraction: 0.25,
		StoreRoot:         t.TempDir(),
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkLinks(t, rep, len(cfg.Links), cfg.Clients)
	cr := rep.Cluster
	if cr == nil {
		t.Fatal("no cluster block in the report")
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	if cr.VNodes != cluster.DefaultVNodes {
		t.Fatalf("report says %d vnodes for a ring left at the default %d", cr.VNodes, cluster.DefaultVNodes)
	}
	if cr.ClusterBuilds != int64(len(cfg.Apps)) {
		t.Fatalf("cluster-wide builds = %d for %d keys; prewarming should pin them equal", cr.ClusterBuilds, len(cfg.Apps))
	}
	if want := int64(len(cfg.Apps)) * int64(cfg.Cluster.Nodes-1); cr.PeerFills != want {
		t.Fatalf("peer fills = %d, want %d (every non-owner fills each key once)", cr.PeerFills, want)
	}
	if cr.FallbackBuilds != 0 {
		t.Fatalf("%d peer fills fell back to local builds in a prewarmed cluster", cr.FallbackBuilds)
	}
	if cr.KilledNode == "" || cr.ConnsKilled == 0 {
		t.Fatalf("the kill did not land mid-stream: %+v", cr)
	}
	if cr.SuccessRate != 1 {
		t.Fatalf("success rate across the node kill = %v, want 1", cr.SuccessRate)
	}
	if len(cr.PerNode) != cfg.Cluster.Nodes {
		t.Fatalf("%d per-node blocks, want %d", len(cr.PerNode), cfg.Cluster.Nodes)
	}
}

// TestQuantiles pins the nearest-rank summary, including the empty
// sample (which must yield zeros, not NaN — NaN would poison the JSON
// encoder downstream).
func TestQuantiles(t *testing.T) {
	if q := quantiles(nil); q != (Quantiles{}) {
		t.Fatalf("empty sample → %+v", q)
	}
	ms := make([]float64, 1000)
	for i := range ms {
		ms[i] = float64(i + 1)
	}
	q := quantiles(ms)
	if q.P50 != 500 || q.P99 != 990 || q.P999 != 999 || q.Max != 1000 {
		t.Fatalf("quantiles = %+v", q)
	}
	if q := quantiles([]float64{42}); q.P50 != 42 || q.P999 != 42 || q.Max != 42 {
		t.Fatalf("single sample → %+v", q)
	}
}
