package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"nonstrict/internal/cluster"
	"nonstrict/internal/server"
	"nonstrict/internal/stream"
)

// TestBenchClusterSmoke is the CI cluster gate, writing
// BENCH_cluster.json at the repo root (or $BENCH_CLUSTER_OUT). Three
// phases, each mirroring a claim from the design:
//
//  1. Cold storm: 3 cold nodes, 64 clients per node across 4 apps —
//     the cluster-wide build count must equal the key count (the
//     cluster-wide singleflight claim).
//  2. Scaling ladder: with per-node egress capped, a fixed stream load
//     striped over 1, 2, and 4 warm nodes must scale streams/sec
//     near-linearly (>= 2.5x at 4 nodes vs 1).
//  3. Node kill: the fleet's cluster scenario over shaped links with
//     the first key's owner crashed mid-run — success rate must be 1.
func TestBenchClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster smoke is not a -short test")
	}
	names, err := testApps()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep := &ClusterBenchReport{
		SchemaVersion: ClusterSchema,
		Seed:          0xC7B3,
		Order:         string(server.OrderStatic),
		Apps:          names,
	}

	rep.Storm = stormPhase(t, names, rep.Seed)
	rep.Scaling, rep.ScalingSpeedup4x = scalingPhase(t, names, rep.Seed)
	if rep.ScalingSpeedup4x < 2.5 {
		t.Errorf("4-node streams/sec is %.2fx the 1-node rate, want >= 2.5x: %+v",
			rep.ScalingSpeedup4x, rep.Scaling)
	}
	rep.Kill = killPhase(t, names)
	rep.DurationMs = float64(time.Since(start)) / float64(time.Millisecond)
	if t.Failed() {
		t.FailNow()
	}

	out, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	path := os.Getenv("BENCH_CLUSTER_OUT")
	if path == "" {
		root, err := repoRoot()
		if err != nil {
			t.Logf("skipping BENCH_cluster.json: %v", err)
			t.Logf("report:\n%s", out)
			return
		}
		path = filepath.Join(root, "BENCH_cluster.json")
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Scaling {
		t.Logf("scaling: %d node(s)  %6.1f streams/s  %8.0f B/s  wall %6.1fms",
			p.Nodes, p.StreamsPerSec, p.BytesPerSec, p.WallMs)
	}
	t.Logf("storm: %d builds / %d fills / %d fallbacks for %d keys; kill: node %s at %.0fms, success rate %.3f",
		rep.Storm.ClusterBuilds, rep.Storm.PeerFills, rep.Storm.FallbackBuilds, rep.Storm.Keys,
		rep.Kill.KilledNode, rep.Kill.KillAtMs, rep.Kill.SuccessRate)
	t.Logf("wrote %s: speedup %.2fx at 4 nodes in %v", path, rep.ScalingSpeedup4x, time.Since(start).Round(time.Millisecond))
}

// stormPhase boots a cold 3-node cluster and slams every node at once
// with 64 clients spread across the apps. Exactly one pipeline run per
// key must happen cluster-wide; every other node peer-fills.
func stormPhase(t *testing.T, names []string, seed uint64) StormReport {
	t.Helper()
	const nodes, perNode = 3, 64
	h, err := cluster.NewHarness(cluster.HarnessConfig{
		Nodes: nodes,
		Seed:  seed,
		Server: server.Config{
			Apps:     names,
			Order:    server.OrderStatic,
			StoreDir: t.TempDir(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	begin := time.Now()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: perNode}}
	var wg sync.WaitGroup
	errs := make(chan error, nodes*perNode)
	for n := 0; n < nodes; n++ {
		for c := 0; c < perNode; c++ {
			wg.Add(1)
			url := h.NodeURL(n) + "/apps/" + names[(n*perNode+c)%len(names)] + "/app"
			go func() {
				defer wg.Done()
				resp, err := client.Get(url)
				if err != nil {
					errs <- err
					return
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("GET %s: %s", url, resp.Status)
					return
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					errs <- err
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("storm client: %v", err)
	}
	builds, fills, fallbacks := h.ClusterBuilds()
	sr := StormReport{
		Nodes:          nodes,
		ClientsPerNode: perNode,
		Keys:           len(names),
		ClusterBuilds:  builds,
		PeerFills:      fills,
		FallbackBuilds: fallbacks,
		WallMs:         float64(time.Since(begin)) / float64(time.Millisecond),
	}
	if d := builds - int64(len(names)); d > 0 {
		sr.DuplicateBuilds = d
	}
	if builds != int64(len(names)) {
		t.Errorf("cold storm ran the pipeline %d times for %d keys; cluster-wide singleflight failed", builds, len(names))
	}
	// Only nodes the storm actually hit with a non-owned key must have
	// peer-filled, and never more than once per (node, key).
	if max := int64(len(names)) * int64(nodes-1); fills == 0 || fills > max {
		t.Errorf("peer fills = %d, want in [1, %d]", fills, max)
	}
	if fallbacks != 0 {
		t.Errorf("%d peer fills degraded to local builds with every node healthy", fallbacks)
	}
	return sr
}

// scalingPhase serves a fixed stream load from 1, 2, and 4 warm nodes
// whose outbound bandwidth is capped per node — the regime where adding
// replicas is supposed to help — and measures streams/sec at each rung.
// Returns the ladder and the 4-vs-1 speedup.
func scalingPhase(t *testing.T, names []string, seed uint64) ([]ScalingPoint, float64) {
	t.Helper()
	// Size the per-node cap off the mean artifact so the single-node
	// rung takes a couple of seconds: 128 streams at 64 artifacts per
	// second of egress. The load is deliberately large relative to
	// per-request overhead so the fast rungs stay bandwidth-bound.
	var total int64
	for _, name := range names {
		art, err := server.Build(context.Background(), server.Key{App: name, Order: server.OrderStatic})
		if err != nil {
			t.Fatal(err)
		}
		total += int64(len(art.Data))
	}
	mean := int(total) / len(names)
	egress := 64 * mean
	const streams = 128

	var ladder []ScalingPoint
	for _, nodes := range []int{1, 2, 4} {
		h, err := cluster.NewHarness(cluster.HarnessConfig{
			Nodes:             nodes,
			Seed:              seed,
			EgressBytesPerSec: egress,
			Server: server.Config{
				Apps:     names,
				Order:    server.OrderStatic,
				StoreDir: t.TempDir(),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Warm everything first: the ladder measures replica serving
		// capacity, not build or fill time.
		if err := h.Prewarm(context.Background(), names); err != nil {
			h.Close()
			t.Fatal(err)
		}
		client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: streams}}
		begin := time.Now()
		var wg sync.WaitGroup
		var bytes int64
		var mu sync.Mutex
		errs := make(chan error, streams)
		for j := 0; j < streams; j++ {
			wg.Add(1)
			// Stripe nodes and apps independently (j/nodes for the app):
			// with node and app counts sharing a factor, j%n for both
			// would pin each node to a subset of the apps and the rung's
			// wall clock to the biggest app's node.
			url := h.NodeURL(j%nodes) + "/apps/" + names[(j/nodes)%len(names)] + "/app"
			go func() {
				defer wg.Done()
				resp, err := client.Get(url)
				if err != nil {
					errs <- err
					return
				}
				defer resp.Body.Close()
				n, err := io.Copy(io.Discard, resp.Body)
				if err != nil || resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("GET %s: %s, %v", url, resp.Status, err)
					return
				}
				mu.Lock()
				bytes += n
				mu.Unlock()
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("scaling client (%d nodes): %v", nodes, err)
		}
		wall := time.Since(begin)
		h.Close()
		if bytes == 0 {
			t.Errorf("scaling rung of %d nodes served nothing", nodes)
		}
		ladder = append(ladder, ScalingPoint{
			Nodes:             nodes,
			Streams:           streams,
			EgressBytesPerSec: egress,
			StreamsPerSec:     float64(streams) / wall.Seconds(),
			BytesPerSec:       float64(bytes) / wall.Seconds(),
			WallMs:            float64(wall) / float64(time.Millisecond),
		})
	}
	return ladder, ladder[len(ladder)-1].StreamsPerSec / ladder[0].StreamsPerSec
}

// killPhase runs the fleet's cluster scenario: shaped links through the
// router, the first key's owner crashed after a quarter of the fleet
// finishes, every surviving client resuming against replicas.
func killPhase(t *testing.T, names []string) *ClusterReport {
	t.Helper()
	links, err := stream.ParseLinks("modem,t1,lte")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Apps:      names,
		Clients:   120,
		Links:     links,
		Seed:      1998,
		Order:     server.OrderTrain,
		Duration:  200 * time.Millisecond,
		TimeScale: 2000,
		ThinkMean: time.Millisecond,
		Cluster: ClusterFleetConfig{
			Enabled:           true,
			Nodes:             3,
			RingSeed:          0xC7B3,
			KillNode:          true,
			KillAfterFraction: 0.25,
			StoreRoot:         t.TempDir(),
		},
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range rep.Links {
		if l.Failures != 0 {
			t.Errorf("link %s: %d clients failed across the node kill: %v", l.Link, l.Failures, l.Errors)
		}
	}
	if err := rep.Validate(); err != nil {
		t.Error(err)
	}
	cr := rep.Cluster
	if cr == nil {
		t.Fatal("no cluster block in the fleet report")
	}
	if cr.SuccessRate != 1 {
		t.Errorf("client success rate across the node kill = %v, want 1", cr.SuccessRate)
	}
	if cr.KilledNode == "" || cr.ConnsKilled == 0 {
		t.Errorf("the kill did not land mid-stream: %+v", cr)
	}
	if cr.FallbackBuilds != 0 || len(cr.PerNode) != cr.Nodes {
		t.Errorf("%d fallback builds in a prewarmed cluster, %d per-node blocks for %d nodes",
			cr.FallbackBuilds, len(cr.PerNode), cr.Nodes)
	}
	return cr
}
