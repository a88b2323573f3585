package fleet

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"nonstrict/internal/server"
	"nonstrict/internal/stream"
	"nonstrict/internal/synth"
)

// benchApps registers the benchmark fleet's suite once per test binary
// (the app registry is process-global, so -count=2 must not re-register).
var benchApps = sync.OnceValues(func() ([]string, error) {
	names, _, err := synth.RegisterSuite(0xBE9C4, 8, synth.Params{Name: "fleetbench"})
	return names, err
})

// TestBenchFleetSmoke is the CI fleet gate: 8 synthetic apps × 200
// clients × 3 link classes against the real server, writing
// BENCH_fleet.json at the repo root (or $BENCH_FLEET_OUT). The asserts
// here are the whole gate — CI only uploads the file: every client
// accounted for and clean, first-invocation quantiles finite, positive
// and ordered, mispredict rate and overlap in [0,1], one restart with
// all builds before it and none after.
func TestBenchFleetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet smoke is not a -short test")
	}
	names, err := benchApps()
	if err != nil {
		t.Fatal(err)
	}
	links, err := stream.ParseLinks("modem,t1,lte")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Apps:      names,
		Clients:   200,
		Links:     links,
		Seed:      1998, // the paper's year; any seed works
		Order:     server.OrderTrain,
		Duration:  400 * time.Millisecond,
		TimeScale: 2000,
		ThinkMean: time.Millisecond,
		// The crash-restart scenario rides the benchmark fleet: halfway
		// through, the server dies and a fresh incarnation resumes every
		// surviving client from the persistent store.
		Restart: RestartConfig{Enabled: true, AfterFraction: 0.5, StoreDir: t.TempDir()},
	}
	start := time.Now()
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SchemaVersion != Schema || len(rep.Links) != len(links) {
		t.Fatalf("schema %q with %d link reports, want %q with %d", rep.SchemaVersion, len(rep.Links), Schema, len(links))
	}
	if err := rep.Validate(); err != nil {
		t.Error(err)
	}
	clients := 0
	for _, l := range rep.Links {
		clients += l.Clients
		if l.Failures != 0 {
			t.Errorf("link %s: %d failed clients: %v", l.Link, l.Failures, l.Errors)
		}
		q := l.FirstInvocationMs
		if !(q.P50 > 0 && q.P99 >= q.P50 && q.P999 >= q.P99 && q.Max >= q.P999) || math.IsInf(q.Max, 0) {
			t.Errorf("link %s: degenerate latency quantiles %+v", l.Link, q)
		}
		if l.MispredictRate < 0 || l.MispredictRate > 1 {
			t.Errorf("link %s: mispredict rate %v outside [0,1]", l.Link, l.MispredictRate)
		}
		if l.MeanOverlap < 0 || l.MeanOverlap > 1 {
			t.Errorf("link %s: overlap %v outside [0,1]", l.Link, l.MeanOverlap)
		}
	}
	if clients != cfg.Clients {
		t.Errorf("links account for %d of %d clients", clients, cfg.Clients)
	}
	rr := rep.Restart
	if rr == nil {
		t.Fatal("no restart block in the fleet report")
	}
	if rr.Restarts != 1 || rr.P99FirstInvocationMs <= 0 {
		t.Errorf("%d restarts with p99 first invocation %vms across them, want 1 and > 0", rr.Restarts, rr.P99FirstInvocationMs)
	}
	if rr.PreBuilds != int64(len(names)) {
		t.Errorf("%d builds for %d apps; clients leaked into the build path", rr.PreBuilds, len(names))
	}
	if rr.PostBuilds != 0 {
		t.Errorf("restarted server rebuilt %d artifacts; the store should have served them all", rr.PostBuilds)
	}
	if rr.SuccessRate != 1 {
		t.Errorf("client success rate across restart = %v, want 1", rr.SuccessRate)
	}
	if t.Failed() {
		t.FailNow()
	}

	out, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	path := os.Getenv("BENCH_FLEET_OUT")
	if path == "" {
		root, err := repoRoot()
		if err != nil {
			t.Logf("skipping BENCH_fleet.json: %v", err)
			t.Logf("report:\n%s", out)
			return
		}
		path = filepath.Join(root, "BENCH_fleet.json")
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, l := range rep.Links {
		t.Logf("%-9s p50 %7.2fms  p99 %7.2fms  p999 %7.2fms  mispredict %5.1f%%  demand %3d fetches %6d B  overlap %.2f",
			l.Link, l.FirstInvocationMs.P50, l.FirstInvocationMs.P99, l.FirstInvocationMs.P999,
			100*l.MispredictRate, l.DemandFetches, l.DemandBytes, l.MeanOverlap)
	}
	t.Logf("restart: killed %d conns at %.0fms; post-restart builds %d, store hits %d, success rate %.3f, p99 first-invocation %.2fms",
		rr.ConnsKilled, rr.KillAtMs, rr.PostBuilds, rr.PostStoreHits, rr.SuccessRate, rr.P99FirstInvocationMs)
	t.Logf("wrote %s: %d clients over %d apps in %v", path, cfg.Clients, len(names), time.Since(start).Round(time.Millisecond))
}

// repoRoot walks up from the working directory to the module root.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
