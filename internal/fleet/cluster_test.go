package fleet

import (
	"context"
	"net/http"
	"os"

	"nonstrict/internal/cluster"
	"nonstrict/internal/server"
)

// runCluster executes the fleet against an N-node cluster: real nodes
// on loopback TCP behind the consistent-hash router, with the router
// mounted on the fleet's shaped in-process listener so every client
// byte still crosses its link-class schedule. Optionally one node is
// killed mid-run; the surviving fleet must resume through the router
// against the replicas with zero rebuilds.
func runCluster(ctx context.Context, cfg config) (*result, error) {
	storeRoot := cfg.Cluster.StoreRoot
	if storeRoot == "" {
		d, err := os.MkdirTemp("", "fleet-cluster-store-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(d)
		storeRoot = d
	}
	h, err := cluster.NewHarness(cluster.HarnessConfig{
		Nodes: cfg.Cluster.Nodes,
		Seed:  cfg.Cluster.RingSeed,
		Server: server.Config{
			Apps:     cfg.Apps,
			Order:    cfg.Order,
			Fault:    cfg.Fault,
			StoreDir: storeRoot,
		},
	})
	if err != nil {
		return nil, err
	}
	defer h.Close()

	// Prewarm every key on every node before clients arrive: each key's
	// owner builds exactly once, every replica peer-fills, and the build
	// counters become deterministic in (apps, nodes) — which is also
	// what makes a mid-run node kill survivable with zero fallback
	// builds, since every replica already holds every artifact.
	if err := h.Prewarm(ctx, cfg.Apps); err != nil {
		return nil, err
	}
	models, err := buildModels(ctx, cfg.Apps)
	if err != nil {
		return nil, err
	}

	ln := newMemListener()
	hs := &http.Server{Handler: h.Router()}
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

	// The node-kill trigger mirrors the restart scenario's: once the
	// configured fraction of the fleet has finished, crash the node that
	// owns the first app's key — guaranteed to be mid-stream for that
	// app's remaining clients — and leave it dead for the rest of the
	// run.
	res := &result{}
	var kill func()
	if cfg.Cluster.KillNode {
		victim := h.Owner(server.Key{App: cfg.Apps[0], Order: cfg.Order})
		kill = func() { res.ConnsKilled = h.Kill(victim) }
	}
	res.Clients = driveClients(ctx, cfg, models, ln, cfg.Cluster.KillAfterFraction, kill)
	res.Builds, res.PeerFills, res.FallbackBuilds = h.ClusterBuilds()
	return res, nil
}
