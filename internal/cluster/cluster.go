package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"nonstrict/internal/server"
)

// HarnessConfig configures an in-process cluster: N real nodes on
// loopback listeners plus a router over them. Tests, the fleet
// simulator's cluster scenario, and benchmark/'s cluster-route workload
// all boot through it.
type HarnessConfig struct {
	// Nodes is the member count (default 3).
	Nodes int
	// VNodes and Seed parameterize the ring (defaults: DefaultVNodes,
	// seed 0).
	VNodes int
	Seed   uint64
	// Server is the per-node template; Build and Store must be unset,
	// and StoreDir is treated as a root under which each node gets its
	// own subdirectory.
	Server server.Config
	// RouterCooldown overrides the router's down-node cooldown.
	RouterCooldown time.Duration
	// FillTimeout overrides the nodes' peer-fill budget.
	FillTimeout time.Duration
}

// Harness is a running in-process cluster.
type Harness struct {
	ring   *Ring
	names  []string
	nodes  []*Node
	urls   map[string]string
	router *Router

	mu     sync.Mutex
	hsrvs  []*http.Server
	lns    []net.Listener
	conns  []map[net.Conn]struct{}
	killed []bool
	frozen []NodeStats // stats captured at kill time, index-aligned
}

// NewHarness boots the cluster. Every node is listening and the router
// is ready before it returns; artifacts are still cold (use Prewarm).
func NewHarness(c HarnessConfig) (*Harness, error) {
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	if c.Server.Build != nil || c.Server.Store != nil {
		return nil, fmt.Errorf("cluster: harness template must leave Build and Store unset")
	}
	names := make([]string, c.Nodes)
	for i := range names {
		names[i] = fmt.Sprintf("node%d", i)
	}
	ring, err := NewRing(names, c.VNodes, c.Seed)
	if err != nil {
		return nil, err
	}
	h := &Harness{
		ring:   ring,
		names:  names,
		urls:   make(map[string]string, c.Nodes),
		nodes:  make([]*Node, c.Nodes),
		hsrvs:  make([]*http.Server, c.Nodes),
		lns:    make([]net.Listener, c.Nodes),
		conns:  make([]map[net.Conn]struct{}, c.Nodes),
		killed: make([]bool, c.Nodes),
		frozen: make([]NodeStats, c.Nodes),
	}
	// Listen first so every node knows every peer's address at build
	// time; serving starts only once all nodes exist.
	for i, name := range names {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			h.Close()
			return nil, err
		}
		h.lns[i] = ln
		h.urls[name] = "http://" + ln.Addr().String()
	}
	for i, name := range names {
		sc := c.Server
		if sc.StoreDir != "" {
			sc.StoreDir = filepath.Join(sc.StoreDir, name)
		}
		peers := make(map[string]string, c.Nodes-1)
		for n, u := range h.urls {
			if n != name {
				peers[n] = u
			}
		}
		node, err := NewNode(NodeConfig{
			Name:        name,
			Ring:        ring,
			Peers:       peers,
			Server:      sc,
			FillTimeout: c.FillTimeout,
		})
		if err != nil {
			h.Close()
			return nil, err
		}
		h.nodes[i] = node
		h.conns[i] = make(map[net.Conn]struct{})
		idx := i
		hs := &http.Server{
			Handler: node.Handler(),
			ConnState: func(conn net.Conn, st http.ConnState) {
				h.mu.Lock()
				switch st {
				case http.StateNew:
					h.conns[idx][conn] = struct{}{}
				case http.StateClosed, http.StateHijacked:
					delete(h.conns[idx], conn)
				}
				h.mu.Unlock()
			},
		}
		h.hsrvs[i] = hs
		go hs.Serve(h.lns[i])
	}
	rt, err := NewRouter(RouterConfig{
		Ring:     ring,
		Nodes:    h.urls,
		Order:    c.Server.Order,
		Cooldown: c.RouterCooldown,
	})
	if err != nil {
		h.Close()
		return nil, err
	}
	h.router = rt
	return h, nil
}

// Ring returns the cluster's ring.
func (h *Harness) Ring() *Ring { return h.ring }

// Names returns the member names in node order.
func (h *Harness) Names() []string { return append([]string(nil), h.names...) }

// Node returns member i.
func (h *Harness) Node(i int) *Node { return h.nodes[i] }

// NodeURL returns member i's base URL.
func (h *Harness) NodeURL(i int) string { return h.urls[h.names[i]] }

// Router returns the cluster's router; mount it on any listener (the
// fleet serves it over its in-process shaped listener).
func (h *Harness) Router() *Router { return h.router }

// Owner returns the index of the node owning key k.
func (h *Harness) Owner(k server.Key) int {
	name := h.ring.Owner(k.String())
	for i, n := range h.names {
		if n == name {
			return i
		}
	}
	return -1
}

// Prewarm builds or fills every (app, key) on every node: each key's
// owner runs the pipeline once, every other node peer-fills, so
// afterwards the whole cluster serves warm and the build counters are
// exactly (keys, keys×(nodes−1)) split between Builds and PeerFills.
func (h *Harness) Prewarm(ctx context.Context, apps []string) error {
	for _, app := range apps {
		// Owner first, then the fillers: the order does not change any
		// counter (a filler's GET triggers the owner's singleflighted
		// build either way) but keeps the warm sequence deterministic.
		k := server.Key{App: app, Order: h.nodes[0].srv.Order()}
		order := []int{h.Owner(k)}
		for i := range h.nodes {
			if i != order[0] {
				order = append(order, i)
			}
		}
		for _, i := range order {
			if h.killedAt(i) {
				continue
			}
			if _, err := h.nodes[i].srv.Warm(ctx, app); err != nil {
				return fmt.Errorf("cluster: prewarm %s on %s: %w", app, h.names[i], err)
			}
		}
	}
	return nil
}

func (h *Harness) killedAt(i int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.killed[i]
}

// Kill crashes member i: its listener closes and every live connection
// is severed mid-byte, exactly as a dead process would leave them. It
// returns how many connections were cut. The node's stats freeze at
// this instant. Safe to call once per node.
func (h *Harness) Kill(i int) int {
	h.mu.Lock()
	if h.killed[i] {
		h.mu.Unlock()
		return 0
	}
	h.killed[i] = true
	n := len(h.conns[i])
	st := h.nodes[i].Stats()
	st.Killed = true
	h.frozen[i] = st
	h.mu.Unlock()
	// Close severs active connections as well as the listener; the
	// ConnState hook drains h.conns[i] as they die.
	h.hsrvs[i].Close()
	return n
}

// Stats snapshots every member, killed nodes reporting their counters
// as frozen at death.
func (h *Harness) Stats() []NodeStats {
	out := make([]NodeStats, len(h.nodes))
	for i := range h.nodes {
		h.mu.Lock()
		killed := h.killed[i]
		frozen := h.frozen[i]
		h.mu.Unlock()
		if killed {
			out[i] = frozen
		} else {
			out[i] = h.nodes[i].Stats()
		}
	}
	return out
}

// ClusterBuilds sums pipeline executions across the cluster — the
// number the one-build-per-key invariant bounds by the key count.
func (h *Harness) ClusterBuilds() (builds, peerFills, fallbacks int64) {
	for _, st := range h.Stats() {
		builds += st.Cache.Builds
		peerFills += st.Cache.PeerFills
		fallbacks += st.FallbackBuilds
	}
	return
}

// Close shuts every member down and closes the idle connections the
// router's and the nodes' hop clients hold to them.
func (h *Harness) Close() {
	for i, hs := range h.hsrvs {
		if hs != nil {
			hs.Close()
		}
		if h.lns[i] != nil {
			h.lns[i].Close()
		}
	}
	if h.router != nil {
		h.router.client.CloseIdleConnections()
	}
	for _, n := range h.nodes {
		if n != nil {
			n.fc.fc.HTTP.CloseIdleConnections()
		}
	}
}
