package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"nonstrict/internal/server"
)

// NodeConfig configures one cluster member.
type NodeConfig struct {
	// Name is this node's ring identity. Required, and must be a member
	// of Ring.
	Name string
	// Ring is the cluster's shared consistent-hash ring. Required.
	Ring *Ring
	// Peers maps every OTHER member's name to its base URL
	// (http://host:port). A missing peer is treated as unreachable: keys
	// it owns fall back to a local build.
	Peers map[string]string
	// Server is the underlying code-server configuration. Its Build
	// field must be nil — the node installs the peer-fill build path.
	Server server.Config
	// Client issues peer-fill requests; nil uses a private default (see
	// newHopClient).
	Client *http.Client
	// FillTimeout bounds one peer-fill transfer, retries included
	// (default 30s). On expiry the node falls back to building locally.
	FillTimeout time.Duration
}

// Node is one cluster member: a full code server whose build path is
// replaced by shard-aware routing. For keys this node owns, a cache
// miss runs the real pipeline exactly as a standalone server would.
// For keys another node owns, a miss transfers the owner's verified
// bytes instead — and because the transfer runs as the cache's build
// function, it inherits singleflight (one fill per key no matter how
// many cold requests race), admission control, and the crash-safe
// store write-through unchanged. The two local singleflights compose
// into the cluster-wide one: every non-owner's storm collapses to one
// peer-fill GET, and the owner's storm (those GETs included) collapses
// to one pipeline run.
type Node struct {
	name        string
	ring        *Ring
	peers       map[string]string
	srv         *server.Server
	fc          peerFetcher
	fillTimeout time.Duration

	// fallbackBuilds counts peer fills that failed (owner dead or
	// unreachable, transfer unverifiable) and were satisfied by a local
	// build instead. Each one is a real pipeline run on a non-owner, so
	// the cluster invariant weakens from builds == keys to
	// builds <= keys + fallbacks; healthy clusters hold it at zero.
	fallbackBuilds atomic.Int64
}

// NewNode builds a cluster member. The returned node serves exactly
// like a standalone server.Server — mount Handler on an http.Server.
func NewNode(c NodeConfig) (*Node, error) {
	if c.Ring == nil {
		return nil, fmt.Errorf("cluster: node %q: nil ring", c.Name)
	}
	member := false
	for _, n := range c.Ring.Nodes() {
		if n == c.Name {
			member = true
			break
		}
	}
	if !member {
		return nil, fmt.Errorf("cluster: node %q is not a ring member %v", c.Name, c.Ring.Nodes())
	}
	if c.Server.Build != nil {
		return nil, fmt.Errorf("cluster: node %q: Server.Build must be nil (the node owns the build path)", c.Name)
	}
	if c.FillTimeout <= 0 {
		c.FillTimeout = 30 * time.Second
	}
	n := &Node{
		name:        c.Name,
		ring:        c.Ring,
		peers:       c.Peers,
		fillTimeout: c.FillTimeout,
	}
	n.fc = newPeerFetcher(c.Client, c.Name)
	sc := c.Server
	sc.Build = n.buildOrFill
	srv, err := server.New(sc)
	if err != nil {
		return nil, err
	}
	n.srv = srv
	return n, nil
}

// buildOrFill is the node's cache-miss path: build locally when this
// node owns the key, otherwise transfer the owner's verified bytes,
// degrading to a counted local build when the owner cannot deliver.
func (n *Node) buildOrFill(ctx context.Context, k server.Key) (*server.Artifact, error) {
	owner := n.ring.Owner(k.String())
	if owner == n.name {
		return server.Build(ctx, k)
	}
	art, err := n.peerFill(ctx, k, owner)
	if err == nil {
		return art, nil
	}
	// The owner is down, shedding past our patience, or served bytes
	// that failed verification. Availability wins over the one-build
	// economy: build locally and count the exception.
	n.fallbackBuilds.Add(1)
	return server.Build(ctx, k)
}

// Name returns the node's ring identity.
func (n *Node) Name() string { return n.name }

// Ring returns the cluster's shared ring.
func (n *Node) Ring() *Ring { return n.ring }

// Handler returns the node's HTTP handler (the full code-server
// surface: /apps, /metrics, /healthz, ...).
func (n *Node) Handler() http.Handler { return n.srv.Handler() }

// Server exposes the underlying code server for stats and drain.
func (n *Node) Server() *server.Server { return n.srv }

// FallbackBuilds reports peer fills that degraded to local builds.
func (n *Node) FallbackBuilds() int64 { return n.fallbackBuilds.Load() }

// Stats snapshots the node's cluster-relevant counters.
func (n *Node) Stats() NodeStats {
	return NodeStats{
		Name:           n.name,
		Cache:          n.srv.CacheStats(),
		FallbackBuilds: n.fallbackBuilds.Load(),
	}
}

// NodeStats is one node's block in cluster reports. The JSON tags are
// part of the fleet report's schema (its cluster block).
type NodeStats struct {
	Name           string            `json:"name"`
	Cache          server.CacheStats `json:"cache"`
	FallbackBuilds int64             `json:"fallback_builds"`
	// Killed marks a node the scenario deliberately crashed; its
	// counters are frozen at death.
	Killed bool `json:"killed,omitempty"`
}
