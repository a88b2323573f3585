package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"

	"nonstrict/internal/server"
	"nonstrict/internal/stream"
)

// peerFetcher transfers artifact bytes from a peer. It is a
// stream.FetchClient underneath, so a peer fill inherits the same
// fault tolerance client transfers get: per-attempt timeouts, capped
// backoff with deterministic jitter, Retry-After honoured when the
// owner is shedding, and mid-stream resume pinned to the first
// response's ETag — a fill can never silently splice two generations
// of the owner's artifact.
type peerFetcher struct {
	fc *stream.FetchClient
}

func newPeerFetcher(client *http.Client, name string) peerFetcher {
	if client == nil {
		client = newHopClient()
	}
	return peerFetcher{fc: &stream.FetchClient{
		HTTP: client,
		// Fills are node-to-node on fast links; fail over to a local
		// build quickly rather than riding the full client retry budget.
		MaxRetries: 3,
		JitterSeed: seedFromName(name),
	}}
}

// seedFromName derives a per-node jitter seed so concurrent fills
// across the cluster do not retry in lockstep.
func seedFromName(name string) uint64 {
	var x uint64
	for _, b := range []byte(name) {
		x = x*131 + uint64(b) + 1
	}
	if x == 0 {
		x = 1
	}
	return x
}

// peerFill transfers k's artifact from owner and re-verifies it
// locally: the unit table must parse, every unit must be in bounds and
// match its checksum (server.NewArtifact), and only then is the
// artifact published — at which point the cache's ordinary write-
// through persists it to this node's crash-safe store exactly as if it
// had been built here. The returned artifact is marked PeerFilled so
// the cache counts the flight under PeerFills, keeping the cluster-wide
// sum of Builds at one per key.
func (n *Node) peerFill(ctx context.Context, k server.Key, owner string) (*server.Artifact, error) {
	base, ok := n.peers[owner]
	if !ok || base == "" {
		return nil, fmt.Errorf("cluster: node %s: no address for owner %s of %s", n.name, owner, k)
	}
	ctx, cancel := context.WithTimeout(ctx, n.fillTimeout)
	defer cancel()

	var toc bytes.Buffer
	if _, err := n.fc.fc.Fetch(ctx, base+"/apps/"+k.App+"/app.toc", &toc); err != nil {
		return nil, fmt.Errorf("cluster: node %s: filling %s from %s: toc: %w", n.name, k, owner, err)
	}
	var data bytes.Buffer
	if _, err := n.fc.fc.Fetch(ctx, base+"/apps/"+k.App+"/app", &data); err != nil {
		return nil, fmt.Errorf("cluster: node %s: filling %s from %s: stream: %w", n.name, k, owner, err)
	}
	art, err := server.NewArtifact(k, data.Bytes(), toc.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cluster: node %s: fill from %s rejected: %w", n.name, owner, err)
	}
	art.PeerFilled = true
	return art, nil
}
