// Package cluster shards the non-strict code server across N nodes
// behind a consistent-hash router. Each (app, order-policy) key is
// owned by exactly one node; non-owners that are asked for a key
// transfer the owner's verified byte stream once (a peer fill) instead
// of running the build pipeline themselves, so a storm of cold
// requests across the whole cluster still produces exactly one build.
// The router proxies client traffic to the owning node and fails over
// to replicas without ever splicing two upstream streams into one
// response body — a mid-body upstream death aborts the client
// connection so the fetch client's pinned-ETag If-Range resume decides
// what is safe to continue.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"

	"nonstrict/internal/xrand"
)

// DefaultVNodes is the virtual-node count per physical node when a
// config leaves it zero: enough points that a 4-node ring's key shares
// stay within a few percent of even.
const DefaultVNodes = 64

// Ring is a consistent-hash ring over named nodes. Placement depends
// only on (names, vnodes, seed) — never on the order names were given
// or on which process computes it — so every node and every router
// derives the same owner for every key without coordination.
type Ring struct {
	seed   uint64
	vnodes int
	names  []string // sorted, deduplicated
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds a ring. vnodes <= 0 selects DefaultVNodes.
func NewRing(names []string, vnodes int, seed uint64) (*Ring, error) {
	if len(names) == 0 {
		return nil, errors.New("cluster: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	for i, n := range sorted {
		if n == "" {
			return nil, errors.New("cluster: empty node name")
		}
		if i > 0 && sorted[i-1] == n {
			return nil, fmt.Errorf("cluster: duplicate node name %q", n)
		}
	}
	r := &Ring{seed: seed, vnodes: vnodes, names: sorted}
	r.points = make([]ringPoint, 0, len(sorted)*vnodes)
	for _, n := range sorted {
		for v := 0; v < vnodes; v++ {
			h := r.hash(fmt.Sprintf("%s#%d", n, v))
			r.points = append(r.points, ringPoint{hash: h, node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Equal hashes are astronomically unlikely but must still order
		// deterministically, or two processes could disagree on ownership.
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// hash maps a string to a ring position: FNV-64a over the seed and the
// bytes, then the splitmix64 finalizer so nearby inputs (node#0, node#1)
// land far apart.
func (r *Ring) hash(s string) uint64 {
	h := fnv.New64a()
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], r.seed)
	h.Write(seed[:])
	h.Write([]byte(s))
	return xrand.Mix64(h.Sum64())
}

// Nodes returns the member names in sorted order.
func (r *Ring) Nodes() []string { return append([]string(nil), r.names...) }

// VNodes returns the virtual-node count per member in effect: the
// configured value, or DefaultVNodes where that was zero.
func (r *Ring) VNodes() int { return r.vnodes }

// Owner returns the node that owns key: the first virtual node at or
// after the key's position, wrapping at the top of the ring.
func (r *Ring) Owner(key string) string {
	return r.points[r.search(key)].node
}

// Pref returns every node ordered by preference for key: the owner
// first, then each distinct node in ring-walk order. The router walks
// this list when nodes die; any process with the same ring walks it
// identically.
func (r *Ring) Pref(key string) []string {
	out := make([]string, 0, len(r.names))
	seen := make(map[string]bool, len(r.names))
	i := r.search(key)
	for range r.points {
		n := r.points[i].node
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
			if len(out) == len(r.names) {
				break
			}
		}
		i++
		if i == len(r.points) {
			i = 0
		}
	}
	return out
}

// search finds the index of the first point at or after key's hash.
func (r *Ring) search(key string) int {
	h := r.hash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}
