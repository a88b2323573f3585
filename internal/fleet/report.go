package fleet

import (
	"encoding/json"
	"fmt"
	"sort"

	"nonstrict/internal/cluster"
	"nonstrict/internal/server"
)

// Schema identifies the Report's JSON layout; bump on breaking change
// so a reader fails loudly instead of misreading.
const Schema = "fleet/v1"

// Quantiles is a latency distribution summary in milliseconds.
type Quantiles struct {
	P50  float64 `json:"p50"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Max  float64 `json:"max"`
}

// LinkReport aggregates every client that ran on one link class.
//
// Two kinds of fields coexist. Clients, Failures, Needs and StreamBytes
// depend only on (seed, config) in a clean run — never on scheduling.
// Everything else is measured: what the shipping client session
// (live.Session) did on that link in this run — whether a need found
// the stream about to deliver it or demand-fetched it, how long it
// waited, what the transport retried — and varies run to run; Canonical
// zeroes those fields.
type LinkReport struct {
	Link     string `json:"link"`
	Clients  int    `json:"clients"`
	Failures int    `json:"failures"`
	// Needs counts first invocations (gate crossings) across the link's
	// clients. Mispredicts is the subset whose bytes the session's gate
	// demand-fetched because the stream, where it stood at that moment,
	// would have delivered other methods first (live.Stats.Mispredicts,
	// summed); DemandFetches counts the range requests they issued and
	// DemandBytes the payload bytes those brought. A slower link leaves
	// the stream further behind execution, so these depend on the link.
	Needs          int64   `json:"needs"`
	Mispredicts    int64   `json:"mispredicts"`
	MispredictRate float64 `json:"mispredict_rate"`
	DemandFetches  int64   `json:"demand_fetches"`
	StreamBytes    int64   `json:"stream_bytes"`
	DemandBytes    int64   `json:"demand_bytes"`
	// CorruptUnits and Repaired count server-side chaos damage detected
	// and healed by the loaders' verification and repair path. Corrupt
	// positions are request-relative, so resumes shift them: these are
	// wall-clock-class fields under lossy links.
	CorruptUnits int64 `json:"corrupt_units"`
	Repaired     int64 `json:"repaired"`
	// Requests/Retries/Resumes snapshot the fetch clients' transport
	// counters; on lossy links the retry schedule depends on connection
	// interleaving, so these are wall-clock-class fields.
	Requests int64 `json:"requests"`
	Retries  int64 `json:"retries"`
	Resumes  int64 `json:"resumes"`
	// FirstInvocationMs is the distribution of client start → first
	// method runnable, the fleet-scale version of the paper's Table 4
	// invocation latency.
	FirstInvocationMs Quantiles `json:"first_invocation_ms"`
	// MeanOverlap averages per-client overlap (fraction of the client's
	// window not spent stalled on bytes), as sim.Result.Overlap.
	MeanOverlap float64 `json:"mean_overlap"`
	// Errors samples the first few client failure messages, so a CI
	// report with nonzero Failures explains itself.
	Errors []string `json:"errors,omitempty"`
}

// RestartReport is the crash-restart scenario's proof block: the
// second server incarnation must have built nothing (PostBuilds) while
// the fleet kept succeeding (SuccessRate) at sane latency
// (P99FirstInvocationMs spans the restart). PreBuilds, PostBuilds,
// AfterFraction, and Restarts are deterministic; the rest measure the
// actual run and are zeroed by Canonical.
type RestartReport struct {
	AfterFraction float64 `json:"after_fraction"`
	Restarts      int64   `json:"restarts"`
	KillAtMs      float64 `json:"kill_at_ms"`
	ConnsKilled   int     `json:"conns_killed"`
	PreBuilds     int64   `json:"pre_builds"`
	PostBuilds    int64   `json:"post_builds"`
	PostStoreHits int64   `json:"post_store_hits"`
	// SuccessRate is finished-and-succeeded over finished, across the
	// whole fleet — the client success rate across the restart.
	SuccessRate          float64 `json:"success_rate"`
	P99FirstInvocationMs float64 `json:"p99_first_invocation_ms"`
}

// ClusterReport is the cluster scenario's proof block. The headline
// invariant is ClusterBuilds <= Keys: summed across every node, the
// pipeline ran at most once per (app, order) key — everything else the
// replicas served came from peer fills or their stores. Nodes, VNodes,
// RingSeed, Keys, ClusterBuilds, PeerFills, FallbackBuilds, and
// KilledNode are deterministic under prewarming; the kill timing,
// router counters, and per-node traffic splits measure the actual run
// and are zeroed by Canonical.
type ClusterReport struct {
	Nodes    int    `json:"nodes"`
	VNodes   int    `json:"vnodes"`
	RingSeed uint64 `json:"ring_seed"`
	// Keys is the distinct (app, order) count the run exercised.
	Keys          int   `json:"keys"`
	ClusterBuilds int64 `json:"cluster_builds"`
	PeerFills     int64 `json:"peer_fills"`
	// FallbackBuilds counts peer fills that degraded to local builds
	// (owner unreachable or transfer unverifiable); a healthy run holds
	// it at zero.
	FallbackBuilds int64 `json:"fallback_builds"`
	// KilledNode through ConnsKilled describe the mid-run node crash,
	// when the scenario included one.
	KilledNode  string  `json:"killed_node,omitempty"`
	KillAtMs    float64 `json:"kill_at_ms,omitempty"`
	ConnsKilled int     `json:"conns_killed,omitempty"`
	// SuccessRate is finished-and-succeeded over finished across the
	// whole fleet — it must stay 1 through the kill.
	SuccessRate float64             `json:"success_rate"`
	Router      cluster.RouterStats `json:"router"`
	PerNode     []cluster.NodeStats `json:"per_node"`
}

// Report is the document `nonstrict fleet -out FILE` writes.
type Report struct {
	SchemaVersion string   `json:"schema"`
	Seed          uint64   `json:"seed"`
	Order         string   `json:"order"`
	Apps          []string `json:"apps"`
	Clients       int      `json:"clients"`
	TimeScale     float64  `json:"time_scale"`
	// DurationMs is the wall-clock length of the whole run.
	DurationMs float64           `json:"duration_ms"`
	Links      []LinkReport      `json:"links"`
	Cache      server.CacheStats `json:"cache"`
	Restart    *RestartReport    `json:"restart,omitempty"`
	Cluster    *ClusterReport    `json:"cluster,omitempty"`
}

// Validate checks the report's build-count invariant, which depends on
// the topology the run used. A single server prebuilds exactly one
// artifact per app (failed builds excepted); a restart run splits that
// across incarnations (all builds before the crash, none after); a
// cluster run bounds the CLUSTER-WIDE build sum by the key count —
// builds == app count would be wrong there, since N-1 nodes per key
// peer-fill instead of building. Callers that used to assert
// builds == len(apps) directly should use this instead.
func (r *Report) Validate() error {
	if c := r.Cluster; c != nil {
		if c.ClusterBuilds > int64(c.Keys) {
			return fmt.Errorf("fleet: cluster-wide builds %d exceed %d keys; peer fill did not deduplicate the pipeline", c.ClusterBuilds, c.Keys)
		}
		return nil
	}
	if rr := r.Restart; rr != nil {
		if rr.PreBuilds != int64(len(r.Apps)) {
			return fmt.Errorf("fleet: first incarnation built %d artifacts for %d apps", rr.PreBuilds, len(r.Apps))
		}
		if rr.PostBuilds != 0 {
			return fmt.Errorf("fleet: restarted server rebuilt %d artifacts; the store should have served them all", rr.PostBuilds)
		}
		return nil
	}
	if got, want := r.Cache.Builds-r.Cache.BuildErrors, int64(len(r.Apps)); got != want {
		return fmt.Errorf("fleet: %d successful builds for %d apps; clients leaked into the build path", got, want)
	}
	return nil
}

// Canonical returns a copy with every wall-clock-derived field zeroed,
// leaving exactly the fields the determinism contract covers: two runs
// with the same seed and config must produce identical Canonical()
// documents no matter how the scheduler interleaved them.
func (r *Report) Canonical() *Report {
	c := *r
	c.DurationMs = 0
	c.Links = append([]LinkReport(nil), r.Links...)
	for i := range c.Links {
		l := &c.Links[i]
		l.Requests, l.Retries, l.Resumes = 0, 0, 0
		l.Mispredicts, l.MispredictRate, l.DemandFetches, l.DemandBytes = 0, 0, 0, 0
		l.CorruptUnits, l.Repaired = 0, 0
		l.FirstInvocationMs = Quantiles{}
		l.MeanOverlap = 0
		l.Errors = nil
	}
	c.Cache.Hits, c.Cache.Misses, c.Cache.BuildSeconds = 0, 0, 0
	c.Cache.StoreHits, c.Cache.StoreMisses = 0, 0
	if r.Restart != nil {
		rr := *r.Restart
		rr.KillAtMs, rr.ConnsKilled = 0, 0
		rr.PostStoreHits, rr.P99FirstInvocationMs = 0, 0
		c.Restart = &rr
	}
	if r.Cluster != nil {
		cl := *r.Cluster
		cl.KillAtMs, cl.ConnsKilled = 0, 0
		cl.Router = cluster.RouterStats{}
		// Per-node build/fill splits are deterministic under prewarming;
		// per-node traffic is not. Keep the former, zero the latter.
		cl.PerNode = append([]cluster.NodeStats(nil), r.Cluster.PerNode...)
		for i := range cl.PerNode {
			n := &cl.PerNode[i]
			n.Cache = server.CacheStats{
				Builds:      n.Cache.Builds,
				PeerFills:   n.Cache.PeerFills,
				BuildErrors: n.Cache.BuildErrors,
				Entries:     n.Cache.Entries,
			}
		}
		c.Cluster = &cl
	}
	return &c
}

// MarshalJSON renders the report with stable formatting.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// quantiles summarizes a sample of millisecond latencies with the
// nearest-rank method. An empty sample yields zeros — never NaN or Inf,
// which would poison the JSON encoder.
func quantiles(ms []float64) Quantiles {
	if len(ms) == 0 {
		return Quantiles{}
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	rank := func(q float64) float64 {
		i := int(q*float64(len(s))+0.9999) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(s) {
			i = len(s) - 1
		}
		return s[i]
	}
	return Quantiles{P50: rank(0.50), P99: rank(0.99), P999: rank(0.999), Max: s[len(s)-1]}
}
