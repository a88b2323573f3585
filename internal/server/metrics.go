package server

import (
	"bytes"
	"fmt"
	"net/http"
	"sync/atomic"

	"nonstrict/internal/pipeline"
	"nonstrict/internal/stream"
)

// Metrics counts what the code server hands out. All fields are updated
// atomically; /metrics renders them in Prometheus text format with no
// dependency beyond the standard library. The counting middleware wraps
// the fault layer, so bytesServed measures what actually went on the
// wire, faults included; the cache counters come straight from the
// artifact cache, so a scrape can watch hit ratio, evictions, and build
// cost while traffic runs.
type Metrics struct {
	requests      atomic.Int64
	rangeRequests atomic.Int64
	notModified   atomic.Int64
	bytesServed   atomic.Int64
	activeStreams atomic.Int64
	faults        *stream.FaultStats
	cache         *Cache
	store         *DiskStore   // nil without a persistent tier
	draining      *atomic.Bool // nil in bare test metrics
}

func newMetrics(cache *Cache) *Metrics {
	return &Metrics{faults: &stream.FaultStats{}, cache: cache}
}

// FaultCounts snapshots the fault-injection counters.
func (m *Metrics) FaultCounts() stream.FaultCounts { return m.faults.Snapshot() }

// Requests returns the total requests counted so far.
func (m *Metrics) Requests() int64 { return m.requests.Load() }

// wrap counts one request around h.
func (m *Metrics) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		m.requests.Add(1)
		if req.Header.Get("Range") != "" {
			m.rangeRequests.Add(1)
		}
		m.activeStreams.Add(1)
		defer m.activeStreams.Add(-1)
		cw := &countingWriter{rw: rw, n: &m.bytesServed}
		h.ServeHTTP(cw, req)
		if cw.status == http.StatusNotModified {
			m.notModified.Add(1)
		}
	})
}

func (m *Metrics) handler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var b bytes.Buffer
		counter := func(name, help string, v int64) {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
		}
		gauge := func(name, help string, v int64) {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
		}
		counter("nonstrict_http_requests_total", "HTTP requests served.", m.requests.Load())
		counter("nonstrict_range_requests_total", "Requests carrying a Range header (resumes and demand fetches).", m.rangeRequests.Load())
		counter("nonstrict_http_not_modified_total", "Conditional requests answered 304 from a matching ETag.", m.notModified.Load())
		counter("nonstrict_bytes_served_total", "Response body bytes written, faults included.", m.bytesServed.Load())
		gauge("nonstrict_active_streams", "In-flight responses.", m.activeStreams.Load())
		// Stages before the total: a build adds its wall-clock time first,
		// so a scrape never shows the stages summing past the total.
		stages := m.cache.BuildStages()
		cs := m.cache.Stats()
		counter("nonstrict_cache_hits_total", "Requests answered from a resident artifact (zero pipeline work).", cs.Hits)
		counter("nonstrict_cache_misses_total", "Requests that found no resident artifact.", cs.Misses)
		counter("nonstrict_cache_builds_total", "Artifact pipeline executions (misses minus singleflight waiters).", cs.Builds)
		counter("nonstrict_cache_peer_fills_total", "Artifacts transferred from a cluster peer instead of built locally.", cs.PeerFills)
		counter("nonstrict_cache_evictions_total", "Artifacts evicted to fit the byte budget.", cs.Evictions)
		counter("nonstrict_cache_build_errors_total", "Builds that failed (error or panic) and published no artifact.", cs.BuildErrors)
		fmt.Fprintf(&b, "# HELP nonstrict_cache_build_seconds_total Wall-clock seconds spent building artifacts.\n# TYPE nonstrict_cache_build_seconds_total counter\nnonstrict_cache_build_seconds_total %g\n", cs.BuildSeconds)
		fmt.Fprintf(&b, "# HELP nonstrict_build_stage_seconds_total The part of nonstrict_cache_build_seconds_total spent inside each pipeline stage.\n# TYPE nonstrict_build_stage_seconds_total counter\n")
		for s, d := range stages {
			fmt.Fprintf(&b, "nonstrict_build_stage_seconds_total{stage=%q} %g\n", pipeline.Stage(s), d.Seconds())
		}
		counter("nonstrict_cache_shed_total", "Requests refused by admission control (queue bound or open breaker).", cs.Shed)
		counter("nonstrict_cache_breaker_trips_total", "Circuit-breaker trips across all keys.", cs.BreakerTrips)
		counter("nonstrict_store_hits_total", "Cache misses satisfied from the persistent artifact store (no build).", cs.StoreHits)
		counter("nonstrict_store_misses_total", "Cache misses the persistent store could not satisfy.", cs.StoreMisses)
		gauge("nonstrict_cache_bytes", "Bytes resident in the artifact cache.", cs.Bytes)
		gauge("nonstrict_cache_entries", "Artifacts resident in the cache.", int64(cs.Entries))
		if m.store != nil {
			ss := m.store.Stats()
			counter("nonstrict_store_puts_total", "Artifacts durably written to the persistent store.", ss.Puts)
			counter("nonstrict_store_put_errors_total", "Store writes that failed (the request still succeeded).", ss.PutErrors)
			counter("nonstrict_store_quarantined_total", "Store entries that failed verification and were quarantined.", ss.Quarantined)
			gauge("nonstrict_store_entries", "Intact entries resident in the persistent store.", int64(ss.Entries))
			gauge("nonstrict_store_bytes", "Payload bytes resident in the persistent store.", ss.Bytes)
		}
		var draining int64
		if m.draining != nil && m.draining.Load() {
			draining = 1
		}
		gauge("nonstrict_draining", "1 while the server is draining (readyz failing, builds shed).", draining)
		fc := m.faults.Snapshot()
		fmt.Fprintf(&b, "# HELP nonstrict_fault_injections_total Faults injected by the chaos schedule, by kind.\n# TYPE nonstrict_fault_injections_total counter\n")
		for _, kv := range []struct {
			kind string
			v    int64
		}{
			{"drop", fc.Drops},
			{"corrupt_byte", fc.CorruptedBytes},
			{"stall", fc.Stalls},
			{"truncate", fc.Truncations},
			{"garbage_range", fc.GarbageRanges},
			{"flaky_toc", fc.TOCFailures},
		} {
			fmt.Fprintf(&b, "nonstrict_fault_injections_total{kind=%q} %d\n", kv.kind, kv.v)
		}
		rw.Write(b.Bytes())
	})
}

// countingWriter tallies body bytes into n and remembers the status
// code. It forwards Flush so the fault layer and heldTail keep their
// streaming behaviour.
type countingWriter struct {
	rw     http.ResponseWriter
	n      *atomic.Int64
	status int
}

func (c *countingWriter) Header() http.Header { return c.rw.Header() }

func (c *countingWriter) WriteHeader(code int) {
	c.status = code
	c.rw.WriteHeader(code)
}

func (c *countingWriter) Write(b []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
	}
	n, err := c.rw.Write(b)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingWriter) Flush() {
	if fl, ok := c.rw.(http.Flusher); ok {
		fl.Flush()
	}
}
