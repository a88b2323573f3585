package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"nonstrict/internal/stream"
)

// testServer spins up one code server over httptest.
func testServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// get fetches one URL and returns the response and body.
func get(t testing.TB, url string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestMultiTenantEndpoints: every registered app is served under
// /apps/{name}/app with a parseable unit table, the /apps index lists
// them with cache residency, and unknown apps 404.
func TestMultiTenantEndpoints(t *testing.T) {
	s, ts := testServer(t, Config{})
	resp, body := get(t, ts.URL+"/apps/Hanoi/app", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /apps/Hanoi/app: %s", resp.Status)
	}
	if len(body) == 0 {
		t.Fatal("empty stream")
	}
	if et := resp.Header.Get("ETag"); et == "" {
		t.Error("stream response missing ETag")
	}
	if cc := resp.Header.Get("Cache-Control"); !strings.Contains(cc, "immutable") {
		t.Errorf("Cache-Control = %q, want immutable", cc)
	}
	resp, tocBytes := get(t, ts.URL+"/apps/Hanoi/app.toc", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /apps/Hanoi/app.toc: %s", resp.Status)
	}
	toc, err := stream.ParseTOC(tocBytes)
	if err != nil {
		t.Fatalf("served unit table does not parse: %v", err)
	}
	if len(toc) == 0 {
		t.Fatal("empty unit table")
	}
	// The table describes the stream exactly.
	last := toc[len(toc)-1]
	if want := last.Off + int64(last.Len); int64(len(body)) != want {
		t.Errorf("stream is %d bytes, unit table ends at %d", len(body), want)
	}

	resp, _ = get(t, ts.URL+"/apps/NoSuchApp/app", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown app: %s, want 404", resp.Status)
	}

	resp, idx := get(t, ts.URL+"/apps", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /apps: %s", resp.Status)
	}
	var rows []appStatus
	if err := json.Unmarshal(idx, &rows); err != nil {
		t.Fatalf("/apps index does not parse: %v\n%s", err, idx)
	}
	if len(rows) != len(s.Apps()) {
		t.Fatalf("index lists %d apps, server mounts %d", len(rows), len(s.Apps()))
	}
	seenBuilt := false
	for _, r := range rows {
		if r.Name == "Hanoi" {
			if !r.Built || r.Size != int64(len(body)) {
				t.Errorf("index row for Hanoi = %+v, want built with size %d", r, len(body))
			}
			seenBuilt = true
		}
	}
	if !seenBuilt {
		t.Error("index missing Hanoi")
	}
}

// TestDefaultAppAlias: /app and /app.toc serve the configured default
// app byte-identically to its multi-tenant paths.
func TestDefaultAppAlias(t *testing.T) {
	_, ts := testServer(t, Config{DefaultApp: "Hanoi"})
	_, viaAlias := get(t, ts.URL+"/app", nil)
	_, viaTenant := get(t, ts.URL+"/apps/Hanoi/app", nil)
	if string(viaAlias) != string(viaTenant) {
		t.Error("/app and /apps/Hanoi/app served different bytes")
	}
	_, aliasTOC := get(t, ts.URL+"/app.toc", nil)
	_, tenantTOC := get(t, ts.URL+"/apps/Hanoi/app.toc", nil)
	if string(aliasTOC) != string(tenantTOC) {
		t.Error("/app.toc and /apps/Hanoi/app.toc served different bytes")
	}
}

// TestCacheConcurrentColdFetch is the correctness-under-concurrency
// gate, run with -race in CI: many goroutines cold-fetch the same and
// different apps simultaneously; every key builds exactly once, every
// response for a key is byte-identical, and a matching If-None-Match
// revalidates to 304 with no body.
func TestCacheConcurrentColdFetch(t *testing.T) {
	apps := []string{"Hanoi", "BIT"}
	s, ts := testServer(t, Config{Apps: apps})
	const perApp = 16
	type result struct {
		app  string
		body string
		etag string
	}
	results := make(chan result, perApp*len(apps)*2)
	var wg sync.WaitGroup
	for _, app := range apps {
		for i := 0; i < perApp; i++ {
			wg.Add(1)
			go func(app string) {
				defer wg.Done()
				resp, body := get(t, ts.URL+"/apps/"+app+"/app", nil)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: %s", app, resp.Status)
					return
				}
				results <- result{app, string(body), resp.Header.Get("ETag")}
			}(app)
			wg.Add(1)
			go func(app string) {
				defer wg.Done()
				resp, body := get(t, ts.URL+"/apps/"+app+"/app.toc", nil)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s toc: %s", app, resp.Status)
					return
				}
				results <- result{app + ".toc", string(body), resp.Header.Get("ETag")}
			}(app)
		}
	}
	wg.Wait()
	close(results)

	first := map[string]result{}
	for r := range results {
		if prev, ok := first[r.app]; ok {
			if prev.body != r.body {
				t.Fatalf("%s: concurrent requests saw different bytes", r.app)
			}
			if prev.etag != r.etag {
				t.Fatalf("%s: concurrent requests saw different ETags", r.app)
			}
		} else {
			first[r.app] = r
		}
	}

	st := s.CacheStats()
	if want := int64(len(apps)); st.Builds != want {
		t.Fatalf("builds = %d, want exactly %d (one per key; stats %+v)", st.Builds, want, st)
	}
	if st.Hits == 0 {
		t.Error("no cache hits across concurrent fetches")
	}

	// Revalidation: a matching If-None-Match is a 304 with no body —
	// the repeat client pays nothing.
	for _, app := range apps {
		etag := first[app].etag
		resp, body := get(t, ts.URL+"/apps/"+app+"/app", map[string]string{"If-None-Match": etag})
		if resp.StatusCode != http.StatusNotModified {
			t.Errorf("%s revalidation: %s, want 304", app, resp.Status)
		}
		if len(body) != 0 {
			t.Errorf("%s: 304 carried %d body bytes", app, len(body))
		}
		// A stale validator re-serves the full artifact.
		resp, body = get(t, ts.URL+"/apps/"+app+"/app", map[string]string{"If-None-Match": `"deadbeef"`})
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Errorf("%s stale revalidation: %s with %d bytes, want 200 with body", app, resp.Status, len(body))
		}
	}
	if st := s.CacheStats(); st.Builds != int64(len(apps)) {
		t.Errorf("revalidation ran builds (builds = %d)", st.Builds)
	}
}

// TestWarmRequestZeroPipelineWork is the acceptance assertion: once an
// app is built, further requests perform zero pipeline work — the build
// counter must not move.
func TestWarmRequestZeroPipelineWork(t *testing.T) {
	s, ts := testServer(t, Config{Apps: []string{"Hanoi"}})
	if _, err := s.Warm(context.Background(), "Hanoi"); err != nil {
		t.Fatal(err)
	}
	before := s.CacheStats()
	if before.Builds != 1 {
		t.Fatalf("warm-up builds = %d, want 1", before.Builds)
	}
	for i := 0; i < 100; i++ {
		get(t, ts.URL+"/apps/Hanoi/app", nil)
		get(t, ts.URL+"/apps/Hanoi/app.toc", nil)
	}
	after := s.CacheStats()
	if after.Builds != before.Builds {
		t.Fatalf("warm requests ran %d extra builds", after.Builds-before.Builds)
	}
	if after.Hits < 200 {
		t.Errorf("hits = %d, want >= 200", after.Hits)
	}
	if after.BuildSeconds <= 0 {
		t.Error("BuildSeconds not accounted")
	}
}

// TestServerEviction: a budget sized below two artifacts forces the
// cache to evict, and the evicted app transparently rebuilds on the
// next request.
func TestServerEviction(t *testing.T) {
	// Find Hanoi's artifact size to pick a budget that holds one
	// artifact but not two.
	art, err := Build(context.Background(), Key{App: "Hanoi", Order: OrderStatic})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := testServer(t, Config{Apps: []string{"Hanoi", "BIT"}, CacheBytes: art.size() + 64})
	_, first := get(t, ts.URL+"/apps/Hanoi/app", nil)
	get(t, ts.URL+"/apps/BIT/app", nil)
	st := s.CacheStats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a one-artifact budget (stats %+v)", st)
	}
	// Hanoi was evicted; the next request rebuilds it byte-identically.
	_, again := get(t, ts.URL+"/apps/Hanoi/app", nil)
	if string(first) != string(again) {
		t.Error("rebuilt artifact differs from the original")
	}
	if st := s.CacheStats(); st.Builds < 3 {
		t.Errorf("builds = %d, want >= 3 (Hanoi, BIT, Hanoi again)", st.Builds)
	}
}

// TestFaultWrapsCacheHits is the chaos-interop gate: the fault layer
// wraps the multi-tenant mux per-request, so cache hits see exactly the
// same injected corruption as cold builds, the fault counters advance on
// hits, and /metrics itself stays outside the blast radius.
func TestFaultWrapsCacheHits(t *testing.T) {
	s, ts := testServer(t, Config{
		Apps:  []string{"Hanoi"},
		Fault: stream.Fault{CorruptEvery: 701, Seed: 9},
	})
	clean, err := Build(context.Background(), Key{App: "Hanoi", Order: OrderStatic})
	if err != nil {
		t.Fatal(err)
	}

	_, first := get(t, ts.URL+"/apps/Hanoi/app", nil)
	corruptAfterCold := s.metrics.FaultCounts().CorruptedBytes
	if corruptAfterCold == 0 {
		t.Fatal("cold request was not corrupted")
	}
	if string(first) == string(clean.Data) {
		t.Fatal("fault layer did not touch the cold response")
	}

	_, second := get(t, ts.URL+"/apps/Hanoi/app", nil)
	st := s.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("second request was not a cache hit (stats %+v)", st)
	}
	corruptAfterHit := s.metrics.FaultCounts().CorruptedBytes
	if corruptAfterHit <= corruptAfterCold {
		t.Fatal("cache hit bypassed fault injection (corruption counter did not advance)")
	}
	if string(second) == string(clean.Data) {
		t.Fatal("cache hit served clean bytes through an active fault layer")
	}
	// Corruption is byte-positional and seeded: the hit corrupts exactly
	// as the cold request did, so both responses are identical.
	if string(first) != string(second) {
		t.Error("seeded corruption differed between cold and warm responses")
	}

	// The /metrics counters saw both requests, and the exposition is
	// itself uncorrupted (it parses; it is outside the fault layer).
	resp, metrics := get(t, ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	for _, want := range []string{
		"nonstrict_http_requests_total 2",
		"nonstrict_cache_hits_total 1",
		"nonstrict_cache_misses_total 1",
		"nonstrict_cache_builds_total 1",
		"nonstrict_cache_shed_total 0",
		"nonstrict_cache_breaker_trips_total 0",
		"nonstrict_store_hits_total 0",
		"nonstrict_store_misses_total 0",
		"nonstrict_draining 0",
		`nonstrict_fault_injections_total{kind="corrupt_byte"}`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestFlakyTOCOnWarmCache: a TOC fault schedule applies even when the
// artifact is resident — the 503 comes from the fault layer, not from a
// missing build.
func TestFlakyTOCOnWarmCache(t *testing.T) {
	s, ts := testServer(t, Config{Apps: []string{"Hanoi"}, Fault: stream.Fault{FlakyTOC: 1}})
	if _, err := s.Warm(context.Background(), "Hanoi"); err != nil {
		t.Fatal(err)
	}
	resp, _ := get(t, ts.URL+"/apps/Hanoi/app.toc", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("first TOC request: %s, want 503 from the fault layer", resp.Status)
	}
	resp, body := get(t, ts.URL+"/apps/Hanoi/app.toc", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second TOC request: %s", resp.Status)
	}
	if _, err := stream.ParseTOC(body); err != nil {
		t.Errorf("recovered TOC does not parse: %v", err)
	}
	if st := s.CacheStats(); st.Builds != 1 {
		t.Errorf("builds = %d, want 1 (the 503 must not trigger a rebuild)", st.Builds)
	}
}

// TestServerConfigValidation: unknown apps and policies fail at New.
func TestServerConfigValidation(t *testing.T) {
	if _, err := New(Config{Apps: []string{"NoSuchApp"}}); err == nil {
		t.Error("unknown app accepted")
	}
	if _, err := New(Config{Order: "bogus"}); err == nil {
		t.Error("unknown order policy accepted")
	}
	if _, err := New(Config{DefaultApp: "NoSuchApp"}); err == nil {
		t.Error("unknown default app accepted")
	}
	s, err := New(Config{Apps: []string{"BIT"}, DefaultApp: "Hanoi"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Warm(context.Background(), "Hanoi"); err != nil {
		t.Errorf("default app not mounted: %v", err)
	}
	if _, err := s.Warm(context.Background(), "Jess"); err == nil {
		t.Error("unmounted app warmed")
	}
}

// TestNewArtifactRejectsTableOverrunningStream: the unit table stores
// lengths only, so the one piece of geometry ParseTOC cannot check — that
// the ranges it derives lie inside the stream they describe — is checked
// where table and stream first meet. Neither a table claiming more bytes
// than the stream has nor a stream cut short of its table is published.
func TestNewArtifactRejectsTableOverrunningStream(t *testing.T) {
	k := Key{App: "Hanoi", Order: OrderStatic}
	art, err := Build(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewArtifact(k, art.Data, art.TOC); err != nil {
		t.Fatalf("intact artifact rejected: %v", err)
	}

	units, err := stream.ParseTOC(art.TOC)
	if err != nil {
		t.Fatal(err)
	}
	units[len(units)-1].Len += 100 // the last length moves no other offset
	long, err := stream.MarshalTOC(units)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewArtifact(k, art.Data, long); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Errorf("table overrunning the stream: err = %v, want a range error", err)
	}
	if _, err := NewArtifact(k, art.Data[:len(art.Data)-1], art.TOC); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Errorf("stream one byte short of its table: err = %v, want a range error", err)
	}
}

// nullWriter is a response writer that discards the body.
type nullWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *nullWriter) Header() http.Header { return w.h }
func (w *nullWriter) WriteHeader(s int)   { w.status = s }
func (w *nullWriter) Flush()              {}
func (w *nullWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// allocsPerRun is testing.AllocsPerRun that also reports the bytes
// allocated: the mean of both over runs calls of f, after one warm-up
// call, on one processor.
func allocsPerRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestWarmResponseAllocsFlatInBodySize pins the serving half of the
// allocation budget: a warm response costs the same garbage whatever it
// sends. The smallest and the largest app's whole streams and
// resume-style ranges each cost what the smallest app's do, give or take
// a constant, and allocate less than half a copy buffer.
// http.ServeContent's io.CopyN alone would allocate min(32 KiB, body)
// per response.
func TestWarmResponseAllocsFlatInBodySize(t *testing.T) {
	apps := []string{"Hanoi", "Jess"} // smallest and largest stream
	for _, tc := range []struct {
		name  string
		rng   string
		runs  int
		bytes float64 // bound on the largest response's allocated bytes
	}{
		// Under -race sync.Pool drops a quarter of its Puts, so every
		// response pays 8 KiB of refills on average; a thousand runs
		// hold that mean well under the bound.
		{name: "stream", runs: 1000, bytes: 16 << 10},
		{name: "range", rng: "bytes=1-", runs: 1000, bytes: 16 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(Config{Apps: apps})
			if err != nil {
				t.Fatal(err)
			}
			var size, allocs, bytes [2]float64
			for i, app := range apps {
				n, err := s.Warm(context.Background(), app)
				if err != nil {
					t.Fatal(err)
				}
				req := httptest.NewRequest(http.MethodGet, "/apps/"+app+"/app", nil)
				want := http.StatusOK
				if tc.rng != "" {
					req.Header.Set("Range", tc.rng)
					want, n = http.StatusPartialContent, n-1
				}
				serve := func() {
					w := &nullWriter{h: make(http.Header)}
					s.Handler().ServeHTTP(w, req)
					if w.status != want || int64(w.n) != n {
						t.Fatalf("%s: status %d, %d bytes; want %d, %d", app, w.status, w.n, want, n)
					}
				}
				size[i] = float64(n)
				allocs[i], bytes[i] = allocsPerRun(tc.runs, serve)
			}
			t.Logf("%.0f allocations and %.0f bytes for %.0f body bytes (%s); %.0f and %.0f for %.0f (%s)",
				allocs[0], bytes[0], size[0], apps[0], allocs[1], bytes[1], size[1], apps[1])
			if size[1] < 8*size[0] {
				t.Fatalf("%s's body is only %.1fx %s's; the test needs bodies of very different size", apps[1], size[1]/size[0], apps[0])
			}
			if allocs[1] > allocs[0]+16 {
				t.Errorf("allocations grow with the body: %.0f for %.0f bytes against %.0f for %.0f bytes",
					allocs[1], size[1], allocs[0], size[0])
			}
			if bytes[1] > tc.bytes {
				t.Errorf("a %.0f-byte response allocates %.0f bytes, budget %.0f", size[1], bytes[1], tc.bytes)
			}
		})
	}
}
