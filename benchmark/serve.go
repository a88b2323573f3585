package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"time"

	"nonstrict/internal/apps"
	"nonstrict/internal/cluster"
	"nonstrict/internal/server"
	"nonstrict/internal/stream"
	"nonstrict/internal/xrand"
)

var mixAlias = map[string]string{
	"first_ms.p50": "ttfu_ms.p50: per pass, sum over the six apps of stream request to last byte of the first unit",
	"total_ms.p50": "wall time of one pass: the 11-request mix once for each of the six apps",
	"part_ms.p50":  "range_ms.p50: one single-unit Range GET, request to last byte",
	"ops_per_s":    "passes per second over all connections; streams_per_s is six times this",
}

var coldAlias = map[string]string{
	"first_ms.p50": "cold ttfu_ms.p50: per pass, sum over the 12 cold GETs of request to last byte of the first unit",
	"total_ms.p50": "cold_pass_ms.p50 + store_pass_ms.p50: the 12 cold GETs of a pass (six apps, scg and train) and 12 from a restarted server",
	"part_ms.p50":  "store_pass_ms.p50: the 12 GETs of one restart from store (mean of the three restarts a pass makes)",
	"ops_per_s":    "passes (12 cold GETs, 36 from store, over eight fresh servers) per second",
}

// rangesPerIteration is how many single-unit Range GETs ride along with
// each full-stream GET: tiny bodies (per-request cost) beside full ones
// (per-byte cost), so a gain for one that costs the other shows.
const rangesPerIteration = 8

// mixClient is one keep-alive connection's worth of serving traffic.
type mixClient struct {
	base string
	hc   *http.Client
	refs map[string]*ref
	rng  *xrand.Rand
	buf  []byte
}

func newMixClient(base string, refs map[string]*ref, seed uint64) *mixClient {
	return &mixClient{
		base: base,
		hc:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}},
		refs: refs,
		rng:  xrand.New(seed),
		buf:  make([]byte, 32<<10),
	}
}

func (c *mixClient) close() { c.hc.CloseIdleConnections() }

// get issues one GET and reads the whole body through c.buf, comparing
// it with want as it arrives. It returns when the request started and
// when the byte at offset mark had arrived.
func (c *mixClient) get(p *phase, what, path string, hdr [2]string, status int, etag string, want []byte, mark int) (start, marked time.Time) {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if !p.check(err == nil, "%s: %v", what, err) {
		return
	}
	if hdr[0] != "" {
		req.Header.Set(hdr[0], hdr[1])
	}
	start = time.Now()
	resp, err := c.hc.Do(req)
	if !p.check(err == nil, "%s: %v", what, err) {
		return
	}
	defer resp.Body.Close()
	n, same := 0, true
	for {
		k, err := resp.Body.Read(c.buf)
		if n+k > len(want) || !bytes.Equal(c.buf[:k], want[n:n+k]) {
			same = false
			_, _ = io.Copy(io.Discard, resp.Body) // keep the connection reusable; the failure is already counted
			break
		}
		n += k
		if marked.IsZero() && n >= mark {
			marked = time.Now()
		}
		if err != nil {
			same = same && err == io.EOF
			break
		}
	}
	p.check(resp.StatusCode == status && resp.Header.Get("ETag") == etag && same && n == len(want),
		"%s: status %d (want %d), etag %s (want %s), %d of %d bytes, identical %v",
		what, resp.StatusCode, status, resp.Header.Get("ETag"), etag, n, len(want), same)
	return start, marked
}

// stream GETs one app's whole stream and returns its time to first
// unit: request start to the last byte of the first unit in the served
// unit table.
func (c *mixClient) stream(p *phase, a *apps.App, sp spanRef) time.Duration {
	r := c.refs[a.Name]
	s := sp.begin("GET app", "")
	u := r.units[0]
	start, marked := c.get(p, a.Name+" stream", "/apps/"+a.Name+"/app", [2]string{}, http.StatusOK,
		r.art.ETag, r.art.Data, int(u.Off)+u.Len)
	s.end()
	return marked.Sub(start)
}

// iteration is the fixed mix for one app: its unit table, its whole
// stream, eight single-unit ranges at seeded indices, one revalidation.
// It returns the stream's time to first unit.
func (c *mixClient) iteration(p *phase, a *apps.App, sp spanRef) time.Duration {
	r := c.refs[a.Name]
	path := "/apps/" + a.Name + "/app"

	s := sp.begin("GET app.toc", "")
	c.get(p, a.Name+" unit table", path+".toc", [2]string{}, http.StatusOK, r.art.TOCETag, r.art.TOC, 0)
	s.end()

	first := c.stream(p, a, sp)

	for range rangesPerIteration {
		u := r.units[c.rng.Intn(len(r.units))]
		end := u.Off + int64(u.Len)
		s := sp.begin("GET app range", "")
		t0 := time.Now()
		c.get(p, a.Name+" range", path, [2]string{"Range", fmt.Sprintf("bytes=%d-%d", u.Off, end-1)},
			http.StatusPartialContent, r.art.ETag, r.art.Data[u.Off:end], 0)
		p.part = append(p.part, ms(time.Since(t0)))
		s.end()
		// The body compared equal to the reference bytes; this ties the
		// reference bytes to the checksum the unit table promised.
		p.check(stream.ChecksumPayload(r.art.Data[u.Off:end]) == u.CRC, "%s unit at %d: checksum differs from its table entry", a.Name, u.Off)
	}

	s = sp.begin("GET app 304", "")
	c.get(p, a.Name+" revalidation", path, [2]string{"If-None-Match", r.art.ETag}, http.StatusNotModified, r.art.ETag, nil, 0)
	s.end()
	return first
}

// runMix drives base with one closed-loop client per processor until
// the deadline; a pass is the mix once for each app on one connection.
func runMix(e *env, name, base string, refs map[string]*ref, p *phase, deadline time.Time, sp spanRef) {
	workers(runtime.GOMAXPROCS(0), p, func(w int, q *phase) {
		c := newMixClient(base, refs, e.seed+uint64(w))
		defer c.close()
		lane := sp.onLane(w + 1)
		for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
			var first time.Duration
			t0 := time.Now()
			for _, a := range e.apps {
				req := ""
				if sp.t != nil {
					req = fmt.Sprintf("%s/%s/%d.%d", name, a.Name, w, pass)
				}
				it := lane.begin("iteration", req)
				first += c.iteration(q, a, it)
				it.end()
			}
			q.first = append(q.first, ms(first))
			q.total = append(q.total, ms(time.Since(t0)))
			q.ops++
		}
	})
}

// warmFixture is one warm train-order server, reached directly.
type warmFixture struct {
	srv  *server.Server
	warm server.CacheStats // the server's counters once set up
	ln   *listener
	refs map[string]*ref
}

func setupWarm(e *env) (fixture, error) {
	ctx := context.Background()
	refs, err := buildRefs(ctx, e.apps, server.OrderTrain)
	if err != nil {
		return nil, err
	}
	srv, ln, err := warmServer(e)
	if err != nil {
		return nil, err
	}
	return &warmFixture{srv: srv, warm: srv.CacheStats(), ln: ln, refs: refs}, nil
}

func (f *warmFixture) close() { f.ln.close() }

func (f *warmFixture) measure(e *env, p *phase, deadline time.Time, sp spanRef) {
	runMix(e, "serve-warm", f.ln.url, f.refs, p, deadline, sp)
}

func (f *warmFixture) finish(p *phase, c map[string]float64) {
	cs := f.srv.CacheStats()
	p.check(cs.Builds == f.warm.Builds && cs.Shed == 0, "warm server ran %d builds and shed %d", cs.Builds-f.warm.Builds, cs.Shed)
	serverCounters(c, cs, f.warm, p.ops)
}

// routeFixture is the same traffic through the router of a prewarmed
// three-node cluster.
type routeFixture struct {
	h    *cluster.Harness
	warm []cluster.NodeStats // the nodes' counters once set up
	ln   *listener
	refs map[string]*ref
}

func setupRoute(e *env) (fixture, error) {
	ctx := context.Background()
	refs, err := buildRefs(ctx, e.apps, server.OrderTrain)
	if err != nil {
		return nil, err
	}
	h, err := cluster.NewHarness(cluster.HarnessConfig{Nodes: 3, Server: server.Config{Order: server.OrderTrain}})
	if err != nil {
		return nil, err
	}
	names := make([]string, len(e.apps))
	for i, a := range e.apps {
		names[i] = a.Name
	}
	if err := h.Prewarm(ctx, names); err != nil {
		h.Close()
		return nil, err
	}
	ln, err := listen(h.Router())
	if err != nil {
		h.Close()
		return nil, err
	}
	f := &routeFixture{h: h, ln: ln, refs: refs}
	// Every node must hold the reference bytes, not only the owners the
	// router will pick.
	var p phase
	for i := range h.Names() {
		c := newMixClient(h.NodeURL(i), refs, 0)
		for _, a := range e.apps {
			c.stream(&p, a, spanRef{})
		}
		c.close()
	}
	if p.failed > 0 {
		f.close()
		return nil, fmt.Errorf("prewarmed nodes differ from the reference build: %v", p.notes)
	}
	f.warm = h.Stats()
	return f, nil
}

func (f *routeFixture) close() {
	f.ln.close()
	f.h.Close()
}

func (f *routeFixture) measure(e *env, p *phase, deadline time.Time, sp spanRef) {
	runMix(e, "cluster-route", f.ln.url, f.refs, p, deadline, sp)
}

func (f *routeFixture) finish(p *phase, c map[string]float64) {
	ops := p.ops
	rs := f.h.Router().Stats()
	builds, fills, fallbacks := f.h.ClusterBuilds()
	keys, nodes := int64(len(f.refs)), int64(len(f.h.Names()))
	p.check(rs.Failovers == 0 && rs.Aborts == 0 && fallbacks == 0,
		"router failed over %d times, aborted %d; %d fallback builds", rs.Failovers, rs.Aborts, fallbacks)
	p.check(builds == keys && fills == keys*(nodes-1), "cluster ran %d builds and %d peer fills for %d keys", builds, fills, keys)
	for i, ns := range f.h.Stats() {
		serverCounters(c, ns.Cache, f.warm[i].Cache, ops)
	}
	c["cluster.proxied"] = float64(rs.Proxied) / float64(ops)
	c["cluster.failovers"] = float64(rs.Failovers)
	c["cluster.aborts"] = float64(rs.Aborts)
	c["cluster.peer_fills"] = float64(fills)
	c["cluster.fallback_builds"] = float64(fallbacks)
}

// coldFixture has nothing warm: every pass boots, for each order, one
// server over a fresh store directory and then coldRestarts more over
// what the first left there.
type coldFixture struct {
	refs  map[string]map[string]*ref // by order
	dir   string
	cache server.CacheStats // summed over every server of the run
}

var coldOrders = []string{server.OrderStatic, server.OrderTrain}

// coldRestarts is how many servers in a row restart over each store
// directory. One restart's six GETs take 3-5 ms and vary by half that
// from one to the next; part_ms is their mean over the restarts.
const coldRestarts = 3

func setupCold(e *env) (fixture, error) {
	f := &coldFixture{refs: make(map[string]map[string]*ref)}
	for _, o := range coldOrders {
		refs, err := buildRefs(context.Background(), e.apps, o)
		if err != nil {
			return nil, err
		}
		f.refs[o] = refs
	}
	var err error
	if f.dir, err = os.MkdirTemp(e.scratch, "serve-cold-"); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *coldFixture) close() { _ = os.RemoveAll(f.dir) } // scratch; the next run makes its own

func (f *coldFixture) measure(e *env, p *phase, deadline time.Time, sp spanRef) {
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		var first, cold, stored time.Duration
		for _, order := range coldOrders {
			dir, err := os.MkdirTemp(f.dir, order+"-")
			if !p.check(err == nil, "store directory: %v", err) {
				return
			}
			req := fmt.Sprintf("serve-cold/%s/%d", order, pass)
			// First server: nothing on disk, so six builds and six puts.
			d, ttfu, cs := f.serveAll(e, p, order, dir, sp.begin("cold", req))
			cold += d
			first += ttfu
			p.check(cs.Builds == int64(len(e.apps)), "%s: cold server ran %d builds", req, cs.Builds)
			// Restarted servers, same directory: six loads each, no build.
			for range coldRestarts {
				d, _, cs = f.serveAll(e, p, order, dir, sp.begin("restart", req))
				stored += d / coldRestarts
				p.check(cs.Builds == 0 && cs.StoreHits == int64(len(e.apps)),
					"%s: restarted server ran %d builds and %d store hits", req, cs.Builds, cs.StoreHits)
			}
			_ = os.RemoveAll(dir) // scratch, and close removes the parent
		}
		p.first = append(p.first, ms(first))
		p.total = append(p.total, ms(cold+stored))
		p.part = append(p.part, ms(stored))
		p.ops++
	}
}

// serveAll boots a server over dir, GETs every app's stream from it
// once and returns the time the GETs took and the sum of their times to
// first unit; booting and closing the server and its listener stay
// outside both.
func (f *coldFixture) serveAll(e *env, p *phase, order, dir string, sp spanRef) (took, first time.Duration, cs server.CacheStats) {
	defer sp.end()
	srv, err := server.New(server.Config{Order: order, StoreDir: dir})
	if !p.check(err == nil, "server over %s: %v", dir, err) {
		return
	}
	ln, err := listen(srv.Handler())
	if !p.check(err == nil, "listener: %v", err) {
		return
	}
	defer ln.close()
	c := newMixClient(ln.url, f.refs[order], 0)
	defer c.close()
	for _, a := range e.apps {
		t0 := time.Now()
		first += c.stream(p, a, sp)
		took += time.Since(t0)
	}
	cs = srv.CacheStats()
	f.cache.Builds += cs.Builds
	f.cache.Hits += cs.Hits
	f.cache.StoreHits += cs.StoreHits
	f.cache.Shed += cs.Shed
	return took, first, cs
}

func (f *coldFixture) finish(p *phase, c map[string]float64) {
	serverCounters(c, f.cache, server.CacheStats{}, p.ops)
}
