package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nonstrict/internal/server"
	"nonstrict/internal/stream"
)

// RouterConfig configures the cluster's client-facing proxy.
type RouterConfig struct {
	// Ring decides placement; it must be the same ring the nodes use.
	Ring *Ring
	// Nodes maps every member name to its base URL (http://host:port).
	Nodes map[string]string
	// Order is the cluster's order policy; it completes the (app, order)
	// key the ring hashes and must match the nodes' configured policy.
	// Empty means server.OrderStatic.
	Order string
	// Client issues upstream requests; nil uses a private default (see
	// newHopClient).
	Client *http.Client
	// Cooldown is how long a node that failed to answer is skipped
	// before being retried (default 2s).
	Cooldown time.Duration
	// Now is the health clock; tests override it. nil means time.Now.
	Now func() time.Time
}

// Router fronts the cluster: it derives the (app, order) key from the
// request path, walks the ring's preference list, and streams the
// first healthy node's response through to the client with per-chunk
// flushing, so non-strict delivery keeps overlapping execution with
// transfer across the extra hop.
//
// Failover happens only BETWEEN responses, never inside one: once a
// single body byte has been forwarded, an upstream death aborts the
// client connection instead of continuing from a different node. The
// bytes are identical on every node (deterministic builds), but the
// router does not get to assume that — the fetch client's pinned-ETag
// If-Range resume re-establishes it end to end, with the replica's own
// 206 as proof. A router that spliced internally would be trusting
// what the client can verify.
type Router struct {
	ring     *Ring
	nodes    map[string]string
	order    string
	client   *http.Client
	cooldown time.Duration
	now      func() time.Time

	mu        sync.Mutex
	downUntil map[string]time.Time

	proxied   atomic.Int64
	failovers atomic.Int64
	aborts    atomic.Int64
}

// hopIdleConnsPerHost is how many idle connections a hop client keeps to
// each node. http.Transport's default of 2 makes every third concurrent
// request to a node dial afresh; a router or filling node talks to a
// handful of hosts, so a generous fixed figure costs little.
const hopIdleConnsPerHost = 64

// newHopClient builds the client that router-to-node and node-to-node
// hops default to. Its transport is its own, not the process-wide
// http.DefaultTransport: Proxy stays nil, so a hop inside the cluster
// never honours HTTP(S)_PROXY from the environment; it does not add an
// Accept-Encoding of its own (the client's is forwarded verbatim); its
// idle connections are not shared with anything else in the process, and
// its owner can close them.
func newHopClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		DisableCompression:  true,
		MaxIdleConnsPerHost: hopIdleConnsPerHost,
		IdleConnTimeout:     90 * time.Second,
	}}
}

// NewRouter builds a router over the ring and node addresses.
func NewRouter(c RouterConfig) (*Router, error) {
	if c.Ring == nil {
		return nil, errors.New("cluster: router needs a ring")
	}
	for _, n := range c.Ring.Nodes() {
		if c.Nodes[n] == "" {
			return nil, fmt.Errorf("cluster: router has no address for ring member %q", n)
		}
	}
	if c.Order == "" {
		c.Order = server.OrderStatic
	}
	if c.Client == nil {
		c.Client = newHopClient()
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return &Router{
		ring:      c.Ring,
		nodes:     c.Nodes,
		order:     c.Order,
		client:    c.Client,
		cooldown:  c.Cooldown,
		now:       c.Now,
		downUntil: make(map[string]time.Time),
	}, nil
}

// RouterStats snapshots the router's counters.
type RouterStats struct {
	// Proxied is responses forwarded to clients.
	Proxied int64 `json:"proxied"`
	// Failovers is requests answered by a node other than the key's
	// owner because earlier preferences were down.
	Failovers int64 `json:"failovers"`
	// Aborts is client connections severed because the upstream died
	// mid-body; each one is a client-side resume, never a splice.
	Aborts int64 `json:"aborts"`
}

// Stats returns the router's counters.
func (rt *Router) Stats() RouterStats {
	return RouterStats{
		Proxied:   rt.proxied.Load(),
		Failovers: rt.failovers.Load(),
		Aborts:    rt.aborts.Load(),
	}
}

// ServeHTTP routes one client request.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
		return
	}
	var pref []string
	if app, ok := appFromPath(r.URL.Path); ok {
		k := server.Key{App: app, Order: rt.order}
		pref = rt.ring.Pref(k.String())
	} else {
		// Not an artifact path (/apps index, /metrics, /readyz, ...):
		// placement does not apply, any healthy node can answer.
		pref = rt.ring.Nodes()
	}
	rt.proxy(w, r, pref)
}

// appFromPath extracts the app name from an artifact path
// (/apps/{name}/app or /apps/{name}/app.toc).
func appFromPath(p string) (string, bool) {
	rest, ok := strings.CutPrefix(p, "/apps/")
	if !ok {
		return "", false
	}
	name, tail, ok := strings.Cut(rest, "/")
	if !ok || name == "" || (tail != "app" && tail != "app.toc") {
		return "", false
	}
	return name, true
}

// hopHeaders are the request headers that matter across the hop; the
// conditional ones carry the client's pinned validator through to the
// backend, which is what makes a cross-node resume safe.
var hopHeaders = []string{"Range", "If-Range", "If-None-Match", "If-Modified-Since", "Accept", "Accept-Encoding"}

// proxy tries each preferred node in order until one yields a
// response, then streams it through. A node that cannot be reached (or
// errors before committing a response) is put in cooldown and the next
// preference is tried; an error after body bytes have been forwarded
// aborts the client connection instead.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, pref []string) {
	var lastErr error
	for i, name := range pref {
		if rt.isDown(name) {
			continue
		}
		resp, err := rt.forward(r, rt.nodes[name])
		if err != nil {
			if r.Context().Err() != nil {
				return // the client gave up; nobody is listening
			}
			rt.markDown(name)
			lastErr = err
			continue
		}
		if i > 0 {
			rt.failovers.Add(1)
		}
		rt.stream(w, r, resp, name)
		return
	}
	if lastErr == nil {
		lastErr = errors.New("cluster: every node is in cooldown")
	}
	w.Header().Set("Retry-After", "1")
	http.Error(w, fmt.Sprintf("cluster: no node available: %v", lastErr), http.StatusBadGateway)
}

// forward issues the upstream request for one candidate node.
func (rt *Router) forward(r *http.Request, base string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, base+r.URL.RequestURI(), nil)
	if err != nil {
		return nil, err
	}
	for _, h := range hopHeaders {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	return rt.client.Do(req)
}

// hopByHop reports whether a (canonical) response header describes the
// router's connection to the node rather than the response: forwarded,
// a draining node's "Connection: close" would close the client's
// keep-alive connection to the router. The set is the one
// httputil.ReverseProxy strips.
func hopByHop(key string) bool {
	switch key {
	case "Connection", "Keep-Alive", "Proxy-Connection", "Te", "Trailer", "Transfer-Encoding", "Upgrade":
		return true
	}
	return false
}

// stream forwards one upstream response body with per-chunk flushing.
func (rt *Router) stream(w http.ResponseWriter, r *http.Request, resp *http.Response, name string) {
	defer resp.Body.Close()
	h := w.Header()
	for k, vs := range resp.Header {
		if !hopByHop(k) {
			h[k] = vs
		}
	}
	w.WriteHeader(resp.StatusCode)
	rt.proxied.Add(1)

	fl, _ := w.(http.Flusher)
	bp := stream.GetCopyBuf()
	defer stream.PutCopyBuf(bp) // runs on the abort panic below too
	buf := *bp
	wrote := false
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return // client went away; nothing to salvage
			}
			wrote = true
			if fl != nil {
				fl.Flush()
			}
		}
		if rerr == io.EOF {
			return
		}
		if rerr != nil {
			// The upstream died mid-body. The status line and some bytes
			// are already on the wire, so this response cannot be retried
			// here — and continuing it from another node would splice two
			// upstream streams into one body behind the client's back.
			// Sever the connection instead: the fetch client resumes with
			// a Range pinned to the ETag it saw, and the failover node's
			// 206 (or changed-ETag refusal) decides safety end to end.
			rt.markDown(name)
			if wrote || r.Context().Err() == nil {
				rt.aborts.Add(1)
				panic(http.ErrAbortHandler)
			}
			return
		}
	}
}

// isDown reports whether name is cooling down after a failure.
func (rt *Router) isDown(name string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.now().Before(rt.downUntil[name])
}

// markDown starts name's cooldown.
func (rt *Router) markDown(name string) {
	rt.mu.Lock()
	rt.downUntil[name] = rt.now().Add(rt.cooldown)
	rt.mu.Unlock()
}
