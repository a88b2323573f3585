package cluster

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"runtime"
	"strconv"
	"testing"

	"nonstrict/internal/server"
)

// TestDefaultHopClientsArePrivate: a router and a node configured with no
// Client get a transport of their own — not the process-wide default, and
// with no proxy function, so hops inside the cluster ignore HTTP(S)_PROXY.
func TestDefaultHopClientsArePrivate(t *testing.T) {
	ring, err := NewRing([]string{"a"}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(RouterConfig{Ring: ring, Nodes: map[string]string{"a": "http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(NodeConfig{Name: "a", Ring: ring})
	if err != nil {
		t.Fatal(err)
	}
	for who, c := range map[string]*http.Client{"router": rt.client, "node": node.fc.fc.HTTP} {
		tr, ok := c.Transport.(*http.Transport)
		switch {
		case !ok || tr == nil:
			t.Errorf("%s: default client's transport is %T, want its own *http.Transport", who, c.Transport)
		case http.RoundTripper(tr) == http.DefaultTransport:
			t.Errorf("%s: default client shares http.DefaultTransport", who)
		case tr.Proxy != nil:
			t.Errorf("%s: default transport has a proxy function; hops must not honour the environment's proxy", who)
		case tr.MaxIdleConnsPerHost <= 2:
			t.Errorf("%s: default transport keeps %d idle connections per host", who, tr.MaxIdleConnsPerHost)
		}
	}
	if rt.client == node.fc.fc.HTTP {
		t.Error("router and node share one default client")
	}
}

// TestRouterStripsHopByHopHeaders: an upstream's connection-level headers
// stop at the router. A draining node's "Connection: close" must not
// close the client's keep-alive connection to the router, while the
// end-to-end headers and the body go through untouched.
func TestRouterStripsHopByHopHeaders(t *testing.T) {
	body := []byte("0123456789abcdef")
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := w.Header()
		h.Set("Connection", "close")
		h.Set("Keep-Alive", "timeout=1")
		h.Set("Proxy-Connection", "close")
		h.Set("Upgrade", "nonsense")
		h.Set("ETag", `"feedfacefeedface"`)
		h.Set("Content-Range", "bytes 0-15/16")
		h.Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(http.StatusPartialContent)
		w.Write(body)
	}))
	defer upstream.Close()
	ring, err := NewRing([]string{"a"}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(RouterConfig{Ring: ring, Nodes: map[string]string{"a": upstream.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt)
	defer front.Close()

	client := front.Client()
	for i, wantReused := range []bool{false, true} {
		var reused bool
		trace := &httptrace.ClientTrace{GotConn: func(ci httptrace.GotConnInfo) { reused = ci.Reused }}
		req, err := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace),
			http.MethodGet, front.URL+"/apps/x/app", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusPartialContent || string(got) != string(body) {
			t.Errorf("request %d: %s with body %q, want 206 with %q", i, resp.Status, got, body)
		}
		for _, k := range []string{"Connection", "Keep-Alive", "Proxy-Connection", "Upgrade"} {
			if v := resp.Header.Get(k); v != "" {
				t.Errorf("request %d: hop-by-hop header %s: %q reached the client", i, k, v)
			}
		}
		if resp.Close {
			t.Errorf("request %d: the router told the client to close its connection", i)
		}
		for k, want := range map[string]string{
			"ETag": `"feedfacefeedface"`, "Content-Range": "bytes 0-15/16", "Content-Length": "16",
		} {
			if v := resp.Header.Get(k); v != want {
				t.Errorf("request %d: %s = %q through the router, want %q", i, k, v, want)
			}
		}
		if reused != wantReused {
			t.Errorf("request %d: client connection reused = %v, want %v", i, reused, wantReused)
		}
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

// TestRouterAllocsFlatInBodySize pins the hop the way TestDiscardNZeroAlloc
// pins the copy path: the router streams a body through one pooled
// buffer, so forwarding the largest workload's stream (nine 32 KiB
// chunks, each flushed) costs the allocations and the bytes that
// forwarding the smallest one's single chunk does, give or take a
// constant. The count covers the owning node's handler and the transport
// between them, which run in this process too.
func TestRouterAllocsFlatInBodySize(t *testing.T) {
	apps := []string{"Hanoi", "Jess"} // smallest and largest stream
	h, err := NewHarness(HarnessConfig{Nodes: 2, Seed: 0xF1A7, Server: server.Config{Apps: apps, Order: server.OrderStatic}})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := h.Prewarm(context.Background(), apps); err != nil {
		t.Fatal(err)
	}
	var size, allocs, bytes [2]float64
	for i, app := range apps {
		req := httptest.NewRequest(http.MethodGet, "/apps/"+app+"/app", nil)
		serve := func() {
			w := &nullWriter{h: make(http.Header)}
			h.Router().ServeHTTP(w, req)
			if w.status != http.StatusOK || w.n == 0 {
				t.Fatalf("%s through the router: status %d, %d bytes", app, w.status, w.n)
			}
			size[i] = float64(w.n)
		}
		allocs[i], bytes[i] = allocsPerRun(500, serve)
	}
	t.Logf("router: %.0f allocations and %.0f bytes for %.0f body bytes (%s), %.0f and %.0f for %.0f (%s)",
		allocs[0], bytes[0], size[0], apps[0], allocs[1], bytes[1], size[1], apps[1])
	if size[1] < 8*size[0] {
		t.Fatalf("%s is only %.1fx %s; the test needs streams of very different size", apps[1], size[1]/size[0], apps[0])
	}
	if allocs[1] > allocs[0]+16 {
		t.Errorf("router allocations grow with the body: %.0f for %.0f bytes against %.0f for %.0f bytes",
			allocs[1], size[1], allocs[0], size[0])
	}
	if bytes[1] > bytes[0]+8<<10 {
		t.Errorf("router allocated bytes grow with the body: %.0f for %.0f bytes against %.0f for %.0f bytes",
			bytes[1], size[1], bytes[0], size[0])
	}
}
