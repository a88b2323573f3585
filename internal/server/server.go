// Package server is the multi-tenant non-strict code server: it serves
// every registered benchmark as an interleaved virtual file under
// /apps/{name}/app (with its unit table at /apps/{name}/app.toc),
// backed by a content-addressed artifact cache. The expensive
// compile → predict → restructure → serialize pipeline runs exactly
// once per (app, order-policy) key — concurrent cold requests
// singleflight onto one build — and the hot byte-serving path allocates
// per request, never per byte: every response streams slices of the same
// immutable cached arrays through one pooled copy buffer, validated by
// content-addressed ETags so repeat clients revalidate to 304 and pay
// nothing at all.
//
// Layering, outermost first: request counting (so /metrics sees every
// body byte that went on the wire, faults included) wraps the fault
// layer (so chaos schedules apply to cache hits exactly as to cold
// builds) wraps the cached app mux. /metrics sits outside both — the
// instrument watching a chaos run must never be corrupted by it.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"nonstrict/internal/apps"
	"nonstrict/internal/pipeline"
	"nonstrict/internal/stream"
)

// Order policies: how the served stream is restructured. The policy is
// part of the cache key — each policy is a distinct artifact.
const (
	// OrderStatic is the §4.1 static call-graph first-use prediction:
	// computable from the program alone, no profiling run.
	OrderStatic = pipeline.OrderStatic
	// OrderTrain and OrderTest are the §4.2 profile-guided predictions;
	// building one executes the benchmark once on the corresponding
	// input, which is exactly the kind of cost the cache exists to pay
	// once.
	OrderTrain = pipeline.OrderTrain
	OrderTest  = pipeline.OrderTest
)

// Config configures one code server.
type Config struct {
	// Apps is the benchmark names to mount under /apps/{name}/...; nil
	// mounts every registered benchmark.
	Apps []string
	// DefaultApp, when set, additionally aliases /app and /app.toc to
	// the named benchmark — the single-tenant paths older clients use.
	DefaultApp string
	// Order is the restructuring policy (OrderStatic, OrderTrain,
	// OrderTest); empty means OrderStatic.
	Order string
	// CacheBytes bounds the artifact cache (0 = DefaultCacheBytes).
	CacheBytes int64
	// Rate throttles stream bodies to N bytes/second (0 = unthrottled).
	Rate int
	// Fault is the chaos layer wrapped around every app request —
	// including cache hits. The zero value injects nothing.
	Fault stream.Fault
	// StoreDir, when set, backs the cache with a crash-safe DiskStore at
	// that directory: builds are written through, misses consult it, and
	// a restarted server on the same directory serves byte-identical
	// artifacts without rebuilding.
	StoreDir string
	// Store, when non-nil, backs the cache directly (overrides
	// StoreDir). Tests use it to inject crash hooks.
	Store Store
	// Admit is the overload policy (see AdmitConfig); the zero value
	// disables admission control.
	Admit AdmitConfig
	// Build, when non-nil, replaces the default artifact pipeline (the
	// package-level Build) as the cache's miss path. Cluster nodes use it
	// to peer-fill keys owned by another shard instead of rebuilding
	// locally; everything downstream — singleflight, admission, store
	// write-through — applies to the override exactly as to real builds.
	Build func(ctx context.Context, k Key) (*Artifact, error)
}

// Server serves restructured virtual files for many apps from one
// artifact cache.
type Server struct {
	order    string
	rate     int
	apps     []string
	mounted  map[string]bool
	cache    *Cache
	store    Store
	metrics  *Metrics
	handler  http.Handler
	draining atomic.Bool
}

// New builds a server. The cache starts cold; use Warm to prebuild.
func New(c Config) (*Server, error) {
	switch c.Order {
	case "":
		c.Order = OrderStatic
	case OrderStatic, OrderTrain, OrderTest:
	default:
		return nil, fmt.Errorf("server: unknown order policy %q (want %s, %s, or %s)",
			c.Order, OrderStatic, OrderTrain, OrderTest)
	}
	names := c.Apps
	if names == nil {
		names = apps.Names()
	}
	s := &Server{
		order:   c.Order,
		rate:    c.Rate,
		apps:    names,
		mounted: make(map[string]bool, len(names)),
	}
	for _, n := range names {
		if err := apps.Check(n); err != nil {
			return nil, err
		}
		s.mounted[n] = true
	}
	if c.DefaultApp != "" && !s.mounted[c.DefaultApp] {
		if err := apps.Check(c.DefaultApp); err != nil {
			return nil, err
		}
		s.apps = append(s.apps, c.DefaultApp)
		s.mounted[c.DefaultApp] = true
	}
	build := Build
	if c.Build != nil {
		build = c.Build
	}
	s.cache = NewCache(c.CacheBytes, build)
	s.cache.Admit = c.Admit
	switch {
	case c.Store != nil:
		s.store = c.Store
	case c.StoreDir != "":
		ds, err := OpenDiskStore(c.StoreDir)
		if err != nil {
			return nil, err
		}
		s.store = ds
	}
	s.cache.Store = s.store
	s.metrics = newMetrics(s.cache)
	s.metrics.store = s.store
	s.metrics.draining = &s.draining

	mux := http.NewServeMux()
	mux.HandleFunc("/apps", s.handleIndex)
	mux.HandleFunc("/apps/{name}/app", func(w http.ResponseWriter, r *http.Request) {
		s.serveArtifact(w, r, r.PathValue("name"), false)
	})
	mux.HandleFunc("/apps/{name}/app.toc", func(w http.ResponseWriter, r *http.Request) {
		s.serveArtifact(w, r, r.PathValue("name"), true)
	})
	if c.DefaultApp != "" {
		mux.HandleFunc("/app", func(w http.ResponseWriter, r *http.Request) {
			s.serveArtifact(w, r, c.DefaultApp, false)
		})
		mux.HandleFunc("/app.toc", func(w http.ResponseWriter, r *http.Request) {
			s.serveArtifact(w, r, c.DefaultApp, true)
		})
	}
	fault := c.Fault
	fault.Counters = s.metrics.faults
	outer := http.NewServeMux()
	outer.Handle("/metrics", s.metrics.handler())
	// Liveness vs readiness: /healthz answers 200 for as long as the
	// process can answer at all (a draining server is alive); /readyz
	// flips to 503 the moment drain begins, so load balancers stop
	// routing new work while in-flight streams finish. Both sit outside
	// the fault layer — probes must never be chaos-injected.
	outer.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	outer.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.draining.Load() {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	outer.Handle("/", s.metrics.wrap(fault.Wrap(mux)))
	s.handler = outer
	return s, nil
}

// Handler returns the server's root handler, ready to mount in an
// http.Server.
func (s *Server) Handler() http.Handler { return s.handler }

// Apps returns the mounted benchmark names.
func (s *Server) Apps() []string { return append([]string(nil), s.apps...) }

// Order returns the active order policy.
func (s *Server) Order() string { return s.order }

// CacheStats snapshots the artifact cache counters.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// Warm builds (or finds) the named app's artifact and returns its stream
// size — the serve command uses it to prebuild its default app so the
// first real client never pays the cold build. Like a served response,
// it returns only once the artifact's store record is committed.
func (s *Server) Warm(ctx context.Context, name string) (int64, error) {
	if !s.mounted[name] {
		return 0, fmt.Errorf("server: app %q is not mounted", name)
	}
	art, _, err := s.cache.Get(ctx, Key{App: name, Order: s.order})
	if err != nil {
		return 0, err
	}
	if err := art.waitDurable(ctx); err != nil {
		return 0, err
	}
	return int64(len(art.Data)), nil
}

// serveArtifact is the hot path: resolve the artifact (cache hit in the
// steady state), set the content-addressed validators, and stream the
// shared immutable bytes. http.ServeContent supplies Range (206) and
// If-None-Match (304) handling against the reader and ETag we hand it;
// the body goes out through the stream pool's copy buffer (pooledCopy),
// so a warm response allocates per request, never per byte. An artifact
// whose store write-back is still running is served all but its last
// byte at once; the last byte waits for the write-back (heldTail), so a
// client holding a complete response knows the record is committed.
func (s *Server) serveArtifact(w http.ResponseWriter, r *http.Request, name string, toc bool) {
	if !s.mounted[name] {
		http.NotFound(w, r)
		return
	}
	k := Key{App: name, Order: s.order}
	// Range requests are demand fetches: the client is executing and
	// stalled on exactly these bytes, so they take the priority lane
	// through build admission.
	priority := r.Header.Get("Range") != ""
	if s.draining.Load() && s.cache.Peek(k) == nil {
		// Draining: finish what is resident, start nothing new. A build
		// begun now could outlive the drain deadline and be cut anyway.
		shedResponse(w, time.Second)
		return
	}
	get := s.cache.Get
	if priority {
		get = s.cache.GetPriority
	}
	art, _, err := get(r.Context(), k)
	if err != nil {
		if r.Context().Err() != nil {
			return // client gone; nothing useful to write
		}
		var shed *ShedError
		if errors.As(err, &shed) {
			shedResponse(w, shed.RetryAfter)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	data, etag := art.Data, art.ETag
	if toc {
		data, etag = art.TOC, art.TOCETag
	}
	h := w.Header()
	h.Set("ETag", etag)
	h.Set("Cache-Control", "public, max-age=31536000, immutable")
	h.Set("Content-Type", "application/octet-stream")
	rw := w
	if s.rate > 0 {
		rw = &pacedWriter{rw: w, rate: s.rate, ctx: r.Context()}
	}
	var body http.ResponseWriter = pooledCopy{rw}
	if art.persisting() {
		body = heldTail{rw, art, r.Context()}
	}
	http.ServeContent(body, r, "", time.Time{}, bytes.NewReader(data))
}

// pooledCopy is the writer serveArtifact hands http.ServeContent. The
// body leaves ServeContent through io.CopyN, whose io.LimitedReader
// hides the bytes.Reader's WriterTo; with no ReaderFrom on the writer
// either, io.Copy would allocate a fresh min(32 KiB, body) buffer for
// every response. ReadFrom copies through the pooled buffer the router
// and the fetch client already share instead.
type pooledCopy struct{ http.ResponseWriter }

func (p pooledCopy) ReadFrom(src io.Reader) (int64, error) {
	bp := stream.GetCopyBuf()
	defer stream.PutCopyBuf(bp)
	return io.CopyBuffer(p.ResponseWriter, src, *bp)
}

// heldTail is pooledCopy for an artifact whose store write-back is still
// running: it writes and flushes all of the body but its last byte, then
// waits for the write-back before writing that byte. http.ServeContent
// hands a single-part body over as an io.LimitedReader of exactly the
// body's length; any other source (a multipart range body) is held whole.
type heldTail struct {
	http.ResponseWriter
	art *Artifact
	ctx context.Context
}

func (h heldTail) ReadFrom(src io.Reader) (n int64, err error) {
	out := pooledCopy{h.ResponseWriter}
	if lr, ok := src.(*io.LimitedReader); ok && lr.N > 1 {
		lr.N--
		n, err = out.ReadFrom(lr)
		lr.N++
		if err != nil {
			return n, err
		}
		if fl, ok := h.ResponseWriter.(http.Flusher); ok {
			fl.Flush()
		}
	}
	if err := h.art.waitDurable(h.ctx); err != nil {
		return n, err
	}
	m, err := out.ReadFrom(src)
	return n + m, err
}

// shedResponse writes the load-shedding answer: 503 with a Retry-After
// hint (whole seconds, rounded up, at least 1) that FetchClient honors
// in place of its computed backoff.
func shedResponse(w http.ResponseWriter, after time.Duration) {
	secs := int((after + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	http.Error(w, "server overloaded; retry later", http.StatusServiceUnavailable)
}

// BeginDrain flips the server into drain mode: /readyz starts failing,
// and app requests that would need a build are shed — only resident
// artifacts are served while in-flight streams finish. It is
// irreversible for the life of the process and safe to call more than
// once.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// ActiveStreams reports app-request bodies currently being written —
// the streams a drain is waiting on.
func (s *Server) ActiveStreams() int64 { return s.metrics.activeStreams.Load() }

// Requests reports the total requests counted so far.
func (s *Server) Requests() int64 { return s.metrics.Requests() }

// Store returns the persistent artifact store backing the cache, or nil.
func (s *Server) Store() Store { return s.store }

// appStatus is one row of the /apps index.
type appStatus struct {
	Name  string `json:"name"`
	Order string `json:"order"`
	// Built reports whether the artifact is resident right now; Size,
	// Units, and ETag are present only when it is.
	Built bool   `json:"built"`
	Size  int64  `json:"size,omitempty"`
	Units int    `json:"units,omitempty"`
	ETag  string `json:"etag,omitempty"`
	URL   string `json:"url"`
}

// handleIndex lists the mounted apps and their cache residency as JSON —
// the discovery endpoint for multi-tenant clients.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	out := make([]appStatus, 0, len(s.apps))
	for _, n := range s.apps {
		st := appStatus{Name: n, Order: s.order, URL: "/apps/" + n + "/app"}
		if art := s.cache.Peek(Key{App: n, Order: s.order}); art != nil {
			st.Built = true
			st.Size = int64(len(art.Data))
			st.Units = art.Units
			st.ETag = art.ETag
		}
		out = append(out, st)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// Build runs the artifact pipeline for one key — pipeline.Build's stages
// for the key's order policy — and derives the content-addressed
// validators. This is the expensive function the cache exists to run
// exactly once per key.
func Build(ctx context.Context, k Key) (*Artifact, error) {
	app, err := apps.ByName(k.App)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	st, err := pipeline.Build(ctx, app, k.Order)
	if err != nil {
		return nil, err
	}
	took := time.Since(start)
	return &Artifact{
		Key:       k,
		Data:      st.Data,
		TOC:       st.TOC,
		ETag:      digestOf(st.Data).etag(),
		TOCETag:   digestOf(st.TOC).etag(),
		Units:     len(st.Units),
		BuildTime: took,
		Stages:    st.Stages,
	}, nil
}

// NewArtifact assembles a servable Artifact from raw stream and unit-
// table bytes obtained outside the local build pipeline — the cluster
// peer-fill path. Trust is re-established locally, not inherited from
// the wire: the unit table must parse and describe in-bounds ranges,
// and every unit's payload must match its table checksum, so a
// truncated, corrupted, or substituted transfer can never be published
// to clients or persisted to the store. The validators are re-derived
// from the verified bytes; because builds are deterministic per key,
// they equal the owner's ETags, which is what lets a client resume a
// stream across nodes with If-Range.
func NewArtifact(k Key, data, toc []byte) (*Artifact, error) {
	units, err := stream.ParseTOC(toc)
	if err != nil {
		return nil, fmt.Errorf("server: artifact %s: %w", k, err)
	}
	for i, u := range units {
		end := u.Off + int64(u.Len)
		if u.Off < 0 || end > int64(len(data)) {
			return nil, fmt.Errorf("server: artifact %s: unit %d range [%d,%d) outside %d stream bytes",
				k, i, u.Off, end, len(data))
		}
		if got := stream.ChecksumPayload(data[u.Off:end]); got != u.CRC {
			return nil, fmt.Errorf("server: artifact %s: unit %d checksum %08x, table promised %08x",
				k, i, got, u.CRC)
		}
	}
	return &Artifact{
		Key:     k,
		Data:    data,
		TOC:     toc,
		ETag:    digestOf(data).etag(),
		TOCETag: digestOf(toc).etag(),
		Units:   len(units),
	}, nil
}

// pacedWriter throttles the response body to simulate a slow link,
// flushing each chunk so the client sees steady progress. Its sleeps
// watch the request context: at fleet scale a slow pace outlives many
// clients, and a sleep that ignores cancellation pins one server
// goroutine (plus the response buffers it references) per dead client
// for however long the remaining pace schedule runs. One timer paces
// the whole response, re-armed per chunk, so a paced body costs no more
// garbage than an unpaced one.
type pacedWriter struct {
	rw    http.ResponseWriter
	rate  int
	ctx   context.Context
	timer *time.Timer
}

func (p *pacedWriter) Header() http.Header { return p.rw.Header() }

func (p *pacedWriter) WriteHeader(code int) { p.rw.WriteHeader(code) }

func (p *pacedWriter) Write(b []byte) (int, error) {
	const chunk = 512
	fl, _ := p.rw.(http.Flusher)
	written := 0
	for off := 0; off < len(b); off += chunk {
		end := off + chunk
		if end > len(b) {
			end = len(b)
		}
		n, err := p.rw.Write(b[off:end])
		written += n
		if err != nil {
			return written, err
		}
		if fl != nil {
			fl.Flush()
		}
		d := time.Duration(n) * time.Second / time.Duration(p.rate)
		if p.timer == nil {
			p.timer = time.NewTimer(d)
		} else {
			p.timer.Reset(d)
		}
		select {
		case <-p.timer.C:
		case <-p.ctx.Done():
			p.timer.Stop()
			return written, p.ctx.Err()
		}
	}
	return written, nil
}
