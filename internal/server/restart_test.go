package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nonstrict/internal/apps"
	"nonstrict/internal/stream"
)

// crashableServer is the restart-chaos harness: one TCP listener whose
// live connections can be severed at will, fronting an atomically
// swappable *Server. A "crash" abruptly closes every in-flight
// connection; a "restart" replaces the entire Server — fresh cache,
// fresh DiskStore handle — over the same store directory, exactly the
// state a rebooted process would have.
type crashableServer struct {
	t        *testing.T
	storeDir string
	ln       *trackingListener
	hs       *http.Server
	cur      atomic.Pointer[Server]
	restarts atomic.Int64
	// stalls holds, in boot order, the body byte at which each next
	// boot's responses stall (stream.Fault.StallAfter); a boot past its
	// end stalls nowhere.
	stalls []int64
}

type trackingListener struct {
	net.Listener
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

func (l *trackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	if l.conns == nil {
		l.conns = make(map[net.Conn]struct{})
	}
	l.conns[c] = struct{}{}
	l.mu.Unlock()
	return &trackedConn{Conn: c, l: l}, nil
}

func (l *trackingListener) killConns() {
	l.mu.Lock()
	for c := range l.conns {
		c.Close()
	}
	l.conns = nil
	l.mu.Unlock()
}

func (l *trackingListener) forget(c net.Conn) {
	l.mu.Lock()
	delete(l.conns, c)
	l.mu.Unlock()
}

type trackedConn struct {
	net.Conn
	l    *trackingListener
	once sync.Once
}

func (c *trackedConn) Close() error {
	c.once.Do(func() { c.l.forget(c.Conn) })
	return c.Conn.Close()
}

func newCrashableServer(t *testing.T, storeDir string) *crashableServer {
	t.Helper()
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cs := &crashableServer{t: t, storeDir: storeDir, ln: &trackingListener{Listener: raw}}
	cs.boot()
	cs.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cs.cur.Load().Handler().ServeHTTP(w, r)
	})}
	go cs.hs.Serve(cs.ln)
	t.Cleanup(func() { cs.hs.Close() })
	return cs
}

// boot constructs a fresh Server over the store directory — the state a
// newly exec'd process would build. While the stall schedule lasts, its
// responses stall, connection open, at the scheduled byte, so a kill
// there lands with the rest of the body unsent instead of already
// sitting in socket buffers.
func (cs *crashableServer) boot() *Server {
	var f stream.Fault
	if len(cs.stalls) > 0 {
		f.StallAfter, cs.stalls = cs.stalls[0], cs.stalls[1:]
	}
	s, err := New(Config{Apps: []string{benchApp}, StoreDir: cs.storeDir, Fault: f})
	if err != nil {
		cs.t.Fatal(err)
	}
	cs.cur.Store(s)
	return s
}

// crashRestart severs every live connection mid-byte and boots a
// replacement server on the same store directory.
func (cs *crashableServer) crashRestart() {
	cs.boot()
	cs.ln.killConns()
	cs.restarts.Add(1)
}

func (cs *crashableServer) url() string { return "http://" + cs.ln.Addr().String() }

// killingReader triggers a crash-restart as the client's read offset
// crosses each scheduled byte offset — the "seeded offsets" of the
// chaos schedule.
type killingReader struct {
	r       io.Reader
	off     int64
	kills   []int64
	trigger func()
}

func (k *killingReader) Read(p []byte) (int, error) {
	if len(k.kills) > 0 && k.off >= k.kills[0] {
		k.kills = k.kills[1:]
		k.trigger()
	}
	n, err := k.r.Read(p)
	k.off += int64(n)
	return n, err
}

// TestRestartResume is the kill-restart proof: a server dies mid-stream
// (twice, at seeded offsets), restarts on the same store directory, and
// the client transparently resumes with verified Range requests into a
// byte-identical, fully loadable stream — while the restarted server
// performs zero builds.
func TestRestartResume(t *testing.T) {
	for _, seed := range []uint64{1, 0xDEAD} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cs := newCrashableServer(t, t.TempDir())
			ctx := context.Background()

			// Warm server #1: the only build of the whole test. The
			// write-through Put makes the store the restart's source.
			first := cs.cur.Load()
			if _, err := first.Warm(ctx, benchApp); err != nil {
				t.Fatal(err)
			}
			want := first.cache.Peek(Key{App: benchApp, Order: first.Order()})
			if want == nil {
				t.Fatal("warmed artifact not resident")
			}
			if got := first.CacheStats().Builds; got != 1 {
				t.Fatalf("warm ran %d builds, want 1", got)
			}

			// Seeded kill offsets: two crashes inside the stream body.
			size := int64(len(want.Data))
			kills := []int64{
				int64(seed%97+3) * size / 200,    // ~1.5–50% in
				size/2 + int64(seed%31)*size/100, // past the midpoint
			}
			if kills[1] >= size {
				kills[1] = size - 1
			}
			// The server the client meets, and each one that replaces
			// it, stalls its response at the next kill offset (a
			// resume's body starts at the previous one), so every kill
			// severs a connection mid-body.
			cs.stalls = []int64{kills[0], kills[1] - kills[0]}
			cs.boot()

			fc := &stream.FetchClient{JitterSeed: seed, BackoffBase: 5 * time.Millisecond}
			body, err := fc.Open(ctx, cs.url()+"/apps/"+benchApp+"/app")
			if err != nil {
				t.Fatal(err)
			}
			defer body.Close()
			kr := &killingReader{r: body, kills: kills, trigger: cs.crashRestart}

			// Drive the full non-strict loader over the resuming stream:
			// it verifies every unit checksum as bytes arrive, so a
			// mis-spliced resume cannot hide.
			app, err := apps.ByName(benchApp)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			loader := stream.NewLoader(benchApp, app.IR.Main, nil)
			if err := loader.Load(io.TeeReader(kr, &got), nil); err != nil {
				t.Fatalf("load across restarts: %v", err)
			}

			if cs.restarts.Load() != 2 {
				t.Fatalf("schedule fired %d restarts, want 2", cs.restarts.Load())
			}
			if !bytes.Equal(got.Bytes(), want.Data) {
				t.Fatalf("stream across restarts differs: got %d bytes, want %d", got.Len(), len(want.Data))
			}
			if st := fc.Stats(); st.Resumes < 2 {
				t.Fatalf("client resumed %d times, want >= 2", st.Resumes)
			}
			if st := loader.Integrity(); !st.DigestVerified || st.CorruptUnits != 0 {
				t.Fatalf("integrity %+v, want a clean stream with its digest verified", st)
			}
			if _, err := loader.Program(); err != nil {
				t.Fatalf("loaded program incomplete: %v", err)
			}

			// The restarted server: identical validator, zero builds —
			// everything came from the store.
			second := cs.cur.Load()
			st := second.CacheStats()
			if st.Builds != 0 {
				t.Fatalf("restarted server ran %d builds, want 0", st.Builds)
			}
			if st.StoreHits < 1 {
				t.Fatalf("restarted server store_hits = %d, want >= 1", st.StoreHits)
			}
			art := second.cache.Peek(Key{App: benchApp, Order: second.Order()})
			if art == nil {
				t.Fatal("restarted server has no resident artifact")
			}
			if art.ETag != want.ETag {
				t.Fatalf("restart changed ETag: %s -> %s", want.ETag, art.ETag)
			}
		})
	}
}

// TestRestartRevalidation: a client that cached the artifact before the
// crash still revalidates to 304 against the restarted server, because
// the store preserved the content-addressed validator.
func TestRestartRevalidation(t *testing.T) {
	cs := newCrashableServer(t, t.TempDir())
	ctx := context.Background()
	if _, err := cs.cur.Load().Warm(ctx, benchApp); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(cs.url() + "/apps/" + benchApp + "/app")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on first response")
	}

	cs.crashRestart()

	req, err := http.NewRequest(http.MethodGet, cs.url()+"/apps/"+benchApp+"/app", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation after restart = %s, want 304", resp.Status)
	}
	if st := cs.cur.Load().CacheStats(); st.Builds != 0 {
		t.Fatalf("restarted server ran %d builds, want 0", st.Builds)
	}
}

// TestRestartOverStoreFromBeforeBinaryTable boots a server on a store
// directory written before the unit table became binary: a record with
// the old magic whose table is JSON, every checksum and digest in it
// correct. The store verifies a table by digest only, so serving that
// record would hand clients a table they reject. It must instead be
// quarantined and rebuilt once — the stream, and so its ETag, identical
// (a client holding the old ETag revalidates or resumes across the
// upgrade), the table parseable — and the rebuilt record must serve the
// next restart with no build at all.
func TestRestartOverStoreFromBeforeBinaryTable(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	k := Key{App: benchApp, Order: OrderStatic}
	want, err := Build(ctx, k)
	if err != nil {
		t.Fatal(err)
	}

	// The record the parent commit would have written: same stream, the
	// table as JSON, under the v1 magic.
	units, err := stream.ParseTOC(want.TOC)
	if err != nil {
		t.Fatal(err)
	}
	jsonTOC, err := json.Marshal(units)
	if err != nil {
		t.Fatal(err)
	}
	old, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := old.Put(storeArt(k.App, k.Order, want.Data, jsonTOC)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, storeFiles(t, dir)[0])
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(raw, "NSARTv1\n")
	headEnd := len(storeMagic) + 4 + int(binary.LittleEndian.Uint32(raw[len(storeMagic):])) + 4
	binary.LittleEndian.PutUint32(raw[headEnd-4:], crc32.Checksum(raw[:headEnd-4], storeCRCTable))
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.Checksum(raw[:len(raw)-4], storeCRCTable))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	boot := func() *Server {
		s, err := New(Config{Apps: []string{benchApp}, StoreDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	get := func(s *Server, path string) (*http.Response, []byte) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d", path, rec.Code)
		}
		return rec.Result(), rec.Body.Bytes()
	}

	s := boot()
	resp, body := get(s, "/apps/"+benchApp+"/app")
	if resp.Header.Get("ETag") != want.ETag || !bytes.Equal(body, want.Data) {
		t.Fatalf("stream after upgrade: ETag %s, want %s (bytes equal: %v)",
			resp.Header.Get("ETag"), want.ETag, bytes.Equal(body, want.Data))
	}
	resp, body = get(s, "/apps/"+benchApp+"/app.toc")
	if _, err := stream.ParseTOC(body); err != nil {
		t.Fatalf("table after upgrade: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("table served as %q", ct)
	}
	if !bytes.Equal(body, want.TOC) {
		t.Error("table after upgrade differs from a fresh build's")
	}
	if st, cs := s.store.Stats(), s.CacheStats(); st.Quarantined != 1 || cs.Builds != 1 || cs.StoreHits != 0 || st.Puts != 1 {
		t.Fatalf("upgrade boot: store %+v, cache builds=%d store_hits=%d; want 1 quarantine, 1 build, 1 put, 0 store hits",
			st, cs.Builds, cs.StoreHits)
	}

	s = boot()
	if resp, _ := get(s, "/apps/"+benchApp+"/app"); resp.Header.Get("ETag") != want.ETag {
		t.Fatalf("second boot: ETag %s, want %s", resp.Header.Get("ETag"), want.ETag)
	}
	if st, cs := s.store.Stats(), s.CacheStats(); st.Quarantined != 0 || cs.Builds != 0 || cs.StoreHits != 1 {
		t.Fatalf("second boot: store %+v, cache builds=%d store_hits=%d; want 0 quarantines, 0 builds, 1 store hit",
			st, cs.Builds, cs.StoreHits)
	}
}
