package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"nonstrict/internal/server"
	"nonstrict/internal/stream"
	"nonstrict/internal/synth"
)

// clusterApps registers the package's synthetic suite once (the app
// registry is process-global).
var clusterApps = sync.OnceValues(func() ([]string, error) {
	names, _, err := synth.RegisterSuite(0xC1A57E9, 4, synth.Params{Name: "clustertest"})
	return names, err
})

func testApps(t *testing.T) []string {
	t.Helper()
	names, err := clusterApps()
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestClusterColdStormSingleBuild is the acceptance storm: 3 nodes,
// 64 concurrent clients per node, every key cold, every client hitting
// its own node directly. The composed singleflights must collapse the
// whole storm to exactly one pipeline build per (app, order) key
// cluster-wide — non-owners peer-fill, nobody falls back — and every
// node must serve byte-identical artifacts under identical ETags.
func TestClusterColdStormSingleBuild(t *testing.T) {
	apps := testApps(t)
	h, err := NewHarness(HarnessConfig{
		Nodes: 3,
		Seed:  0x57A8,
		// Each node over its own crash-safe store, as deployed: a peer
		// fill is also a store Put.
		Server: server.Config{Apps: apps, Order: server.OrderStatic, StoreDir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	const perNode = 64
	var wg sync.WaitGroup
	errs := make(chan error, 3*perNode)
	bodies := make([][]byte, 3*perNode)
	etags := make([]string, 3*perNode)
	assigned := make([]string, 3*perNode)
	for node := 0; node < 3; node++ {
		for c := 0; c < perNode; c++ {
			idx := node*perNode + c
			app := apps[idx%len(apps)]
			assigned[idx] = app
			url := h.NodeURL(node) + "/apps/" + app + "/app"
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Get(url)
				if err != nil {
					errs <- err
					return
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: %s", url, resp.Status)
					return
				}
				b, err := io.ReadAll(resp.Body)
				if err != nil {
					errs <- err
					return
				}
				bodies[idx], etags[idx] = b, resp.Header.Get("ETag")
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Per-app, every client — whichever node served it — got identical
	// bytes under an identical validator.
	ref := map[string]int{}
	for idx, app := range assigned {
		if j, ok := ref[app]; ok {
			if !bytes.Equal(bodies[idx], bodies[j]) || etags[idx] != etags[j] {
				t.Fatalf("app %s: divergent artifacts across the cluster (etag %s vs %s)", app, etags[idx], etags[j])
			}
		} else {
			ref[app] = idx
		}
	}

	builds, fills, fallbacks := h.ClusterBuilds()
	keys := int64(len(apps))
	if builds != keys {
		t.Fatalf("cluster-wide builds = %d for %d keys; the storm duplicated pipeline work (stats %+v)", builds, keys, h.Stats())
	}
	if fallbacks != 0 {
		t.Fatalf("%d peer fills fell back to local builds with every node healthy", fallbacks)
	}
	if want := keys * 2; fills != want {
		t.Fatalf("peer fills = %d, want %d (every non-owner fills each key exactly once)", fills, want)
	}
}

// TestPeerFillRejectsCorruptTransfer pins the verification boundary: a
// peer that serves corrupted bytes must not get them published or
// persisted — the fill fails closed and the node falls back to a local
// build, still answering its client correctly. A peer still running the
// release whose unit table was JSON is the same case: its table does not
// parse, so a mixed-version cluster degrades to local builds.
func TestPeerFillRejectsCorruptTransfer(t *testing.T) {
	apps := testApps(t)
	ring, err := NewRing([]string{"good", "evil"}, 0, 0xBAD)
	if err != nil {
		t.Fatal(err)
	}
	// Pick an app the OTHER node owns, so our node must peer-fill it.
	var app string
	for _, a := range apps {
		if ring.Owner(server.Key{App: a, Order: server.OrderStatic}.String()) == "evil" {
			app = a
			break
		}
	}
	if app == "" {
		t.Fatal("no test app hashes to the evil node; change the ring seed")
	}
	art, err := server.Build(context.Background(), server.Key{App: app, Order: server.OrderStatic})
	if err != nil {
		t.Fatal(err)
	}
	units, err := stream.ParseTOC(art.TOC)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one byte INSIDE a unit payload, where the checksum sweep
	// must catch it (header bytes are not unit-covered).
	badData := append([]byte(nil), art.Data...)
	badData[units[0].Off] ^= 0xFF
	jsonTOC, err := json.Marshal(units)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		data, toc []byte
	}{
		{"corrupt-payload", badData, art.TOC},
		{"json-table-from-older-peer", art.Data, jsonTOC},
	} {
		t.Run(tc.name, func(t *testing.T) {
			evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/apps/"+app+"/app.toc" {
					w.Write(tc.toc)
					return
				}
				w.Write(tc.data)
			}))
			defer evil.Close()

			node, err := NewNode(NodeConfig{
				Name:  "good",
				Ring:  ring,
				Peers: map[string]string{"evil": evil.URL},
				Server: server.Config{
					Apps:  []string{app},
					Order: server.OrderStatic,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			ns := httptest.NewServer(node.Handler())
			defer ns.Close()

			resp, err := http.Get(ns.URL + "/apps/" + app + "/app")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			got, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, art.Data) {
				t.Fatal("node served bytes that differ from the real artifact")
			}
			if n := node.FallbackBuilds(); n != 1 {
				t.Fatalf("fallback builds = %d, want 1 (corrupt fill must fail closed into a local build)", n)
			}
			cs := node.Server().CacheStats()
			if cs.PeerFills != 0 || cs.Builds != 1 {
				t.Fatalf("counters after corrupt fill: builds=%d peer_fills=%d, want 1/0", cs.Builds, cs.PeerFills)
			}
		})
	}
}

// TestRouterFailoverResume is the owner-death regression the satellite
// pins: a client streams through the router, the owning node is killed
// between the initial 200 and the resume, and the client must finish
// with byte-perfect data by resuming — If-Range pinned to the ETag it
// saw — against the failover replica. No splice, no restart, no error.
func TestRouterFailoverResume(t *testing.T) {
	apps := testApps(t)
	app := apps[0]
	art, err := server.Build(context.Background(), server.Key{App: app, Order: server.OrderStatic})
	if err != nil {
		t.Fatal(err)
	}
	// Pace the stream so the kill lands mid-body: the whole artifact
	// takes ~500ms to serve, and the client reads it through a byte-rate
	// that keeps the connection live when the owner dies.
	rate := len(art.Data) * 2
	h, err := NewHarness(HarnessConfig{
		Nodes:          3,
		Seed:           0xFA11,
		Server:         server.Config{Apps: []string{app}, Order: server.OrderStatic, Rate: rate},
		RouterCooldown: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := h.Prewarm(context.Background(), []string{app}); err != nil {
		t.Fatal(err)
	}
	rs := httptest.NewServer(h.Router())
	defer rs.Close()

	fc := &stream.FetchClient{JitterSeed: 5, BackoffBase: 10 * time.Millisecond}
	body, err := fc.Open(context.Background(), rs.URL+"/apps/"+app+"/app")
	if err != nil {
		t.Fatal(err)
	}
	defer body.Close()

	// Read a prefix, then crash the owner while the rest is in flight.
	prefix := make([]byte, 1024)
	if _, err := io.ReadFull(body, prefix); err != nil {
		t.Fatal(err)
	}
	owner := h.Owner(server.Key{App: app, Order: server.OrderStatic})
	if n := h.Kill(owner); n == 0 {
		t.Fatal("killing the owner severed no connections; the stream was not mid-flight")
	}
	rest, err := io.ReadAll(body)
	if err != nil {
		t.Fatalf("stream did not survive the owner's death: %v", err)
	}
	got := append(prefix, rest...)
	if !bytes.Equal(got, art.Data) {
		t.Fatalf("resumed stream differs from the artifact (%d vs %d bytes)", len(got), len(art.Data))
	}
	if st := fc.Stats(); st.Resumes == 0 {
		t.Fatal("transfer completed without a resume; the kill did not exercise the failover path")
	}
	if st := h.Router().Stats(); st.Aborts == 0 || st.Failovers == 0 {
		t.Fatalf("router stats %+v: expected at least one abort and one failover", st)
	}
}

// TestRouterRefusesCrossGenerationSplice is the adversarial half of
// the same satellite: if the failover target serves a DIFFERENT
// artifact (new ETag, full 200), the client must refuse to splice it
// onto the bytes it already has — ErrArtifactChanged, not silent
// corruption. The ETag pin must survive the router hop.
func TestRouterRefusesCrossGenerationSplice(t *testing.T) {
	apps := testApps(t)
	app := apps[0]
	art, err := server.Build(context.Background(), server.Key{App: app, Order: server.OrderStatic})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"real", "impostor"}
	ring, err := NewRing(names, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	key := server.Key{App: app, Order: server.OrderStatic}

	realSrv, err := server.New(server.Config{Apps: []string{app}, Order: server.OrderStatic, Rate: len(art.Data) * 2})
	if err != nil {
		t.Fatal(err)
	}
	realHTTP := httptest.NewServer(realSrv.Handler())
	defer realHTTP.Close()
	// The impostor ignores Range and If-Range and serves different
	// bytes under a different strong validator — a replica from another
	// generation, or a lying cache.
	impostor := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", `"deadbeefdeadbeef"`)
		w.Write(bytes.Repeat([]byte{0xAB}, len(art.Data)))
	}))
	defer impostor.Close()

	owner := ring.Owner(key.String())
	nodes := map[string]string{}
	for _, n := range names {
		if n == owner {
			nodes[n] = realHTTP.URL
		} else {
			nodes[n] = impostor.URL
		}
	}
	rt, err := NewRouter(RouterConfig{Ring: ring, Nodes: nodes, Order: server.OrderStatic, Cooldown: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt)
	defer rts.Close()

	fc := &stream.FetchClient{JitterSeed: 5, BackoffBase: 5 * time.Millisecond, MaxRetries: 4}
	body, err := fc.Open(context.Background(), rts.URL+"/apps/"+app+"/app")
	if err != nil {
		t.Fatal(err)
	}
	defer body.Close()
	prefix := make([]byte, 512)
	if _, err := io.ReadFull(body, prefix); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(prefix, art.Data[:512]) {
		t.Fatal("prefix did not come from the real artifact")
	}
	// Kill the real backend between the 200 and the resume; the router
	// fails over to the impostor.
	realHTTP.CloseClientConnections()
	realHTTP.Close()
	_, err = io.ReadAll(body)
	if !errors.Is(err, stream.ErrArtifactChanged) {
		t.Fatalf("read across the impostor failover: err=%v, want ErrArtifactChanged (a silent splice would corrupt the stream)", err)
	}
}

// TestRouterRevalidation checks conditional requests survive the hop:
// a client that already holds the artifact revalidates to 304 through
// the router.
func TestRouterRevalidation(t *testing.T) {
	apps := testApps(t)
	app := apps[1]
	h, err := NewHarness(HarnessConfig{
		Nodes:  2,
		Seed:   0x304,
		Server: server.Config{Apps: []string{app}, Order: server.OrderStatic},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := h.Prewarm(context.Background(), []string{app}); err != nil {
		t.Fatal(err)
	}
	rs := httptest.NewServer(h.Router())
	defer rs.Close()

	resp, err := http.Get(rs.URL + "/apps/" + app + "/app")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag through the router")
	}
	req, _ := http.NewRequest(http.MethodGet, rs.URL+"/apps/"+app+"/app", nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation through the router: %s, want 304", resp2.Status)
	}
}
