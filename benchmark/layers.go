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
	"nonstrict/internal/cfg"
	"nonstrict/internal/classfile"
	"nonstrict/internal/cluster"
	"nonstrict/internal/experiments"
	"nonstrict/internal/jir"
	"nonstrict/internal/reorder"
	"nonstrict/internal/restructure"
	"nonstrict/internal/server"
	"nonstrict/internal/stream"
	"nonstrict/internal/verify"
	"nonstrict/internal/vm"
)

// walk is one repeat of the layer walk: the benchmark drives each
// pipeline stage itself, through the layer's public functions, on all
// six apps, and sums what each stage cost over the apps.
type walk struct {
	p     *phase
	first bool                     // the repeat that also counts allocations
	dur   map[string]time.Duration // summed over the six apps
	count map[string]float64       // mallocs / bytes / sizes, summed likewise
}

// step runs fn under a child span of sp and adds its time to key.
func (w *walk) step(sp spanRef, key string, fn func()) {
	s := sp.begin(key, "")
	t0 := time.Now()
	fn()
	w.dur[key] += time.Since(t0)
	s.end()
}

// counted is step for a stage whose allocations are reported: on the
// first repeat it runs fn once more between two heap readings and adds
// the mallocs and allocated bytes to key+".allocs" / ".bytes" —
// separately, so reading the heap does not land in the timing.
func (w *walk) counted(sp spanRef, key string, fn func()) {
	w.step(sp, key, fn)
	if !w.first {
		return
	}
	s := sp.begin("alloc count", "")
	defer s.end()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	w.count[key+".allocs"] += float64(m1.Mallocs - m0.Mallocs)
	w.count[key+".bytes"] += float64(m1.TotalAlloc - m0.TotalAlloc)
}

// must records a layer call that failed as a failed check.
func (w *walk) must(err error, what string) bool {
	return w.p.check(err == nil, "layer walk: %s: %v", what, err)
}

// nullWriter is a ResponseWriter that keeps nothing, so a handler can
// be timed without a socket.
type nullWriter struct {
	h      http.Header
	status int
	n      int
}

func (d *nullWriter) Header() http.Header { return d.h }
func (d *nullWriter) WriteHeader(s int)   { d.status = s }
func (d *nullWriter) Flush()              {}
func (d *nullWriter) Write(b []byte) (int, error) {
	d.n += len(b)
	return len(b), nil
}

// serveNull sends one request straight into h.
func serveNull(h http.Handler, path string, hdr ...string) (status, n int) {
	req, _ := http.NewRequest(http.MethodGet, "http://layers"+path, nil) // constant, well-formed URL
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	w := &nullWriter{h: make(http.Header)}
	h.ServeHTTP(w, req)
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.status, w.n
}

// walkLayers is the traced run's second half: every layer timed alone
// from outside, several repeats, the median of each sum reported.
func walkLayers(e *env, tr *tracer, p *phase, out map[string]float64) {
	repeats := 3
	if e.quick {
		repeats = 1
	}
	root := tr.root("layers", "layers", 0)
	defer root.end()
	var reps []map[string]float64
	for r := range repeats {
		w := &walk{p: p, first: r == 0, dur: make(map[string]time.Duration), count: make(map[string]float64)}
		arts := make(map[string]*server.Artifact)
		for _, a := range e.apps {
			req := fmt.Sprintf("layers/%s/%d", a.Name, r)
			sp := root.begin("walk", req)
			if art := w.build(a, sp); art != nil {
				arts[a.Name] = art
				w.client(a, art, sp)
			}
			sp.end()
		}
		if len(arts) == len(e.apps) {
			sp := root.begin("walk", fmt.Sprintf("layers/serving/%d", r))
			w.serving(e, arts, sp)
			if w.first {
				w.cluster(e, arts, sp)
			}
			sp.end()
		}
		reps = append(reps, w.values())
	}
	// A key missing from a repeat (the cluster stages run once) just has
	// fewer samples.
	byKey := make(map[string][]float64)
	for _, vals := range reps {
		for k, v := range vals {
			byKey[k] = append(byKey[k], v)
		}
	}
	for k, vs := range byKey {
		out[k] = median(vs)
	}
}

// build walks the build pipeline stage by stage (static order), then
// times the server's own Build for both orders and the train-order
// extras. It returns the train-order artifact, the one clients fetch.
func (w *walk) build(a *apps.App, sp spanRef) *server.Artifact {
	ctx := context.Background()
	var (
		prog, rp *classfile.Program
		ix       *classfile.Index
		graphs   map[classfile.MethodID]*cfg.Graph
		scg      *reorder.Order
		wr       *stream.Writer
		data     bytes.Buffer
		toc      []byte
		err      error
	)
	pipe := sp.begin("pipeline.scg", "")
	w.counted(pipe, "jir.compile", func() { prog, err = jir.Compile(a.IR) })
	if !w.must(err, a.Name+" jir.Compile") {
		return nil
	}
	w.counted(pipe, "cfg.build", func() {
		ix = prog.IndexMethods()
		graphs, err = cfg.BuildAll(ix)
	})
	if !w.must(err, a.Name+" cfg.BuildAll") {
		return nil
	}
	w.step(pipe, "reorder.static", func() { scg, err = reorder.Static(ix, graphs) })
	if !w.must(err, a.Name+" reorder.Static") {
		return nil
	}
	w.counted(pipe, "restructure.apply", func() { rp = restructure.Apply(prog, ix, scg) })
	w.counted(pipe, "stream.write", func() {
		if wr, err = stream.NewWriter(rp, ix, scg); err == nil {
			data.Reset()
			data.Grow(int(wr.Size()))
			_, err = wr.WriteTo(&data)
		}
	})
	if !w.must(err, a.Name+" stream writer") {
		return nil
	}
	w.step(pipe, "stream.marshal_toc", func() { toc, err = stream.MarshalTOC(wr.TOC()) })
	pipe.end()
	if !w.must(err, a.Name+" stream.MarshalTOC") {
		return nil
	}

	var static, train *server.Artifact
	w.counted(sp, "server.build.scg", func() { static, err = server.Build(ctx, server.Key{App: a.Name, Order: server.OrderStatic}) })
	if !w.must(err, a.Name+" server.Build scg") {
		return nil
	}
	w.p.check(bytes.Equal(static.Data, data.Bytes()) && bytes.Equal(static.TOC, toc),
		"%s: the stage-by-stage walk and server.Build disagree on the scg artifact", a.Name)
	w.count["toc_bytes"] += float64(len(toc))
	w.count["stream_bytes"] += float64(data.Len())

	w.step(sp, "server.build.train", func() { train, err = server.Build(ctx, server.Key{App: a.Name, Order: server.OrderTrain}) })
	if !w.must(err, a.Name+" server.Build train") {
		return nil
	}
	w.step(sp, "experiments.load", func() { _, err = experiments.LoadCtx(ctx, a) })
	w.must(err, a.Name+" experiments.LoadCtx")

	var ln *vm.Linked
	var m, trainM *vm.Machine
	w.step(sp, "vm.link", func() { ln, err = vm.Link(prog) })
	if !w.must(err, a.Name+" vm.Link") {
		return nil
	}
	w.counted(sp, "vm.run", func() { m, err = ln.Run(vm.Options{Args: a.Args(false)}) })
	if !w.must(err, a.Name+" vm run") || !w.must(a.Check(m, false), a.Name+" self-check") {
		return nil
	}
	w.count["instrs"] += float64(m.Steps())
	w.step(sp, "vm.profile_run", func() { trainM, err = ln.Run(vm.Options{Args: a.Args(true)}) })
	if !w.must(err, a.Name+" vm train run") {
		return nil
	}
	w.step(sp, "reorder.from_profile", func() { reorder.FromProfile(ix, trainM.Profile().FirstUse, scg) })
	w.counted(sp, "verify.program", func() { err = verify.VerifyProgram(prog) })
	w.must(err, a.Name+" verify.VerifyProgram")
	return train
}

// client walks what a mobile-code client does with a served artifact,
// without the network: parse the unit table, load the stream, feed one
// demand-fetched unit, checksum.
func (w *walk) client(a *apps.App, art *server.Artifact, sp spanRef) {
	var units []stream.UnitInfo
	var err error
	w.step(sp, "stream.parse_toc", func() { units, err = stream.ParseTOC(art.TOC) })
	if !w.must(err, a.Name+" stream.ParseTOC") {
		return
	}
	w.counted(sp, "stream.loader", func() {
		err = stream.NewLoader(a.Name, a.IR.Main, nil).Load(bytes.NewReader(art.Data), nil)
	})
	w.must(err, a.Name+" Loader.Load")
	w.count["units"] += float64(len(units))
	w.count["train_bytes"] += float64(len(art.Data))

	// A demand fetch installs a body out of order; its class's global
	// unit has to be in first, and stays outside the timing.
	var global, body *stream.UnitInfo
	for i := range units {
		if units[i].Kind == stream.KindBody {
			body = &units[i]
			break
		}
	}
	for i := range units {
		if body != nil && units[i].Kind == stream.KindGlobal && units[i].Class == body.Class {
			global = &units[i]
			break
		}
	}
	if w.p.check(global != nil, "%s: no body unit with a global unit in the table", a.Name) {
		payload := func(u *stream.UnitInfo) []byte { return art.Data[u.Off : u.Off+int64(u.Len)] }
		w.step(sp, "stream.feed_demand", func() {
			l := stream.NewLoader(a.Name, a.IR.Main, nil)
			if _, err = l.FeedDemand(global.Class, stream.KindGlobal, -1, payload(global), global.CRC); err == nil {
				_, err = l.FeedDemand(body.Class, stream.KindBody, body.Body, payload(body), body.CRC)
			}
		})
		w.must(err, a.Name+" Loader.FeedDemand")
	}
	w.step(sp, "stream.crc", func() { stream.ChecksumPayload(art.Data) })

	k := server.Key{App: a.Name, Order: server.OrderTrain}
	w.step(sp, "server.newartifact", func() { _, err = server.NewArtifact(k, art.Data, art.TOC) })
	w.must(err, a.Name+" server.NewArtifact")
}

// handlerReps is how many times each request is sent into a handler
// per app and repeat; single calls are microseconds.
const handlerReps = 20

// serving walks the serving side over the prebuilt artifacts: the disk
// store, a resident cache hit, each request kind straight into the
// handler, and the fetch client against the same handler on a socket.
func (w *walk) serving(e *env, arts map[string]*server.Artifact, sp spanRef) {
	ctx := context.Background()
	prebuilt := func(_ context.Context, k server.Key) (*server.Artifact, error) {
		if art := arts[k.App]; art != nil && k.Order == server.OrderTrain {
			return art, nil
		}
		return nil, fmt.Errorf("no prebuilt artifact for %s", k)
	}

	dir, err := os.MkdirTemp(e.scratch, "layers-store-")
	if !w.must(err, "store directory") {
		return
	}
	defer os.RemoveAll(dir)
	ds, err := server.OpenDiskStore(dir)
	if !w.must(err, "server.OpenDiskStore") {
		return
	}
	cache := server.NewCache(0, prebuilt)
	srv, err := server.New(server.Config{Order: server.OrderTrain, Build: prebuilt})
	if !w.must(err, "server.New") {
		return
	}
	ln, err := listen(srv.Handler())
	if !w.must(err, "listener") {
		return
	}
	defer ln.close()
	fc := &stream.FetchClient{}

	for _, a := range e.apps {
		art := arts[a.Name]
		k := art.Key
		w.step(sp, "server.store_put", func() { err = ds.Put(art) })
		w.must(err, a.Name+" DiskStore.Put")
		w.step(sp, "server.store_get", func() { _, err = ds.Get(k) })
		w.must(err, a.Name+" DiskStore.Get")

		_, _, err = cache.Get(ctx, k)
		w.must(err, a.Name+" Cache.Get")
		w.step(sp, "server.cache_hit", func() {
			for range handlerReps {
				_, _, _ = cache.Get(ctx, k) // resident: cannot fail
			}
		})

		units, err := stream.ParseTOC(art.TOC)
		if !w.must(err, a.Name+" stream.ParseTOC") {
			continue
		}
		u := units[len(units)/2]
		rng := fmt.Sprintf("bytes=%d-%d", u.Off, u.Off+int64(u.Len)-1)
		path := "/apps/" + a.Name + "/app"
		h := srv.Handler()
		serveNull(h, path) // resident before anything is timed
		requests := []struct {
			key, path string
			hdr       []string
			status, n int
		}{
			{"server.handler_stream", path, nil, http.StatusOK, len(art.Data)},
			{"server.handler_range", path, []string{"Range", rng}, http.StatusPartialContent, u.Len},
			{"server.handler_toc", path + ".toc", nil, http.StatusOK, len(art.TOC)},
			{"server.handler_304", path, []string{"If-None-Match", art.ETag}, http.StatusNotModified, 0},
		}
		for _, rq := range requests {
			var status, n int
			w.counted(sp, rq.key, func() {
				for range handlerReps {
					status, n = serveNull(h, rq.path, rq.hdr...)
				}
			})
			w.p.check(status == rq.status && n == rq.n, "%s %s: status %d, %d bytes (want %d, %d)",
				a.Name, rq.key, status, n, rq.status, rq.n)
		}

		url := ln.url + path
		var got int64
		w.counted(sp, "stream.fetch", func() { got, err = fc.Fetch(ctx, url, io.Discard) })
		w.p.check(err == nil && got == int64(len(art.Data)), "%s FetchClient.Fetch: %d bytes, %v", a.Name, got, err)
		w.step(sp, "stream.fetch_range", func() { _, _, err = fc.FetchRangeVerified(ctx, url, u.Off, int64(u.Len), u.CRC) })
		w.must(err, a.Name+" FetchClient.FetchRangeVerified")
	}
}

// cluster walks the cluster layer once: ring lookups, a peer fill per
// app on a cold cluster, then the router's hop over the owning node's
// own handler for the same request.
func (w *walk) cluster(e *env, arts map[string]*server.Artifact, sp spanRef) {
	h, err := cluster.NewHarness(cluster.HarnessConfig{Nodes: 3, Server: server.Config{Order: server.OrderTrain}})
	if !w.must(err, "cluster.NewHarness") {
		return
	}
	defer h.Close()
	ring := h.Ring()
	for _, a := range e.apps {
		art := arts[a.Name]
		key := art.Key.String()
		w.step(sp, "cluster.ring_owner", func() {
			for range handlerReps {
				ring.Owner(key)
			}
		})

		// Warm the owner, then ask a node that is not the owner: it
		// transfers the owner's bytes instead of building.
		owner := h.Owner(art.Key)
		other := (owner + 1) % len(h.Names())
		path := "/apps/" + a.Name + "/app"
		status, _ := serveNull(h.Node(owner).Handler(), path)
		w.p.check(status == http.StatusOK, "%s: owner answered %d", a.Name, status)
		var n int
		w.step(sp, "cluster.peer_fill", func() { status, n = serveNull(h.Node(other).Handler(), path) })
		w.p.check(status == http.StatusOK && n == len(art.Data), "%s: peer fill answered %d with %d bytes", a.Name, status, n)

		w.counted(sp, "cluster.router", func() {
			for range handlerReps {
				status, n = serveNull(h.Router(), path)
			}
		})
		w.p.check(status == http.StatusOK && n == len(art.Data), "%s: router answered %d with %d bytes", a.Name, status, n)
		w.counted(sp, "cluster.direct", func() {
			for range handlerReps {
				serveNull(h.Node(owner).Handler(), path)
			}
		})
	}
	_, fills, fallbacks := h.ClusterBuilds()
	w.p.check(fills == int64(len(e.apps)) && fallbacks == 0, "layer walk: %d peer fills, %d fallback builds", fills, fallbacks)
}

// values turns one repeat's sums into the per-layer metrics.
func (w *walk) values() map[string]float64 {
	d := func(key string) float64 { return float64(w.dur[key]) }
	per := func(key string, unit time.Duration, calls int) float64 {
		return d(key) / float64(unit) / float64(calls)
	}
	mbPerS := func(bytes float64, key string) float64 { return bytes / 1e6 / w.dur[key].Seconds() }
	v := map[string]float64{
		"jir.compile_ms":          per("jir.compile", time.Millisecond, 1),
		"cfg.build_ms":            per("cfg.build", time.Millisecond, 1),
		"reorder.static_ms":       per("reorder.static", time.Millisecond, 1),
		"reorder.from_profile_ms": per("reorder.from_profile", time.Millisecond, 1),
		"experiments.load_ms":     per("experiments.load", time.Millisecond, 1),
		"restructure.apply_ms":    per("restructure.apply", time.Millisecond, 1),
		"stream.write_ms":         per("stream.write", time.Millisecond, 1),
		"stream.marshal_toc_ms":   per("stream.marshal_toc", time.Millisecond, 1),
		"stream.parse_toc_ms":     per("stream.parse_toc", time.Millisecond, 1),
		"stream.fetch_mb_per_s":   mbPerS(w.count["train_bytes"], "stream.fetch"),
		"stream.fetch_range_us":   per("stream.fetch_range", time.Microsecond, 1),
		"stream.loader_mb_per_s":  mbPerS(w.count["train_bytes"], "stream.loader"),
		"stream.feed_demand_us":   per("stream.feed_demand", time.Microsecond, 1),
		"stream.crc_mb_per_s":     mbPerS(w.count["train_bytes"], "stream.crc"),
		"verify.program_ms":       per("verify.program", time.Millisecond, 1),
		"vm.link_ms":              per("vm.link", time.Millisecond, 1),
		"vm.run_minstr_per_s":     w.count["instrs"] / 1e6 / w.dur["vm.run"].Seconds(),
		"vm.profile_run_ms":       per("vm.profile_run", time.Millisecond, 1),
		"server.build_ms.scg":     per("server.build.scg", time.Millisecond, 1),
		"server.build_ms.train":   per("server.build.train", time.Millisecond, 1),
		"server.build_self_ms": (d("server.build.scg") - d("jir.compile") - d("cfg.build") - d("reorder.static") -
			d("restructure.apply") - d("stream.write") - d("stream.marshal_toc")) / float64(time.Millisecond),
		"server.newartifact_ms":    per("server.newartifact", time.Millisecond, 1),
		"server.store_put_ms":      per("server.store_put", time.Millisecond, 1),
		"server.store_get_ms":      per("server.store_get", time.Millisecond, 1),
		"server.cache_hit_ns":      per("server.cache_hit", time.Nanosecond, handlerReps),
		"server.handler_stream_us": per("server.handler_stream", time.Microsecond, handlerReps),
		"server.handler_range_us":  per("server.handler_range", time.Microsecond, handlerReps),
		"server.handler_toc_us":    per("server.handler_toc", time.Microsecond, handlerReps),
		"server.handler_304_us":    per("server.handler_304", time.Microsecond, handlerReps),
	}
	if _, ok := w.dur["cluster.router"]; ok {
		v["cluster.ring_owner_ns"] = per("cluster.ring_owner", time.Nanosecond, handlerReps)
		v["cluster.router_hop_us"] = (d("cluster.router") - d("cluster.direct")) / float64(time.Microsecond) / handlerReps
		v["cluster.peer_fill_ms"] = per("cluster.peer_fill", time.Millisecond, 1)
	}
	if w.first {
		allocs := func(key string, calls float64) float64 { return w.count[key+".allocs"] / calls }
		v["jir.compile_allocs"] = allocs("jir.compile", 1)
		v["cfg.build_allocs"] = allocs("cfg.build", 1)
		v["restructure.apply_allocs"] = allocs("restructure.apply", 1)
		v["stream.write_allocs"] = allocs("stream.write", 1)
		v["stream.toc_bytes_per_stream_byte"] = w.count["toc_bytes"] / w.count["stream_bytes"]
		v["stream.fetch_allocs"] = allocs("stream.fetch", 1)
		v["stream.loader_allocs_per_unit"] = allocs("stream.loader", w.count["units"])
		v["stream.loader_alloc_bytes_per_stream_byte"] = w.count["stream.loader.bytes"] / w.count["train_bytes"]
		v["verify.program_allocs"] = allocs("verify.program", 1)
		v["vm.run_allocs"] = allocs("vm.run", 1)
		v["server.build_allocs.scg"] = allocs("server.build.scg", 1)
		v["server.handler_stream_allocs"] = allocs("server.handler_stream", handlerReps)
		v["server.handler_stream_alloc_bytes"] = w.count["server.handler_stream.bytes"] / handlerReps
		v["server.handler_range_allocs"] = allocs("server.handler_range", handlerReps)
		v["cluster.router_allocs"] = (w.count["cluster.router.allocs"] - w.count["cluster.direct.allocs"]) / handlerReps
		v["cluster.router_alloc_bytes"] = (w.count["cluster.router.bytes"] - w.count["cluster.direct.bytes"]) / handlerReps
	}
	return v
}
