package live

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nonstrict/internal/apps"
	"nonstrict/internal/cfg"
	"nonstrict/internal/classfile"
	"nonstrict/internal/jir"
	"nonstrict/internal/reorder"
	"nonstrict/internal/restructure"
	"nonstrict/internal/stream"
	"nonstrict/internal/vm"
)

// planned is one benchmark prepared for serving: the restructured
// program, its stream bytes, and its unit table.
type planned struct {
	app  *apps.App
	rp   *classfile.Program
	data []byte
	toc  []byte
}

func plan(t *testing.T, name string) planned {
	t.Helper()
	app, err := apps.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := jir.Compile(app.IR)
	if err != nil {
		t.Fatal(err)
	}
	ix := prog.IndexMethods()
	graphs, err := cfg.BuildAll(ix)
	if err != nil {
		t.Fatal(err)
	}
	ord, err := reorder.Static(ix, graphs)
	if err != nil {
		t.Fatal(err)
	}
	rp := restructure.Apply(prog, ix, ord)
	w, err := stream.NewWriter(rp, ix, ord)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	toc, err := stream.MarshalTOC(w.TOC())
	if err != nil {
		t.Fatal(err)
	}
	return planned{app: app, rp: rp, data: buf.Bytes(), toc: toc}
}

// serve publishes a planned stream and unit table with Range support
// and optional fault injection.
func serve(t *testing.T, p planned, f stream.Fault) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(f.Wrap(appMux(p)))
	t.Cleanup(srv.Close)
	return srv
}

// appMux is serve's handler: the stream at /app, the table at /app.toc.
func appMux(p planned) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/app", func(w http.ResponseWriter, r *http.Request) {
		http.ServeContent(w, r, "app.bin", time.Time{}, bytes.NewReader(p.data))
	})
	mux.HandleFunc("/app.toc", func(w http.ResponseWriter, r *http.Request) {
		http.ServeContent(w, r, "app.toc.json", time.Time{}, bytes.NewReader(p.toc))
	})
	return mux
}

// fastClient retries after microseconds: from a 1µs base, its eight
// retries back off 128µs at most.
func fastClient() *stream.FetchClient {
	return &stream.FetchClient{
		RequestTimeout: 5 * time.Second,
		BackoffBase:    time.Microsecond,
	}
}

// reference runs the program strictly (fully linked, nothing streamed)
// and returns its instruction count.
func reference(t *testing.T, p planned) int64 {
	t.Helper()
	ln, err := vm.Link(p.rp)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ln.Run(vm.Options{Args: p.app.TestArgs, MaxSteps: 5e8})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.app.Check(m, false); err != nil {
		t.Fatal(err)
	}
	return m.Steps()
}

// checkRun asserts an overlapped run produced exactly the strict run's
// behaviour: same output (self-check) and same dynamic instruction
// count.
func checkRun(t *testing.T, p planned, m *vm.Machine, want int64) {
	t.Helper()
	if err := p.app.Check(m, false); err != nil {
		t.Errorf("self-check after overlapped run: %v", err)
	}
	if m.Steps() != want {
		t.Errorf("overlapped run executed %d instructions, strict run %d", m.Steps(), want)
	}
}

// TestLiveOverlappedRun is the headline property, and the -race test of
// the loader/VM handoff: the interpreter executes while the loader
// goroutine is still feeding classes in, and the result is identical to
// a fully-strict run.
func TestLiveOverlappedRun(t *testing.T) {
	for _, name := range []string{"Hanoi", "TestDes"} {
		t.Run(name, func(t *testing.T) {
			p := plan(t, name)
			want := reference(t, p)
			srv := serve(t, p, stream.Fault{})
			m, st, err := Run(context.Background(), Options{
				URL:       srv.URL + "/app",
				TOCURL:    srv.URL + "/app.toc",
				Name:      p.app.Name,
				MainClass: p.rp.MainClass,
				Client:    fastClient(),
				Run:       vm.Options{Args: p.app.TestArgs, MaxSteps: 5e8},
			})
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, p, m, want)
			if len(st.Waits) == 0 {
				t.Error("no first-invocation latencies recorded")
			}
			if st.Waits[0].Method.Name != "main" {
				t.Errorf("first gate crossing was %v, want main", st.Waits[0].Method)
			}
			// The session ends when the program does, so the stream may be
			// cut short of its tail; what the program ran arrived in the
			// stream bytes consumed before the cut or by demand.
			demanded := make(map[classfile.Ref]bool)
			for _, w := range st.Waits {
				demanded[w.Method] = w.Demand
			}
			for _, u := range parseTOC(t, p) {
				if _, ran := demanded[u.Method]; ran && u.Kind == stream.KindBody &&
					u.Off+int64(u.Len) > st.StreamBytes && !demanded[u.Method] {
					t.Errorf("%v ran, but its unit is past the %d stream bytes and was not demanded", u.Method, st.StreamBytes)
				}
			}
			if st.StreamBytes > int64(len(p.data)) ||
				st.Integrity.DigestVerified && st.StreamBytes != int64(len(p.data)) {
				t.Errorf("%d stream bytes of %d, digest verified %v", st.StreamBytes, len(p.data), st.Integrity.DigestVerified)
			}
			if st.TransferDone <= 0 || st.ExecDone <= 0 {
				t.Errorf("missing timeline: exec %v, transfer %v", st.ExecDone, st.TransferDone)
			}
		})
	}
}

// TestLiveNoTOC exercises the degraded mode: without a unit table the
// runtime cannot demand-fetch, so every gate wait rides the main stream.
func TestLiveNoTOC(t *testing.T) {
	p := plan(t, "Hanoi")
	want := reference(t, p)
	srv := serve(t, p, stream.Fault{})
	m, st, err := Run(context.Background(), Options{
		URL:       srv.URL + "/app",
		Name:      p.app.Name,
		MainClass: p.rp.MainClass,
		Client:    fastClient(),
		Run:       vm.Options{Args: p.app.TestArgs, MaxSteps: 5e8},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, p, m, want)
	if st.DemandFetches != 0 {
		t.Errorf("%d demand fetches without a unit table", st.DemandFetches)
	}
}

// TestLiveUnderFaults drops the connection every few hundred bytes; the
// run must still complete, resuming with Range requests.
func TestLiveUnderFaults(t *testing.T) {
	p := plan(t, "Hanoi")
	want := reference(t, p)
	srv := serve(t, p, stream.Fault{DropEvery: 700})
	client := fastClient()
	m, st, err := Run(context.Background(), Options{
		URL:       srv.URL + "/app",
		TOCURL:    srv.URL + "/app.toc",
		Name:      p.app.Name,
		MainClass: p.rp.MainClass,
		Client:    client,
		Run:       vm.Options{Args: p.app.TestArgs, MaxSteps: 5e8},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, p, m, want)
	if st.Transfer.Resumes == 0 {
		t.Error("stream fit in one connection; fault injection did not engage")
	}
}

// crawlServer publishes p like serve, except that the initial
// full-stream request trickles out while Range requests (demand
// fetches, repairs, resumes) are answered at full speed — so whatever
// executes outruns the predicted order.
func crawlServer(t *testing.T, p planned, f stream.Fault) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(f.Wrap(crawlMux(p)))
	t.Cleanup(srv.Close)
	return srv
}

// crawlMux is crawlServer's handler.
func crawlMux(p planned) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/app", func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Range") != "" {
			// Demand fetches (and resumes) at full speed.
			http.ServeContent(w, r, "app.bin", time.Time{}, bytes.NewReader(p.data))
			return
		}
		// The initial full-stream request trickles out.
		fl, _ := w.(http.Flusher)
		for off := 0; off < len(p.data); off += 64 {
			end := off + 64
			if end > len(p.data) {
				end = len(p.data)
			}
			if _, err := w.Write(p.data[off:end]); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
			time.Sleep(500 * time.Microsecond)
		}
	})
	mux.HandleFunc("/app.toc", func(w http.ResponseWriter, r *http.Request) {
		http.ServeContent(w, r, "app.toc.json", time.Time{}, bytes.NewReader(p.toc))
	})
	return mux
}

// TestLiveDemandFetch makes the main stream crawl while demand fetches
// stay fast, so execution outruns the predicted order and must pull
// methods by byte range.
func TestLiveDemandFetch(t *testing.T) {
	p := plan(t, "Hanoi")
	want := reference(t, p)
	srv := crawlServer(t, p, stream.Fault{})

	m, st, err := Run(context.Background(), Options{
		URL:       srv.URL + "/app",
		TOCURL:    srv.URL + "/app.toc",
		Name:      p.app.Name,
		MainClass: p.rp.MainClass,
		Client:    fastClient(),
		Run:       vm.Options{Args: p.app.TestArgs, MaxSteps: 5e8},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, p, m, want)
	if st.DemandFetches == 0 {
		t.Error("execution outran a trickling stream without demand-fetching")
	}
	if st.Mispredicts == 0 {
		t.Error("demand fetches fired but no mispredicts counted")
	}
	var demanded int
	for _, wt := range st.Waits {
		if wt.Demand {
			demanded++
		}
	}
	if demanded == 0 {
		t.Error("no first invocation marked as demand-satisfied")
	}
}

// TestLiveCutFreesServer: execution outruns a crawling stream, so the
// program ends with the stream's tail still in flight. Run must leave
// nothing behind when it returns: the transfer loop and every demand
// fetch have exited, and every /app handler, the full-stream one whose
// client cut it included, returns within a second. The cut is not a
// failed attempt, so the fetch client counts no retry for it.
func TestLiveCutFreesServer(t *testing.T) {
	p := plan(t, "Hanoi")
	want := reference(t, p)
	mux := crawlMux(p)
	var started, returned atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/app" {
			started.Add(1)
			defer returned.Add(1)
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	m, st, err := Run(context.Background(), Options{
		URL:       srv.URL + "/app",
		TOCURL:    srv.URL + "/app.toc",
		Name:      p.app.Name,
		MainClass: p.rp.MainClass,
		Client:    fastClient(),
		Run:       vm.Options{Args: p.app.TestArgs, MaxSteps: 5e8},
	})
	ran := time.Now()
	if err != nil {
		t.Fatal(err)
	}
	if g := sessionGoroutines(); g != "" {
		t.Errorf("session goroutines still running after Run returned:\n%s", g)
	}
	checkRun(t, p, m, want)
	if st.Transfer.Retries != 0 {
		t.Errorf("%d retries against a fault-free server", st.Transfer.Retries)
	}
	for returned.Load() < started.Load() {
		if time.Since(ran) > time.Second {
			t.Fatalf("%d of %d /app handlers still running 1s after Run returned", started.Load()-returned.Load(), started.Load())
		}
		time.Sleep(time.Millisecond)
	}
	t.Logf("%d of %d stream bytes before the cut, %d demand fetches", st.StreamBytes, len(p.data), st.DemandFetches)
}

// sessionGoroutines returns the stacks of the goroutines running Session
// code, empty when there are none.
func sessionGoroutines() string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var live []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "internal/live.(*Session)") {
			live = append(live, g)
		}
	}
	return strings.Join(live, "\n\n")
}

// TestLiveConcurrentRuns hammers the shared FetchClient and independent
// runtimes from several goroutines — with -race this doubles as a check
// that nothing leaks across runs.
func TestLiveConcurrentRuns(t *testing.T) {
	p := plan(t, "Hanoi")
	want := reference(t, p)
	srv := serve(t, p, stream.Fault{DropEvery: 1500})
	client := fastClient()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, _, err := Run(context.Background(), Options{
				URL:       srv.URL + "/app",
				TOCURL:    srv.URL + "/app.toc",
				Name:      p.app.Name,
				MainClass: p.rp.MainClass,
				Client:    client,
				Run:       vm.Options{Args: p.app.TestArgs, MaxSteps: 5e8},
			})
			if err == nil && m.Steps() != want {
				err = p.app.Check(m, false)
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
