package live

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
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
	mux := http.NewServeMux()
	mux.HandleFunc("/app", func(w http.ResponseWriter, r *http.Request) {
		http.ServeContent(w, r, "app.bin", time.Time{}, bytes.NewReader(p.data))
	})
	mux.HandleFunc("/app.toc", func(w http.ResponseWriter, r *http.Request) {
		http.ServeContent(w, r, "app.toc.json", time.Time{}, bytes.NewReader(p.toc))
	})
	srv := httptest.NewServer(f.Wrap(mux))
	t.Cleanup(srv.Close)
	return srv
}

// fastClient retries without real sleeps.
func fastClient() *stream.FetchClient {
	return &stream.FetchClient{
		RequestTimeout: 5 * time.Second,
		BackoffBase:    time.Microsecond,
		BackoffMax:     time.Millisecond,
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
			if st.StreamBytes+st.DemandBytes < int64(len(p.data)) {
				t.Errorf("only %d stream + %d demand bytes for a %d-byte program",
					st.StreamBytes, st.DemandBytes, len(p.data))
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
	srv := httptest.NewServer(f.Wrap(mux))
	t.Cleanup(srv.Close)
	return srv
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
