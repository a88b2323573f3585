package live

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nonstrict/internal/classfile"
	"nonstrict/internal/obs"
	"nonstrict/internal/stream"
	"nonstrict/internal/vm"
)

// needTrace is the method first-use order of a strict test-input run:
// what the VM would ask the gate for, in the order it would ask.
func needTrace(t *testing.T, p planned) []classfile.Ref {
	t.Helper()
	ln, err := vm.Link(p.rp)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ln.Run(vm.Options{Args: p.app.TestArgs, MaxSteps: 5e8})
	if err != nil {
		t.Fatal(err)
	}
	ix := ln.Index()
	var needs []classfile.Ref
	for _, id := range m.Profile().FirstUse {
		needs = append(needs, ix.Ref(id))
	}
	return needs
}

// replay drives a session the way the fleet does: no VM, no install
// step, just the need trace through the gate.
func replay(t *testing.T, p planned, needs []classfile.Ref, srv *httptest.Server, timeout time.Duration) (*Stats, error, time.Duration) {
	t.Helper()
	s, err := Open(context.Background(), Options{
		URL:         srv.URL + "/app",
		TOCURL:      srv.URL + "/app.toc",
		Name:        p.app.Name,
		MainClass:   p.rp.MainClass,
		Client:      fastClient(),
		GateTimeout: timeout,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range needs {
		if err := s.AwaitMethod(ref); err != nil {
			s.Close()
			t.Fatalf("need %v: %v", ref, err)
		}
	}
	began := time.Now()
	st, err := s.Close()
	return st, err, time.Since(began)
}

// TestSessionReplayWithoutVM pins the seam the fleet stands on: a
// Session with no executor behind it releases every need of a trace,
// heals a corrupt main-stream unit through the repair hook, accounts a
// mispredict for exactly the crossings it demand-fetched, and ends when
// the trace does: a never-needed tail of the stream that stalls for
// good costs Close nothing.
func TestSessionReplayWithoutVM(t *testing.T) {
	p := plan(t, "Hanoi")
	needs := needTrace(t, p)

	t.Run("corruption", func(t *testing.T) {
		// The stream crawls, so the replay outruns it and demand-fetches.
		srv := crawlServer(t, p, stream.Fault{CorruptEvery: corruptTarget(t, p, needs), Seed: 31})
		st, err, _ := replay(t, p, needs, srv, 10*time.Second)
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
		if len(st.Waits) != len(needs) {
			t.Fatalf("%d crossings recorded for %d needs", len(st.Waits), len(needs))
		}
		demanded := 0
		for i, w := range st.Waits {
			if w.Method != needs[i] {
				t.Fatalf("crossing %d is %v, want %v", i, w.Method, needs[i])
			}
			if w.Transfer+w.Repair+w.Gate != w.Wait {
				t.Errorf("%v: %v+%v+%v does not sum to the wait %v", w.Method, w.Transfer, w.Repair, w.Gate, w.Wait)
			}
			if w.Demand {
				demanded++
			}
		}
		if demanded == 0 || st.DemandFetches < demanded {
			t.Errorf("the replay outran a crawling stream with %d demanded crossings and %d range requests", demanded, st.DemandFetches)
		}
		if st.Mispredicts != demanded {
			t.Errorf("Mispredicts = %d, but %d crossings were demand-fetched", st.Mispredicts, demanded)
		}
		if st.Integrity.Repaired == 0 || st.Integrity.Repaired != st.Integrity.CorruptUnits {
			t.Errorf("corrupt unit not healed: %+v", st.Integrity)
		}
		// The crawling stream is cut wherever it stands when the trace
		// ends; only a stream that completed first had its digest checked.
		if st.StreamBytes > int64(len(p.data)) ||
			st.Integrity.DigestVerified && st.StreamBytes != int64(len(p.data)) {
			t.Errorf("%d stream bytes of %d, digest verified %v", st.StreamBytes, len(p.data), st.Integrity.DigestVerified)
		}
		if st.Degraded != "" {
			t.Errorf("degraded: %s", st.Degraded)
		}
		if st.Classes == 0 || st.Methods < len(needs) {
			t.Errorf("%d classes, %d methods arrived for %d needs", st.Classes, st.Methods, len(needs))
		}
	})

	t.Run("stalled-tail", func(t *testing.T) {
		// The stream stalls for good just past the last unit the trace
		// needs (further in than any unit is long, so range replies never
		// reach the stall): execution finishes, and Close cuts the stalled
		// tail at once — it neither waits out the stall nor reports it.
		var stall int64
		for _, u := range parseTOC(t, p) {
			for _, n := range needs {
				if u.Method == n {
					stall = max(stall, u.Off+int64(u.Len)+1)
				}
			}
		}
		if stall >= int64(len(p.data)) {
			t.Fatal("the trace needs the stream's last unit; there is no tail to stall")
		}
		st, err, took := replay(t, p, needs, serve(t, p, stream.Fault{StallAfter: stall, Seed: 32}), 300*time.Millisecond)
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
		if took >= 100*time.Millisecond {
			t.Errorf("Close took %v after the trace ended, want the cut to cost nothing", took)
		}
		if len(st.Waits) != len(needs) || st.StreamBytes >= int64(len(p.data)) {
			t.Errorf("%d of %d needs crossed, %d of %d stream bytes", len(st.Waits), len(needs), st.StreamBytes, len(p.data))
		}
	})
}

// prefixThenStall answers the full-stream request with the stream's
// first cut bytes and then holds the connection open, silent, until the
// client goes away. Range requests are served faithfully and counted.
func prefixThenStall(p planned, cut int, ranges *atomic.Int64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Range") != "" {
			ranges.Add(1)
			http.ServeContent(w, r, "app.bin", time.Time{}, bytes.NewReader(p.data))
			return
		}
		w.Write(p.data[:cut])
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	}
}

// heldTable answers the unit-table request with toc once release is
// closed (a nil toc is a 404), or gives up when the client goes away.
func heldTable(toc []byte, release <-chan struct{}) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		if toc == nil {
			http.NotFound(w, r)
			return
		}
		http.ServeContent(w, r, "app.toc", time.Time{}, bytes.NewReader(toc))
	}
}

// secondUnit is where the stream's third unit's header starts: a prefix
// that carries the entry class's global data and its entry method.
func secondUnit(t *testing.T, p planned) int {
	t.Helper()
	return int(parseTOC(t, p)[2].Off) - stream.UnitHeaderSize
}

// TestSessionFirstUseBeforeTable: the unit table is fetched beside the
// stream, not in front of it. The table's handler answers only once the
// VM has invoked its first method, so a session that fetched the table
// before opening the stream would wait out the context's deadline here;
// this one runs, and runs exactly the strict program.
func TestSessionFirstUseBeforeTable(t *testing.T) {
	p := plan(t, "Hanoi")
	want := reference(t, p)
	firstUse := make(chan struct{})
	var once sync.Once
	mux := http.NewServeMux()
	mux.HandleFunc("/app", func(w http.ResponseWriter, r *http.Request) {
		http.ServeContent(w, r, "app.bin", time.Time{}, bytes.NewReader(p.data))
	})
	mux.HandleFunc("/app.toc", heldTable(p.toc, firstUse))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	m, st, err := Run(ctx, Options{
		URL:       srv.URL + "/app",
		TOCURL:    srv.URL + "/app.toc",
		Name:      p.app.Name,
		MainClass: p.rp.MainClass,
		Client:    fastClient(),
		Run: vm.Options{
			Args:       p.app.TestArgs,
			MaxSteps:   5e8,
			OnFirstUse: func(classfile.Ref) { once.Do(func() { close(firstUse) }) },
		},
	})
	if err != nil {
		t.Fatalf("the first invocation waited for the unit table: %v", err)
	}
	checkRun(t, p, m, want)
	if st.FirstRunnable <= 0 {
		t.Errorf("FirstRunnable = %v", st.FirstRunnable)
	}
}

// TestSessionOutOfOrderNeedAwaitsTable: a need the stream will not
// deliver next parks at the gate while the table is still in flight,
// and is judged once the table lands: demand-fetched exactly once, with
// exactly one mispredict. The stream stalls for good after the entry
// class, so only the demand path can deliver the need.
func TestSessionOutOfOrderNeedAwaitsTable(t *testing.T) {
	p := plan(t, "Hanoi")
	toc := parseTOC(t, p)
	// The entry class's last body: its class arrives in the prefix, so
	// its demand is one range request.
	var target classfile.Ref
	for _, u := range toc {
		if u.Kind == stream.KindBody && u.Class == toc[0].Class {
			target = u.Method
		}
	}
	release := make(chan struct{})
	var ranges atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/app", prefixThenStall(p, secondUnit(t, p), &ranges))
	mux.HandleFunc("/app.toc", heldTable(p.toc, release))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rec := obs.NewRecorder(0)
	s, err := Open(ctx, Options{
		URL:         srv.URL + "/app",
		TOCURL:      srv.URL + "/app.toc",
		Name:        p.app.Name,
		MainClass:   p.rp.MainClass,
		Client:      fastClient(),
		GateTimeout: 10 * time.Second,
		Obs:         rec,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The class rides the stream's prefix, table or no table.
	if err := s.AwaitClass(target.Class); err != nil {
		t.Fatalf("AwaitClass(%s): %v", target.Class, err)
	}
	errc := make(chan error, 1)
	go func() { errc <- s.AwaitMethod(target) }()
	for parked := false; !parked; {
		select {
		case err := <-errc:
			t.Fatalf("AwaitMethod(%v) returned before the table landed: %v", target, err)
		case <-time.After(time.Millisecond):
		}
		for _, e := range rec.Events() {
			parked = parked || e.Kind == obs.GateBlock && e.Name == label(target)
		}
	}
	close(release)
	if err := <-errc; err != nil {
		t.Fatalf("AwaitMethod(%v): %v", target, err)
	}
	st, err := s.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st.Mispredicts != 1 || st.DemandFetches != 1 || ranges.Load() != 1 {
		t.Errorf("%d mispredicts, %d demand fetches, %d range requests for one out-of-order need, want 1, 1, 1",
			st.Mispredicts, st.DemandFetches, ranges.Load())
	}
	if len(st.Waits) != 1 || !st.Waits[0].Demand {
		t.Errorf("waits %+v, want one demanded crossing", st.Waits)
	}
}

// transferLoopParked matches, in a goroutine dump, the transfer loop
// blocked on a channel receive in its own frame: the unit table it waits
// for once the stream has died.
var transferLoopParked = regexp.MustCompile(`\[chan receive[^\]]*\]:\n\S*live\.\(\*Session\)\.transferLoop\(`)

// TestSessionStreamDiesBeforeTable: the stream dies while the table is
// still in flight. The table is released only once the transfer loop
// has parked on it, and the session then degrades to demand fetching
// instead of failing, and runs exactly the strict program.
func TestSessionStreamDiesBeforeTable(t *testing.T) {
	p := plan(t, "Hanoi")
	want := reference(t, p)
	cut := secondUnit(t, p)
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/app", func(w http.ResponseWriter, r *http.Request) {
		rng := r.Header.Get("Range")
		if rng != "" && !strings.HasSuffix(rng, "-") {
			http.ServeContent(w, r, "app.bin", time.Time{}, bytes.NewReader(p.data))
			return
		}
		if rng == "" {
			// The first connection delivers the prefix, then dies; every
			// resume dies at once.
			w.Write(p.data[:cut])
			w.(http.Flusher).Flush()
		}
		panic(http.ErrAbortHandler)
	})
	mux.HandleFunc("/app.toc", heldTable(p.toc, release))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() {
		buf := make([]byte, 1<<20)
		for !transferLoopParked.Match(buf[:runtime.Stack(buf, true)]) {
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Millisecond):
			}
		}
		close(release)
	}()
	m, st, err := Run(ctx, Options{
		URL:         srv.URL + "/app",
		TOCURL:      srv.URL + "/app.toc",
		Name:        p.app.Name,
		MainClass:   p.rp.MainClass,
		Client:      fastClient(),
		GateTimeout: 10 * time.Second,
		Run:         vm.Options{Args: p.app.TestArgs, MaxSteps: 5e8},
	})
	if err != nil {
		t.Fatalf("a stream that died before the table landed should degrade: %v", err)
	}
	checkRun(t, p, m, want)
	if st.Degraded == "" || st.DemandFetches == 0 {
		t.Errorf("degraded %q with %d demand fetches, want a degradation finished by demand", st.Degraded, st.DemandFetches)
	}
}

// TestSessionBadTableIsTheSessionError: a unit table that is missing or
// fails its checksum is the session's error, whether the stream merely
// stalls or dies too, and whichever of the two fails first: the gate
// waits on the table for a need the stream cannot deliver, and a dead
// stream waits for the table before it reports. No failure of the table
// ever becomes a range request.
func TestSessionBadTableIsTheSessionError(t *testing.T) {
	p := plan(t, "Hanoi")
	corrupt := bytes.Clone(p.toc)
	corrupt[len(corrupt)/2] ^= 0x01
	_, parseErr := stream.ParseTOC(corrupt)
	if parseErr == nil {
		t.Fatal("a flipped byte still parses")
	}
	cut := secondUnit(t, p)
	needs := needTrace(t, p)

	for _, table := range []struct {
		name string
		toc  []byte
		want string
	}{
		{"missing", nil, "live: fetching unit table:"},
		{"corrupt", corrupt, parseErr.Error()},
	} {
		for _, streamDies := range []bool{false, true} {
			name := table.name + "/stream-stalls"
			if streamDies {
				name = table.name + "/stream-dies-first"
			}
			t.Run(name, func(t *testing.T) {
				release := make(chan struct{})
				var once sync.Once
				answered := func() { once.Do(func() { close(release) }) }
				var ranges atomic.Int64
				stall := prefixThenStall(p, cut, &ranges)
				mux := http.NewServeMux()
				mux.HandleFunc("/app", func(w http.ResponseWriter, r *http.Request) {
					if !streamDies {
						answered()
						stall(w, r)
						return
					}
					// Gone before the table is answered: a permanent failure,
					// so the stream never resumes.
					http.NotFound(w, r)
					answered()
				})
				mux.HandleFunc("/app.toc", heldTable(table.toc, release))
				srv := httptest.NewServer(mux)
				t.Cleanup(srv.Close)

				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				s, err := Open(ctx, Options{
					URL:         srv.URL + "/app",
					TOCURL:      srv.URL + "/app.toc",
					Name:        p.app.Name,
					MainClass:   p.rp.MainClass,
					Client:      fastClient(),
					GateTimeout: 10 * time.Second,
				}, nil)
				if err != nil {
					t.Fatal(err)
				}
				var gateErr error
				for _, ref := range needs {
					if gateErr = s.AwaitMethod(ref); gateErr != nil {
						break
					}
				}
				_, err = s.Close()
				if gateErr == nil || !strings.Contains(gateErr.Error(), table.want) {
					t.Errorf("gate error %v, want the table's %q", gateErr, table.want)
				}
				if err == nil || !strings.Contains(err.Error(), table.want) {
					t.Errorf("session error %v, want the table's %q", err, table.want)
				}
				if n := ranges.Load(); n != 0 {
					t.Errorf("%d range requests after the table failed, want 0", n)
				}
			})
		}
	}
}
