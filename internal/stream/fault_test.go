package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestFaultStallHonorsCancel: an unbounded stall (StallFor 0) must end
// the moment the client disconnects, not hold the goroutine forever.
func TestFaultStallHonorsCancel(t *testing.T) {
	f := Fault{StallAfter: 2}
	h := f.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(make([]byte, 64))
	}))
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/app", nil).WithContext(ctx)

	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(httptest.NewRecorder(), req)
	}()
	time.AfterFunc(50*time.Millisecond, cancel)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stalled handler survived client disconnect")
	}
}

// TestFaultCorruptionDeterministic: the same seed must corrupt the same
// byte positions with the same masks on every request, and a different
// seed must corrupt differently — that is what makes a chaos schedule
// reproducible.
func TestFaultCorruptionDeterministic(t *testing.T) {
	data := testPayload(4 << 10)
	srv := serveBytes(t, data, Fault{CorruptEvery: 256, Seed: 7})

	get := func(srv *httptest.Server) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + "/app")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	first, second := get(srv), get(srv)
	if !bytes.Equal(first, second) {
		t.Fatal("identical requests corrupted differently under one seed")
	}
	if bytes.Equal(first, data) {
		t.Fatal("corruption fault delivered pristine bytes")
	}
	var diffs []int
	for i := range data {
		if first[i] != data[i] {
			diffs = append(diffs, i)
		}
	}
	if want := len(data) / 256; len(diffs) != want {
		t.Errorf("%d bytes corrupted, want %d (every 256th)", len(diffs), want)
	}
	for _, i := range diffs {
		if (i+1)%256 != 0 {
			t.Errorf("byte %d corrupted; positions should be multiples of 256", i)
		}
	}

	other := serveBytes(t, data, Fault{CorruptEvery: 256, Seed: 8})
	if bytes.Equal(get(other), first) {
		t.Error("different seeds produced identical corruption")
	}
}

// TestFaultTruncate: the response must end cleanly after exactly N body
// bytes — no reset, just a short body.
func TestFaultTruncate(t *testing.T) {
	data := testPayload(2 << 10)
	srv := serveBytes(t, data, Fault{TruncateAfter: 777})
	resp, err := http.Get(srv.URL + "/app")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, _ := io.ReadAll(resp.Body) // short read is the point; error depends on framing
	if len(got) != 777 {
		t.Fatalf("read %d bytes, want exactly 777", len(got))
	}
	if !bytes.Equal(got, data[:777]) {
		t.Error("truncated prefix does not match the original")
	}
}

// TestFaultGarbageRange: every Nth Range request gets a 206 whose
// Content-Range contradicts the request; the fetch client must reject
// the reply rather than splice junk at the wrong offset, and succeed
// on a retry.
func TestFaultGarbageRange(t *testing.T) {
	data := testPayload(4 << 10)
	srv := serveBytes(t, data, Fault{GarbageRangeEvery: 2, Seed: 3})
	c := fastClient(1, nil)

	// Every 2nd Range request is garbage, so the second fetch hits it
	// and must retry through to a clean reply.
	for i := 0; i < 2; i++ {
		p, _, err := c.FetchRangeVerified(context.Background(), srv.URL+"/app", 100, 500, ChecksumPayload(data[100:600]))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p, data[100:600]) {
			t.Fatalf("fetch %d spliced wrong bytes under garbage replies", i)
		}
	}
	if c.Stats().Retries == 0 {
		t.Error("no retries recorded; the garbage reply was never served")
	}
}

// TestFaultGarbageRangeOnly: when every Range reply is garbage, the
// client must fail cleanly with ErrFetchFailed, never install junk.
func TestFaultGarbageRangeOnly(t *testing.T) {
	data := testPayload(4 << 10)
	srv := serveBytes(t, data, Fault{GarbageRangeEvery: 1, Seed: 3})
	c := fastClient(1, nil)
	p, _, err := c.FetchRangeVerified(context.Background(), srv.URL+"/app", 100, 500, ChecksumPayload(data[100:600]))
	if p != nil || !errors.Is(err, ErrFetchFailed) {
		t.Fatalf("err = %v, want ErrFetchFailed", err)
	}
}

// TestFaultFlakyTOC: the first N unit-table requests fail with a 503;
// the retrying client must ride it out and other paths must be
// untouched.
func TestFaultFlakyTOC(t *testing.T) {
	toc := []byte(`[]`)
	mux := http.NewServeMux()
	mux.HandleFunc("/app.toc", func(w http.ResponseWriter, r *http.Request) {
		http.ServeContent(w, r, "app.toc.json", time.Time{}, bytes.NewReader(toc))
	})
	srv := httptest.NewServer(Fault{FlakyTOC: 2}.Wrap(mux))
	defer srv.Close()

	c := fastClient(1, nil)
	var buf bytes.Buffer
	if _, err := c.Fetch(context.Background(), srv.URL+"/app.toc", &buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), toc) {
		t.Fatalf("fetched %q, want %q", buf.Bytes(), toc)
	}
	if got := c.Stats().Retries; got < 2 {
		t.Errorf("%d retries recorded, want at least the 2 flaky 503s", got)
	}
}

// TestFaultStallBounded: a bounded stall delays the body but the full
// payload still arrives on one connection.
func TestFaultStallBounded(t *testing.T) {
	data := testPayload(1 << 10)
	srv := serveBytes(t, data, Fault{StallAfter: 100, StallFor: 50 * time.Millisecond})
	began := time.Now()
	resp, err := http.Get(srv.URL + "/app")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("stalled response corrupted the payload")
	}
	if elapsed := time.Since(began); elapsed < 50*time.Millisecond {
		t.Errorf("response took %v; the 50ms stall never engaged", elapsed)
	}
}

// tocServer serves a real benchmark's stream and unit table through a
// fault — the chaos harness's server shape, for the TOC-exemption
// regression tests.
func tocServer(t *testing.T, f Fault) (*httptest.Server, []byte, []byte) {
	t.Helper()
	_, _, _, w := plan(t, "Hanoi")
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	toc, err := MarshalTOC(w.TOC())
	if err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	mux := http.NewServeMux()
	mux.HandleFunc("/app", func(w http.ResponseWriter, r *http.Request) {
		http.ServeContent(w, r, "app.bin", time.Time{}, bytes.NewReader(data))
	})
	mux.HandleFunc("/app.toc", func(w http.ResponseWriter, r *http.Request) {
		http.ServeContent(w, r, "app.toc.json", time.Time{}, bytes.NewReader(toc))
	})
	srv := httptest.NewServer(f.Wrap(mux))
	t.Cleanup(srv.Close)
	return srv, data, toc
}

// TestFaultGarbageRangeSparesTOC is the regression test for the fault
// layer garbaging unit-table resumes: a drop schedule small enough to
// interrupt the TOC transfer forces the client to resume it with a
// Range request, and with GarbageRangeEvery=1 every such resume came
// back as a bogus 206 — the TOC could never be fetched and every chaos
// schedule degraded identically at startup. The unit table must be
// exempt: the fetch succeeds and the table parses.
func TestFaultGarbageRangeSparesTOC(t *testing.T) {
	srv, _, toc := tocServer(t, Fault{DropEvery: 128, GarbageRangeEvery: 1, Seed: 42})
	if len(toc) <= 128 {
		t.Fatalf("unit table only %d bytes; the drop schedule cannot force a resume", len(toc))
	}
	c := fastClient(1, nil)
	var got bytes.Buffer
	if _, err := c.Fetch(context.Background(), srv.URL+"/app.toc", &got); err != nil {
		t.Fatalf("unit-table fetch under garbage-range chaos: %v", err)
	}
	if !bytes.Equal(got.Bytes(), toc) {
		t.Fatal("unit table arrived corrupted")
	}
	if _, err := ParseTOC(got.Bytes()); err != nil {
		t.Fatalf("fetched unit table does not parse: %v", err)
	}
	if c.Stats().Resumes == 0 {
		t.Error("TOC fetch never resumed; the regression scenario did not engage")
	}
}

// TestFaultGarbageRangeCounterSkipsTOC: unit-table requests must not
// advance the garbage-Range schedule either, so the same /app ranges
// are garbaged whether or not a .toc resume happened in between.
func TestFaultGarbageRangeCounterSkipsTOC(t *testing.T) {
	srv, data, toc := tocServer(t, Fault{GarbageRangeEvery: 2, Seed: 7})
	ranged := func(path string, from, to int) (int, []byte) {
		req, err := http.NewRequest("GET", srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", from, to))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}

	// /app range #1: schedule count 1 — clean.
	if code, b := ranged("/app", 0, 15); code != http.StatusPartialContent || !bytes.Equal(b, data[:16]) {
		t.Fatalf("first /app range: code %d, %d bytes", code, len(b))
	}
	// A .toc range between them: exempt AND uncounted.
	if code, b := ranged("/app.toc", 0, 15); code != http.StatusPartialContent || !bytes.Equal(b, toc[:16]) {
		t.Fatalf("ranged unit-table request corrupted: code %d, body %q", code, b)
	}
	// /app range #2: schedule count 2 — garbaged. If the .toc request
	// had advanced the counter this would be count 3 and come back
	// clean.
	if _, b := ranged("/app", 0, 15); bytes.Equal(b, data[:16]) {
		t.Fatal("second /app range came back clean; the .toc request advanced the garbage schedule")
	}
}

// TestFaultCounters: each injected fault kind is counted for /metrics.
func TestFaultCounters(t *testing.T) {
	var fs FaultStats
	srv, _, _ := tocServer(t, Fault{
		DropEvery:         256,
		CorruptEvery:      200,
		GarbageRangeEvery: 1,
		FlakyTOC:          1,
		Seed:              9,
		Counters:          &fs,
	})
	c := fastClient(1, nil)
	c.FetchRangeVerified(context.Background(), srv.URL+"/app", 0, 64, 0) // garbage every time: fails
	var buf bytes.Buffer
	c.Fetch(context.Background(), srv.URL+"/app.toc", &buf) // rides out the 503 and the drops
	buf.Reset()
	c.Fetch(context.Background(), srv.URL+"/app", &buf) // dropped + corrupted stream

	got := fs.Snapshot()
	if got.Drops == 0 || got.CorruptedBytes == 0 || got.GarbageRanges == 0 || got.TOCFailures == 0 {
		t.Errorf("fault counters missing injections: %+v", got)
	}
	var nilStats *FaultStats
	if nilStats.Snapshot() != (FaultCounts{}) {
		t.Error("nil FaultStats snapshot not zero")
	}
}

// TestFaultScheduleIsolatedAcrossClients is the fleet-scale audit of the
// fault layer's per-connection state: every byte-positional schedule
// (corruption positions, masks, truncation point) lives in a faultWriter
// allocated per request, so thousands of concurrent clients must each
// observe exactly the schedule a lone serial client observes — no shared
// cursor, no cross-request drift. Run under -race in the chaos gate.
func TestFaultScheduleIsolatedAcrossClients(t *testing.T) {
	data := testPayload(8 << 10)
	f := Fault{CorruptEvery: 192, TruncateAfter: 6 << 10, Seed: 11}
	srv := serveBytes(t, data, f)

	fetch := func() ([]byte, error) {
		resp, err := http.Get(srv.URL + "/app")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		return io.ReadAll(resp.Body)
	}

	// Serial baseline first: the schedule one unhurried client sees.
	want, err := fetch()
	if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatal(err)
	}
	if int64(len(want)) != f.TruncateAfter {
		t.Fatalf("baseline delivered %d bytes, want truncation at %d", len(want), f.TruncateAfter)
	}
	if bytes.Equal(want, data[:len(want)]) {
		t.Fatal("baseline saw pristine bytes; corruption schedule inactive")
	}

	const clients = 64
	got := make([][]byte, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = fetch()
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if errs[i] != nil && !errors.Is(errs[i], io.ErrUnexpectedEOF) {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], want) {
			t.Fatalf("client %d observed a different fault schedule than the serial baseline (%d vs %d bytes)",
				i, len(got[i]), len(want))
		}
	}
}
