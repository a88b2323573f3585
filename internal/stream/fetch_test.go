package stream

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nonstrict/internal/xrand"
)

// testPayload is a deterministic pseudo-random body.
func testPayload(n int) []byte { return xrand.New(42).Bytes(n) }

// serveBytes returns a Range-capable test server for data, with fault
// injection.
func serveBytes(t *testing.T, data []byte, f Fault) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/app", func(w http.ResponseWriter, r *http.Request) {
		http.ServeContent(w, r, "app.bin", time.Time{}, bytes.NewReader(data))
	})
	srv := httptest.NewServer(f.Wrap(mux))
	t.Cleanup(srv.Close)
	return srv
}

// fastClient is a FetchClient whose backoff sleeps are recorded instead
// of waited out.
func fastClient(seed uint64, slept *[]time.Duration) *FetchClient {
	var mu sync.Mutex
	return &FetchClient{
		RequestTimeout: 5 * time.Second,
		JitterSeed:     seed,
		sleep: func(ctx context.Context, d time.Duration) error {
			mu.Lock()
			defer mu.Unlock()
			if slept != nil {
				*slept = append(*slept, d)
			}
			return ctx.Err()
		},
	}
}

// TestFetchResumesAfterDrop is the headline fault-tolerance property:
// the server kills the connection every kB, and the client still
// delivers the exact payload by resuming with Range requests.
func TestFetchResumesAfterDrop(t *testing.T) {
	data := testPayload(8<<10 + 137)
	srv := serveBytes(t, data, Fault{DropEvery: 1000})
	c := fastClient(1, nil)

	var got bytes.Buffer
	n, err := c.Fetch(context.Background(), srv.URL+"/app", &got)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(data)) || !bytes.Equal(got.Bytes(), data) {
		t.Fatalf("fetched %d bytes, want %d; content equal: %v", n, len(data), bytes.Equal(got.Bytes(), data))
	}
	st := c.Stats()
	if st.Resumes < 8 {
		t.Errorf("resumes = %d, want at least 8 (one per kB drop)", st.Resumes)
	}
	if st.BytesTransferred != int64(len(data)) {
		t.Errorf("bytes transferred = %d, want %d (no double counting across resumes)", st.BytesTransferred, len(data))
	}
	if st.Requests != st.Resumes+1 {
		t.Errorf("requests = %d, want resumes+1 = %d", st.Requests, st.Resumes+1)
	}
}

// TestFetchTimeoutBackoffSuccess: a server that stalls on its first
// request trips the per-request watchdog; the client backs off and the
// retry succeeds.
func TestFetchTimeoutBackoffSuccess(t *testing.T) {
	data := testPayload(2048)
	var reqs atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/app", func(w http.ResponseWriter, r *http.Request) {
		if reqs.Add(1) == 1 {
			<-r.Context().Done() // stall: no headers until the client gives up
			return
		}
		http.ServeContent(w, r, "app.bin", time.Time{}, bytes.NewReader(data))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var slept []time.Duration
	c := fastClient(1, &slept)
	c.RequestTimeout = 50 * time.Millisecond

	var got bytes.Buffer
	if _, err := c.Fetch(context.Background(), srv.URL+"/app", &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), data) {
		t.Fatal("content mismatch after timeout recovery")
	}
	if st := c.Stats(); st.Retries < 1 {
		t.Errorf("retries = %d, want at least 1", st.Retries)
	}
	if len(slept) < 1 {
		t.Error("no backoff sleep recorded before the retry")
	}
}

// TestFetchRange: the demand-fetch path pulls an arbitrary byte range
// through the same resume policy, against ServeContent's real Range
// handling on a link that drops every 100 bytes.
func TestFetchRange(t *testing.T) {
	data := testPayload(4096)
	srv := serveBytes(t, data, Fault{DropEvery: 100})
	c := fastClient(1, nil)

	want := data[100:600]
	p, attempts, err := c.FetchRangeVerified(context.Background(), srv.URL+"/app", 100, 500, ChecksumPayload(want))
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 1 || !bytes.Equal(p, want) {
		t.Fatalf("range fetch returned %d bytes in %d attempts, equal: %v", len(p), attempts, bytes.Equal(p, want))
	}
	if st := c.Stats(); st.Resumes < 4 {
		t.Errorf("resumes = %d, want at least 4 under 100-byte drops", st.Resumes)
	}
	if _, _, err := c.FetchRangeVerified(context.Background(), srv.URL+"/app", -1, 10, 0); err == nil {
		t.Error("negative offset accepted")
	}
	if _, _, err := c.FetchRangeVerified(context.Background(), srv.URL+"/app", 0, 0, 0); err == nil {
		t.Error("empty range accepted")
	}
}

// TestFetchDeterministicUnderSeed: the injected faults are positional
// and the jitter is seeded, so two identical transfers observe identical
// counter values, and two clients with the same seed produce the same
// backoff schedule (a different seed produces a different one).
func TestFetchDeterministicUnderSeed(t *testing.T) {
	data := testPayload(6000)
	var stats [2]FetchStats
	for i := range stats {
		srv := serveBytes(t, data, Fault{DropEvery: 512})
		c := fastClient(99, nil)
		var got bytes.Buffer
		if _, err := c.Fetch(context.Background(), srv.URL+"/app", &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), data) {
			t.Fatal("content mismatch")
		}
		stats[i] = c.Stats()
		srv.Close()
	}
	if stats[0] != stats[1] {
		t.Errorf("two identical faulty transfers disagree: %+v vs %+v", stats[0], stats[1])
	}

	seq := func(seed uint64) []time.Duration {
		c := &FetchClient{JitterSeed: seed, BackoffBase: 100 * time.Millisecond, backoffMax: 2 * time.Second}
		var out []time.Duration
		for fails := 1; fails <= 8; fails++ {
			out = append(out, c.backoff(fails))
		}
		return out
	}
	a, b, other := seq(7), seq(7), seq(8)
	differs := false
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("same seed, different backoff at attempt %d: %v vs %v", i+1, a[i], b[i])
		}
		if a[i] != other[i] {
			differs = true
		}
		cap := 2 * time.Second
		want := 100 * time.Millisecond << (i)
		if want > cap {
			want = cap
		}
		if a[i] < want/2 || a[i] >= want {
			t.Errorf("attempt %d: backoff %v outside [%v, %v)", i+1, a[i], want/2, want)
		}
	}
	if !differs {
		t.Error("different seeds produced identical jitter")
	}
}

// TestFetchPermanentAndExhaustedErrors: 4xx fails immediately without
// retries; a dead server fails after the retry budget.
func TestFetchPermanentAndExhaustedErrors(t *testing.T) {
	srv := serveBytes(t, testPayload(16), Fault{})
	c := fastClient(1, nil)
	if _, err := c.Open(context.Background(), srv.URL+"/nope"); err == nil || !errors.Is(err, ErrFetchFailed) {
		t.Errorf("404 open: %v", err)
	}
	if st := c.Stats(); st.Retries != 0 {
		t.Errorf("404 consumed %d retries", st.Retries)
	}

	dead := fastClient(1, nil)
	dead.MaxRetries = 2
	srv2 := httptest.NewServer(http.NotFoundHandler())
	url := srv2.URL
	srv2.Close() // nothing is listening any more
	if _, err := dead.Open(context.Background(), url+"/app"); err == nil || !errors.Is(err, ErrFetchFailed) {
		t.Errorf("dead server open: %v", err)
	}
	if st := dead.Stats(); st.Retries != 2 {
		t.Errorf("dead server retries = %d, want 2", st.Retries)
	}

	// A canceled context wins over the retry loop.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fastClient(1, nil).Open(ctx, url+"/app"); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled open: %v", err)
	}
}

// TestFetchLoaderEndToEnd: the non-strict loader consumes a benchmark
// stream through the resuming reader over a lossy link and assembles the
// complete, verified program.
func TestFetchLoaderEndToEnd(t *testing.T) {
	_, rp, _, w := plan(t, "Hanoi")
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	srv := serveBytes(t, buf.Bytes(), Fault{DropEvery: 700})
	c := fastClient(1, nil)

	r, err := c.Open(context.Background(), srv.URL+"/app")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	l := NewLoader(rp.Name, rp.MainClass, nil)
	events := 0
	if err := l.Load(r, func(Event) { events++ }); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Program(); err != nil {
		t.Fatal(err)
	}
	if l.Consumed() != w.Size() {
		t.Errorf("consumed %d bytes, want %d", l.Consumed(), w.Size())
	}
	if events == 0 {
		t.Error("no loader events over the lossy link")
	}
	if st := c.Stats(); st.Resumes == 0 {
		t.Error("stream fit in one connection; fault injection did not engage")
	}
}

// TestBackoffSubNanosecondBase is the regression test for the
// mod-by-zero panic: a BackoffBase whose halved delay truncates to zero
// must skip the jitter, not divide by it.
func TestBackoffSubNanosecondBase(t *testing.T) {
	c := &FetchClient{BackoffBase: 1} // 1ns: d/2 == 0 on the first retry
	for fails := 1; fails <= 6; fails++ {
		d := c.backoff(fails)
		if d <= 0 {
			t.Errorf("backoff(%d) = %v, want > 0", fails, d)
		}
	}
}

// TestParseRetryAfter pins both RFC 9110 Retry-After forms. The header
// can be delta-seconds or an HTTP-date; either way the result is a
// delay clamped to maxRetryAfter, and anything unusable — garbage,
// negatives, dates already in the past — yields 0 so the client falls
// back to its own backoff schedule.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name string
		h    string
		want time.Duration
	}{
		{"delta-seconds", "7", 7 * time.Second},
		{"delta-whitespace", "  7 ", 7 * time.Second},
		{"delta-zero", "0", 0},
		{"delta-negative", "-3", 0},
		{"delta-clamped", "86400", maxRetryAfter},
		// A delta large enough to overflow int64 nanoseconds must clamp,
		// not wrap negative and vanish.
		{"delta-overflow", "9223372036854775807", maxRetryAfter},
		{"date-future", now.Add(10 * time.Second).UTC().Format(http.TimeFormat), 10 * time.Second},
		{"date-clamped", now.Add(10 * time.Minute).UTC().Format(http.TimeFormat), maxRetryAfter},
		{"date-past", now.Add(-10 * time.Second).UTC().Format(http.TimeFormat), 0},
		// RFC 850 and ANSI C asctime are the obsolete-but-required date
		// forms; net/http.ParseTime accepts both.
		{"date-rfc850", "Saturday, 08-Aug-26 12:00:10 GMT", 10 * time.Second},
		{"date-asctime", "Sat Aug  8 12:00:10 2026", 10 * time.Second},
		{"garbage", "soon", 0},
		{"empty", "", 0},
		{"blank", "   ", 0},
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.h, now); got != tc.want {
			t.Errorf("%s: parseRetryAfter(%q) = %v, want %v", tc.name, tc.h, got, tc.want)
		}
	}
}
