package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"nonstrict/internal/stream"
)

// benchApp is the workload for the serve benchmarks; Hanoi is the
// smallest registered app, so cold numbers are dominated by the
// pipeline, not by app size.
const benchApp = "Hanoi"

// switchableServer routes requests through an atomically swappable
// *Server, so cold benchmarks can replace the whole cache per iteration
// without paying listener setup inside the timed region.
type switchableServer struct {
	cur atomic.Pointer[Server]
}

func (sw *switchableServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw.cur.Load().Handler().ServeHTTP(w, r)
}

func (sw *switchableServer) reset(tb testing.TB) *Server {
	s, err := New(Config{Apps: []string{benchApp}})
	if err != nil {
		tb.Fatal(err)
	}
	sw.cur.Store(s)
	return s
}

// fetchStream GETs the app stream and returns total bytes plus the time
// from request start to the first unit's last byte (time-to-first-unit).
func fetchStream(tb testing.TB, url string, firstUnitEnd int64) (n int64, ttfu time.Duration) {
	tb.Helper()
	start := time.Now()
	resp, err := http.Get(url)
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("GET %s: %s", url, resp.Status)
	}
	buf := make([]byte, 32*1024)
	for {
		m, err := resp.Body.Read(buf)
		n += int64(m)
		if ttfu == 0 && n >= firstUnitEnd {
			ttfu = time.Since(start)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	if ttfu == 0 {
		ttfu = time.Since(start)
	}
	return n, ttfu
}

// firstUnitEnd parses app's served unit table and returns the stream
// offset one past the first unit.
func firstUnitEnd(tb testing.TB, tsURL, app string) int64 {
	tb.Helper()
	resp, err := http.Get(tsURL + "/apps/" + app + "/app.toc")
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	toc, err := stream.ParseTOC(raw)
	if err != nil {
		tb.Fatal(err)
	}
	if len(toc) == 0 {
		tb.Fatalf("%s: empty unit table", app)
	}
	return toc[0].Off + int64(toc[0].Len)
}

// BenchmarkColdServe: every iteration hits an empty cache, so the full
// compile/predict/restructure/stream pipeline runs inside the timing.
func BenchmarkColdServe(b *testing.B) {
	sw := &switchableServer{}
	sw.reset(b)
	ts := httptest.NewServer(sw)
	defer ts.Close()
	end := firstUnitEnd(b, ts.URL, benchApp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sw.reset(b) // drop the cache outside the timed region
		b.StartTimer()
		n, _ := fetchStream(b, ts.URL+"/apps/"+benchApp+"/app", end)
		b.SetBytes(n)
	}
}

// BenchmarkBuild is the cold build alone, per order policy: no HTTP, no
// cache, one app.
func BenchmarkBuild(b *testing.B) {
	for _, order := range allOrders {
		b.Run(order, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				art, err := Build(context.Background(), Key{App: benchApp, Order: order})
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(art.Data)))
			}
		})
	}
}

// BenchmarkWarmServe: the artifact is resident; a request is a cache
// hit plus ServeContent over shared immutable bytes.
func BenchmarkWarmServe(b *testing.B) {
	sw := &switchableServer{}
	s := sw.reset(b)
	ts := httptest.NewServer(sw)
	defer ts.Close()
	end := firstUnitEnd(b, ts.URL, benchApp)
	before := s.CacheStats().Builds
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, _ := fetchStream(b, ts.URL+"/apps/"+benchApp+"/app", end)
		b.SetBytes(n)
	}
	b.StopTimer()
	if got := s.CacheStats().Builds; got != before {
		b.Fatalf("warm benchmark ran %d builds", got-before)
	}
}

// BenchmarkWarmServeParallel: many clients hammering one resident
// artifact; measures contention on the cache's hot path.
func BenchmarkWarmServeParallel(b *testing.B) {
	sw := &switchableServer{}
	sw.reset(b)
	ts := httptest.NewServer(sw)
	defer ts.Close()
	url := ts.URL + "/apps/" + benchApp + "/app"
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := http.Get(url)
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})
}
